"""The load generator's wire client and traffic loops.

One process, one event loop, at most two TCP connections, no threads.
The client speaks the server's JSON-lines protocol over raw asyncio
streams with a line limit sized to the largest answer: the program's
own ``protocol.Client`` reads with asyncio's default 64 KiB limit, and a
``result`` answer on ~2,000 rows is larger than that (see NOTES.md).
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

#: largest response line the client accepts (answers on a few thousand
#: rows are a few hundred KiB)
LINE_LIMIT = 64 * 1024 * 1024
#: bound on waiting for any single answer
CALL_TIMEOUT_S = 30.0


@dataclass
class Sample:
    """One request's fate: when it was due, sent, and answered."""

    kind: str  # "write" | "read"
    request: dict
    ops: int
    due: float
    sent: float
    done: float = 0.0
    response: Optional[dict] = None
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due


class Conn:
    """One pipelined connection: requests carry ids, responses may
    arrive out of order and are matched on ``id``."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._waiting: Dict[Any, Tuple[Sample, asyncio.Future]] = {}
        self._pump: Optional[asyncio.Task] = None

    @classmethod
    async def open(cls, host: str, port: int) -> "Conn":
        reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
        conn = cls(reader, writer)
        conn._pump = asyncio.get_running_loop().create_task(conn._read_loop())
        return conn

    def send(self, sample: Sample) -> asyncio.Future:
        """Write the request now; the future resolves with the sample."""
        future = asyncio.get_running_loop().create_future()
        self._waiting[sample.request["id"]] = (sample, future)
        sample.sent = time.perf_counter()
        self._writer.write(
            (json.dumps(sample.request, separators=(",", ":")) + "\n").encode()
        )
        return future

    async def call(
        self, request: dict, kind: str = "read", ops: int = 0, timeout: float = CALL_TIMEOUT_S
    ) -> Sample:
        """Send one request and wait for its answer (or time out)."""
        now = time.perf_counter()
        sample = Sample(kind, request, ops, now, now)
        try:
            await asyncio.wait_for(self.send(sample), timeout)
        except asyncio.TimeoutError:
            sample.error = "timed out"
        return sample

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                entry = self._waiting.pop(response.get("id"), None)
                if entry is None:
                    continue
                sample, future = entry
                sample.done = time.perf_counter()
                sample.response = response
                if not response.get("ok"):
                    sample.error = str(response.get("error"))
                if not future.done():  # a timed-out call cancelled it
                    future.set_result(sample)
        finally:
            for sample, future in self._waiting.values():
                sample.done = time.perf_counter()
                sample.error = "connection closed"
                if not future.done():
                    future.set_result(sample)
            self._waiting.clear()

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass
        if self._pump is not None:
            await self._pump


@dataclass
class Recorder:
    """Every sample of a pass, plus the generator's own lateness."""

    samples: List[Sample] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)


async def closed_loop(
    conn: Conn,
    stream: Iterator[Tuple[dict, int]],
    window: int,
    deadline: float,
    kind: str,
    recorder: Recorder,
) -> None:
    """Keep ``window`` requests in flight until ``deadline``, then wait
    for the stragglers.  Requests are drawn from ``stream`` at send time,
    so the send order is the stream's order whatever the reply order."""
    pending: set = set()
    while True:
        while len(pending) < window and time.perf_counter() < deadline:
            request, ops = next(stream)
            now = time.perf_counter()
            sample = Sample(kind, request, ops, now, now)
            recorder.samples.append(sample)
            pending.add(conn.send(sample))
        if not pending:
            return
        _, pending = await asyncio.wait(pending, return_when=asyncio.FIRST_COMPLETED)


async def open_loop(
    conn: Conn,
    stream: Iterator[Tuple[dict, int]],
    rate: float,
    start: float,
    deadline: float,
    kind: str,
    recorder: Recorder,
) -> None:
    """Send on a fixed schedule (``rate`` per second) regardless of
    replies; latency counts from each request's due time."""
    pending = []
    n = 0
    while True:
        due = start + n / rate
        if due >= deadline:
            break
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        request, ops = next(stream)
        sample = Sample(kind, request, ops, due, 0.0)
        recorder.samples.append(sample)
        pending.append(conn.send(sample))
        recorder.lateness.append(sample.sent - due)
        n += 1
    if pending:
        await asyncio.gather(*pending)
