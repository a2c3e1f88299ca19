"""Layer spans recorded from outside the program.

The traced server launcher (``serve.py --trace``) wraps the program's
public functions *where they are looked up* before the server starts,
so every call through the wrapped name records one span:
``(id, name, start, end, parent, request id, thread)``.  Spans live in
memory and are written out when the server exits.  A layer's self time
is its span's duration minus what its child spans cover.

Parents follow the call chain through a context variable: each asyncio
task and each executor thread sees its own chain, and the request id is
set by the ``handle`` wrapper, so it reaches every span the request's
own task records.  Mutator spans inside a lease re-chase or a database
open are folded into that span (not recorded one by one): thousands of
replayed inserts would otherwise drown the served ones.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: one recorded span
Span = Tuple[int, str, float, float, Optional[int], Any, int]

#: spans that wait (await, or a derived queue/ack interval) rather than
#: compute on their thread — excluded when covering loop busy time
WAITING = frozenset(
    {
        "server.app.handle",
        "server.writer.submit",
        "server.writer.queue_wait",
        "server.writer.ack_wait",
    }
)


class Tracer:
    """An in-memory span recorder (one per traced server process)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.marks: Dict[str, float] = {}
        self.enabled = True
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "span", default=None
        )
        self._request: contextvars.ContextVar = contextvars.ContextVar(
            "request", default=None
        )
        self._quiet: contextvars.ContextVar = contextvars.ContextVar(
            "quiet", default=False
        )

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def record(
        self, sid: int, name: str, start: float, end: float, parent: Optional[int], rid: Any
    ) -> None:
        self.spans.append((sid, name, start, end, parent, rid, threading.get_ident()))

    def wrap(
        self,
        name: str,
        fn: Callable,
        fold: bool = False,
        quietable: bool = False,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span per call.  ``fold`` silences the
        ``quietable`` spans of everything it calls; ``after(args,
        result)`` may count."""
        tracer = self
        current, request, quiet = self._current, self._request, self._quiet

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or (quietable and quiet.get()):
                return fn(*args, **kwargs)
            sid = next(tracer._ids)
            parent = current.get()
            token = current.set(sid)
            quiet_token = quiet.set(True) if fold else None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if quiet_token is not None:
                    quiet.reset(quiet_token)
                current.reset(token)
                tracer.record(sid, name, start, end, parent, request.get())
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_handle(self, fn: Callable) -> Callable:
        """``ReproServer.handle``: the root span of one request, which
        also carries the request id down its task's call chain."""
        tracer = self
        current, request = self._current, self._request

        @functools.wraps(fn)
        async def traced(server, message, *args, **kwargs):
            rid = message.get("id") if isinstance(message, dict) else None
            if isinstance(rid, str) and rid.startswith("mark:"):
                tracer.marks[rid[5:]] = time.perf_counter()
            if not tracer.enabled:
                return await fn(server, message, *args, **kwargs)
            sid = next(tracer._ids)
            token = current.set(sid)
            request_token = request.set(rid)
            start = time.perf_counter()
            try:
                return await fn(server, message, *args, **kwargs)
            finally:
                end = time.perf_counter()
                request.reset(request_token)
                current.reset(token)
                tracer.record(sid, "server.app.handle", start, end, None, rid)

        return traced

    def wrap_submit(self, fn: Callable, many: bool) -> Callable:
        """``RelationWriter.submit``/``submit_many``: queue wait (entry →
        op closure start), the closure itself, and ack wait (closure end
        → ack), all children of one submit span."""
        tracer = self
        current, request = self._current, self._request

        @functools.wraps(fn)
        async def traced(writer, payload):
            if not tracer.enabled:
                return await fn(writer, payload)
            sid = next(tracer._ids)
            parent = current.get()
            rid = request.get()
            times: List[float] = []

            def timed(apply_fn):
                def run():
                    apply_sid = next(tracer._ids)
                    token = current.set(apply_sid)
                    request_token = request.set(rid)
                    start = time.perf_counter()
                    try:
                        return apply_fn()
                    finally:
                        end = time.perf_counter()
                        request.reset(request_token)
                        current.reset(token)
                        times.append(start)
                        times.append(end)
                        tracer.record(
                            apply_sid, "server.writer.apply", start, end, sid, rid
                        )

                return run

            wrapped = [timed(f) for f in payload] if many else timed(payload)
            token = current.set(sid)
            entry = time.perf_counter()
            try:
                return await fn(writer, wrapped)
            finally:
                done = time.perf_counter()
                current.reset(token)
                tracer.record(sid, "server.writer.submit", entry, done, parent, rid)
                if times:
                    tracer.record(
                        next(tracer._ids), "server.writer.queue_wait",
                        entry, times[0], sid, rid,
                    )
                    tracer.record(
                        next(tracer._ids), "server.writer.ack_wait",
                        times[-1], done, sid, rid,
                    )

        return traced


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Span id → its duration minus what its children cover (clipped
    to the span's own interval)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out: Dict[int, float] = {}
    for sid, _, start, end, _, _, _ in spans:
        kids = children.get(sid)
        covered = 0.0
        if kids:
            covered = union_length(
                (max(a, start), min(b, end)) for a, b in kids if b > start and a < end
            )
        out[sid] = max(0.0, (end - start) - covered)
    return out


class LayerStats:
    """Per-name aggregates over a set of spans."""

    def __init__(self, spans: List[Span]) -> None:
        selfs = self_times(spans)
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        for span in spans:
            sid, name, start, end = span[0], span[1], span[2], span[3]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + selfs[sid]
            self.total_s[name] = self.total_s.get(name, 0.0) + (end - start)

    def mean_self_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1000.0 * self.self_s.get(name, 0.0) / calls if calls else 0.0

    def mean_total_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1000.0 * self.total_s.get(name, 0.0) / calls if calls else 0.0
