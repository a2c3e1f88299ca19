"""The write-ahead op log: JSONL append, torn-tail scan, op-record codec.

One line per op record, appended *before* the op is applied to the
in-memory session (the session's :attr:`~repro.chase.session.ChaseSession.on_op`
hook fires after validation, before any engine mutation).  Each record
carries a monotonically increasing ``seq``; checkpoints remember the seq
they cover, which makes recovery idempotent across the
checkpoint-written-but-log-not-yet-truncated crash window (stale records
are skipped by seq, never re-applied).

Crash anatomy of an append-only text log:

* a crash *between* ops leaves whole lines — every record replays;
* a crash *mid-append* leaves one torn final line — :func:`scan` detects
  it (no newline, or JSON that does not parse) and reports the byte
  offset of the last good record so recovery can truncate it away.  The
  op it belonged to never applied in memory either (journal-then-apply),
  so dropping it is exactly right;
* garbage *before* intact records is real corruption and raises
  :class:`~repro.errors.DatabaseError` — silently resynchronizing could
  drop acknowledged writes.

The serving layer (:mod:`repro.server`) journals through
:class:`GroupCommitter` instead of per-op :meth:`OpLog.append`: op
records from a burst of concurrent clients are batched into a single
:meth:`OpLog.append_many` — one write, one flush, one fsync — and each
client's future completes only after its batch is durable.  The same
torn-tail anatomy applies: a batch is appended as consecutive whole
lines, so a crash mid-batch leaves a whole-record prefix (plus at most
one torn final record, detected and dropped exactly as above).
"""

from __future__ import annotations

import asyncio
import json
import os
from pathlib import Path
from typing import Any, Callable, List, Mapping, Optional, Sequence, Tuple

from ..core.codec import ValueCodec
from ..errors import CodecError, DatabaseError, OpError
from ..opschema import MUTATION_VERBS
from .storage import dump_json

SYNC_NONE = "none"
SYNC_FLUSH = "flush"
SYNC_FSYNC = "fsync"
SYNC_MODES = (SYNC_NONE, SYNC_FLUSH, SYNC_FSYNC)

#: ops that carry no operands beyond the op name itself
_BARE_OPS = ("adopt", "snapshot", "rollback", "discard")


class OpLog:
    """An append handle on one relation's ``wal.jsonl``.

    ``sync`` picks the durability point of each append: ``"fsync"``
    (default — survives power loss), ``"flush"`` (survives process death,
    not power loss), or ``"none"`` (buffered; throughput benchmarking).
    """

    def __init__(self, path: Path, sync: str = SYNC_FSYNC) -> None:
        if sync not in SYNC_MODES:
            raise DatabaseError(f"unknown sync mode {sync!r}; use {SYNC_MODES}")
        self.path = path
        self.sync = sync
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, payload: dict) -> None:
        """Append one record: :meth:`append_many` of a one-record batch."""
        self.append_many([payload])

    def append_many(self, payloads: Sequence[dict]) -> None:
        """Append a batch of records with one write and one sync point.

        The whole blob is encoded before any byte lands, so an
        unencodable record aborts with the log untouched.  On a failed
        write/sync every byte of the batch is truncated away: the ops
        these records announce are being reported as failed (group
        commit resolves client futures only after this returns), so a
        surviving partial batch would either read as corruption or
        replay ops that were never acknowledged.
        """
        if not payloads:
            return
        blob = "".join(dump_json(payload) + "\n" for payload in payloads)
        handle = self._handle
        mark = handle.tell()
        try:
            handle.write(blob)
            if self.sync != SYNC_NONE:
                handle.flush()
                if self.sync == SYNC_FSYNC:
                    os.fsync(handle.fileno())
        except Exception:
            try:
                handle.truncate(mark)
            except OSError:  # pragma: no cover - double-fault: leave torn
                pass
            raise

    def truncate(self) -> None:
        """Drop every record (a checkpoint now covers them)."""
        handle = self._handle
        handle.flush()
        handle.seek(0)
        handle.truncate()
        if self.sync == SYNC_FSYNC:
            os.fsync(handle.fileno())

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.flush()
            self._handle.close()


class GroupCommitter:
    """Latch bursts of op records into single WAL appends.

    The serving layer's per-relation writer journals through
    :meth:`stage` instead of :meth:`OpLog.append`: records accumulate
    while the event loop applies a burst of client ops, and a background
    flusher task appends the whole batch with **one** write + flush +
    fsync (:meth:`OpLog.append_many`), completing each record's future
    only after its batch is durable.  Under N concurrent clients the
    per-op sync cost becomes a per-burst one.

    Group commit relaxes journal-before-apply to *stage-before-apply,
    durable-before-ack*: a record is staged (in log order) before its op
    mutates the session, but only becomes durable at the batch sync.  A
    crash may therefore lose applied-but-unsynced ops — which is exactly
    safe, because their clients were never acknowledged; recovery yields
    a whole-record prefix of the staged order that contains every acked
    op (the crash-injection suite pins this at every batch boundary).

    ``window_s`` latches the batch window: the flusher waits that long
    after waking before committing, letting more of a burst land.  The
    default ``0`` yields the event loop once — whatever the current
    sweep of ready callbacks stages forms the batch.  ``max_batch`` caps
    records per append.

    A failed append fails every staged future and **poisons** the
    committer (:attr:`failed`): the in-memory session is now ahead of a
    log that cannot be extended contiguously, so the owner must stop
    accepting ops (the server's writer does, and the failed batch was
    truncated away whole, so the log on disk stays readable).

    ``on_commit(payloads)`` runs after each batch is durable and before
    any of its futures resolve — the crash-injection suite's kill point.
    """

    def __init__(
        self,
        wal: OpLog,
        window_s: float = 0.0,
        max_batch: int = 512,
        on_commit: Optional[Callable[[List[dict]], None]] = None,
    ) -> None:
        self.wal = wal
        self.window_s = window_s
        self.max_batch = max(1, int(max_batch))
        self.on_commit = on_commit
        self.failed: Optional[BaseException] = None
        self.batches = 0
        self.records = 0
        self.largest_batch = 0
        self._pending: List[Tuple[dict, "asyncio.Future"]] = []
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional["asyncio.Task"] = None
        self._last: Optional["asyncio.Future"] = None
        self._closed = False

    async def start(self) -> None:
        self._wake = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(self._run())

    def stage(self, payload: dict) -> "asyncio.Future":
        """Queue one record; the future resolves when it is durable."""
        if self.failed is not None:
            raise DatabaseError(
                f"group committer poisoned by earlier append failure: {self.failed}"
            )
        if self._task is None or self._closed:
            raise DatabaseError("group committer is not running")
        future = asyncio.get_running_loop().create_future()
        self._pending.append((payload, future))
        self._last = future
        self._wake.set()
        return future

    async def drain(self) -> None:
        """Wait until every record staged so far is durable.

        Raises the append failure if the batch containing a staged
        record could not be made durable.
        """
        while self._pending or (self._last is not None and not self._last.done()):
            await asyncio.shield(self._last)

    async def close(self) -> None:
        """Flush whatever is pending, then stop the flusher task."""
        self._closed = True
        if self._wake is not None:
            self._wake.set()
        if self._task is not None:
            await self._task
            self._task = None

    def stats(self) -> dict:
        return {
            "batches": self.batches,
            "batched_records": self.records,
            "largest_batch": self.largest_batch,
            "pending": len(self._pending),
        }

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._pending:
                if self._closed:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            if self.window_s > 0:
                await asyncio.sleep(self.window_s)
            else:
                await asyncio.sleep(0)
            batch = self._pending[: self.max_batch]
            del self._pending[: len(batch)]
            payloads = [payload for payload, _ in batch]
            try:
                if self.wal.sync == SYNC_NONE:
                    # no sync point to amortize: stay on the loop
                    self.wal.append_many(payloads)
                else:
                    await loop.run_in_executor(None, self.wal.append_many, payloads)
            except Exception as error:
                self.failed = error
                failure = DatabaseError(f"group-commit append failed: {error}")
                failure.__cause__ = error
                for _, future in batch + self._pending:
                    if not future.done():
                        future.set_exception(failure)
                self._pending.clear()
                continue  # stay alive so stage()/drain() report the poisoning
            self.batches += 1
            self.records += len(payloads)
            self.largest_batch = max(self.largest_batch, len(payloads))
            if self.on_commit is not None:
                self.on_commit(payloads)
            for _, future in batch:
                if not future.done():
                    future.set_result(True)


def scan(path: Path) -> Tuple[List[dict], int, bool]:
    """Read a log: ``(records, good_bytes, torn_tail_dropped)``.

    ``good_bytes`` is the byte length of the well-formed prefix; when a
    torn final record was detected the caller truncates the file there.
    """
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        return [], 0, False
    records: List[dict] = []
    offset = 0
    torn = False
    while offset < len(blob):
        newline = blob.find(b"\n", offset)
        if newline < 0:
            torn = True  # mid-append crash: no terminator
            break
        line = blob[offset:newline]
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("not an object")
        except ValueError:
            if blob[newline + 1 :].strip():
                raise DatabaseError(
                    f"corrupt op log {path}: unreadable record at byte "
                    f"{offset} with intact records after it"
                ) from None
            torn = True  # torn line that happened to contain a newline byte
            break
        records.append(record)
        offset = newline + 1
    return records, offset, torn


# ---------------------------------------------------------------------------
# op-record codec (the session's replay vocabulary <-> JSON payloads)
#
# A log payload and a wire request share one field layout: ``row`` for
# insert/replace, ``index`` for every index-addressed op, ``set`` for
# update, ``attr``/``value`` for fill, ``rows`` for reset.  Only the verb's
# key differs (``op`` on disk, ``do`` on the wire), so the caller passes
# the verb.
# ---------------------------------------------------------------------------


def encode_op(seq: int, record: tuple, codec: ValueCodec) -> dict:
    """One session op record as a log payload."""
    op = record[0]
    payload: dict = {"seq": seq, "op": op}
    if op == "insert":
        payload["row"] = codec.encode_row(record[1])
    elif op == "delete":
        payload["index"] = record[1]
    elif op == "update":
        payload["index"] = record[1]
        payload["set"] = {
            attr: codec.encode(value) for attr, value in record[2].items()
        }
    elif op == "replace":
        payload["index"] = record[1]
        payload["row"] = codec.encode_row(record[2])
    elif op == "fill":
        payload["index"] = record[1]
        payload["attr"] = record[2]
        payload["value"] = codec.encode(record[3])
    elif op == "reset":
        payload["rows"] = [codec.encode_row(row) for row in record[1]]
    elif op not in _BARE_OPS:
        raise CodecError(f"unknown session op record {record!r}")
    return payload


def decode_op(
    op: Any, payload: Mapping[str, Any], decode: Callable[[Any], Any]
) -> Tuple[Any, ...]:
    """Invert :func:`encode_op`: one log payload or wire request as the
    session op record it describes.

    ``op`` is the verb; ``decode`` maps one cell token to a value (the
    relation codec's ``decode`` for log records; the server adds minting
    of ``{"n": null}`` for requests).  A malformed field raises a coded
    :class:`~repro.errors.OpError`, a malformed cell the decoder's
    :class:`~repro.errors.CodecError`.  Every payload :func:`encode_op`
    writes reads back, so any log the session journals reopens; the
    wire's stricter rules are :func:`decode_request`'s.
    """

    def index() -> int:
        value = payload.get("index")
        if not isinstance(value, int):
            raise OpError("E_BAD_INT", "'index' must be an integer")
        return value

    def row(cells: Any, what: str = "'row'") -> Tuple[Any, ...]:
        if not isinstance(cells, (list, tuple)):
            raise OpError("E_BAD_REQUEST", f"{what} must be an array of cells")
        return tuple(map(decode, cells))

    if op == "insert":
        return (op, row(payload.get("row")))
    if op == "delete":
        return (op, index())
    if op == "update":
        at = index()
        changes = payload.get("set")
        if not isinstance(changes, dict):
            raise OpError("E_BAD_REQUEST", "'set' must be an object of attr: cell")
        return (op, at, {attr: decode(token) for attr, token in changes.items()})
    if op == "replace":
        return (op, index(), row(payload.get("row")))
    if op == "fill":
        at = index()
        attr = payload.get("attr")
        if not isinstance(attr, str):
            raise OpError("E_BAD_REQUEST", "'attr' must be an attribute name")
        return (op, at, attr, decode(payload.get("value")))
    if op == "reset":
        rows = payload.get("rows")
        if not isinstance(rows, list):
            raise OpError("E_BAD_REQUEST", "'rows' must be an array of rows")
        return (op, tuple(row(cells, "each row") for cells in rows))
    if op in _BARE_OPS:
        return (op,)
    raise OpError(
        "E_UNKNOWN_VERB",
        f"unknown mutation verb {op!r}",
        hint=f"mutation verbs: {', '.join(MUTATION_VERBS)}",
    )


def decode_request(
    op: Any, request: Mapping[str, Any], decode: Callable[[Any], Any]
) -> Tuple[Any, ...]:
    """One wire request as its op record: :func:`decode_op`, plus the
    two refusals of the wire's own.

    The session takes a bool index as an int and journals an ``update``
    with no assignments, so a log may hold both; from a client they are
    mistakes.
    """
    record = decode_op(op, request, decode)
    # an index-addressed record carries its index second; no other
    # record has a bool there
    if len(record) > 1 and isinstance(record[1], bool):
        raise OpError("E_BAD_INT", "'index' must be an integer")
    if op == "update" and not record[2]:
        raise OpError(
            "E_BAD_REQUEST", "'set' must be a non-empty object of attr: cell"
        )
    return record


def describe(payload: dict) -> str:
    """A short human label for a log record (error messages, ``db stats``)."""
    return f"#{payload.get('seq', '?')} {payload.get('op', '?')}"
