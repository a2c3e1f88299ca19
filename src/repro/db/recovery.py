"""Replay-based crash recovery: op records back onto a live session.

Recovery is the *same* code path as normal operation — a log record is
decoded by :func:`~repro.db.log.decode_op` into the session's op record
and applied by :func:`~repro.opschema.apply_op` — which is what keeps
the chase semantics canonical under replay: shared nulls re-share (the
codec returns one object per canonical id), forced substitutions
re-derive from the same NS-rule fixpoint, and NOTHING states re-poison.
The ``snapshot``/``rollback``/``discard`` records rebuild the session's
own snapshot stack.  Nothing about the maintained partition is stored or
trusted from disk beyond the raw rows and the op stream.
"""

from __future__ import annotations

from typing import List

from ..chase.session import ChaseSession
from ..core.codec import ValueCodec
from ..errors import DatabaseError
from ..opschema import apply_op
from .log import decode_op, describe


def apply_record(session: ChaseSession, payload: dict, codec: ValueCodec) -> None:
    """Apply one log record to ``session``."""
    try:
        apply_op(session, decode_op(payload.get("op"), payload, codec.decode))
    except Exception as error:
        raise DatabaseError(
            f"replay of log record {describe(payload)} failed: {error}"
        ) from error


def replay(
    session: ChaseSession,
    records: List[dict],
    codec: ValueCodec,
    base_seq: int,
) -> int:
    """Replay the log tail over a checkpoint-restored session.

    Records with ``seq <= base_seq`` are already covered by the checkpoint
    (the checkpoint-written-but-log-not-truncated crash window) and are
    skipped; the remainder must continue the sequence contiguously.  A
    snapshot outstanding at crash time is back on the session's stack
    afterwards, so it can still be rolled back (checkpoints never absorb
    an outstanding snapshot, so every live ``snapshot`` record is in the
    replayed tail).  Returns the last applied seq (``base_seq`` when
    nothing applied).
    """
    last = base_seq
    for payload in records:
        seq = payload.get("seq")
        if not isinstance(seq, int):
            raise DatabaseError(f"log record {payload!r} has no integer seq")
        if seq <= base_seq:
            continue
        if seq != last + 1:
            raise DatabaseError(
                f"op log gap: expected seq {last + 1}, found {seq}"
            )
        apply_record(session, payload, codec)
        last = seq
    return last
