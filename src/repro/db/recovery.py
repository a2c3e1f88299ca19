"""Replay-based crash recovery: op records back onto a live session.

Recovery is the *same* code path as normal operation — a log record is
decoded into the session's public mutator vocabulary and applied — which
is what keeps the chase semantics canonical under replay: shared nulls
re-share (the codec returns one object per canonical id), forced
substitutions re-derive from the same NS-rule fixpoint, and NOTHING
states re-poison.  Nothing about the maintained partition is stored or
trusted from disk beyond the raw rows and the op stream.
"""

from __future__ import annotations

from typing import List

from ..chase.session import ChaseSession, SessionSnapshot
from ..core.codec import ValueCodec
from ..errors import DatabaseError
from .log import describe


def apply_record(
    session: ChaseSession,
    payload: dict,
    codec: ValueCodec,
    snapshots: List[SessionSnapshot],
) -> None:
    """Apply one decoded log record to ``session``.

    ``snapshots`` is the replayed snapshot stack: ``snapshot``/``rollback``
    records reconstruct the LIFO discipline the managed relation journals.
    """
    op = payload.get("op")
    try:
        if op == "insert":
            session.insert(codec.decode_row(payload["row"]))
        elif op == "delete":
            session.delete(payload["index"])
        elif op == "update":
            session.update(
                payload["index"],
                {
                    attr: codec.decode(token)
                    for attr, token in payload["set"].items()
                },
            )
        elif op == "replace":
            session.replace(payload["index"], codec.decode_row(payload["row"]))
        elif op == "fill":
            session.fill(
                payload["index"], payload["attr"], codec.decode(payload["value"])
            )
        elif op == "reset":
            session.reset([codec.decode_row(row) for row in payload["rows"]])
        elif op == "adopt":
            session.adopt()
        elif op == "snapshot":
            snapshots.append(session.snapshot())
        elif op == "rollback":
            if not snapshots:
                raise DatabaseError("rollback record without a snapshot")
            session.rollback(snapshots.pop())
        elif op == "discard":
            snapshots.clear()
        else:
            raise DatabaseError(f"unknown op {op!r}")
    except DatabaseError:
        raise
    except KeyError as error:
        raise DatabaseError(
            f"malformed log record {describe(payload)}: missing field {error}"
        ) from None
    except Exception as error:
        raise DatabaseError(
            f"replay of log record {describe(payload)} failed: {error}"
        ) from error


def replay(
    session: ChaseSession,
    records: List[dict],
    codec: ValueCodec,
    base_seq: int,
    snapshots: List[SessionSnapshot],
) -> int:
    """Replay the log tail over a checkpoint-restored session.

    Records with ``seq <= base_seq`` are already covered by the checkpoint
    (the checkpoint-written-but-log-not-truncated crash window) and are
    skipped; the remainder must continue the sequence contiguously.
    ``snapshots`` receives the snapshot stack outstanding at crash time —
    the caller hands it to the managed relation so a journalled snapshot
    survives recovery and can still be rolled back (checkpoints never
    absorb an outstanding snapshot, so every live ``snapshot`` record is
    in the replayed tail).  Returns the last applied seq (``base_seq``
    when nothing applied).
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
        apply_record(session, payload, codec, snapshots)
        last = seq
    return last
