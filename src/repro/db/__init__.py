"""Durable multi-relation storage for chase sessions (write-ahead op log,
crash recovery, checkpoints).

The paper's Theorem-4 fixpoint survives the process here: each named
relation of a :class:`Database` is a live
:class:`~repro.chase.session.ChaseSession` whose op stream is journalled
*before* application and replayed on :meth:`Database.open`.  Persisting
the op log (rather than a naive row dump) is what keeps the null-marker
semantics canonical end-to-end — shared nulls, forced substitutions and
NOTHING states all round-trip exactly, because recovery re-derives them
through the same NS-rule engine that produced them.

Module map:

* :mod:`repro.db.database` — :class:`Database` / :class:`ManagedRelation`,
  the public API;
* :mod:`repro.db.log` — the JSONL write-ahead log (append, torn-tail
  scan, op-record codec);
* :mod:`repro.db.storage` — directory layout and atomic file writes;
* :mod:`repro.db.recovery` — replay of log records over a
  checkpoint-restored session.

Canonical null identity (the serialization layer both the log and
checkpoints share) lives one level down, in :mod:`repro.core.codec`.
"""

from .database import Database, ManagedRelation
from .log import (
    SYNC_FLUSH,
    SYNC_FSYNC,
    SYNC_MODES,
    SYNC_NONE,
    GroupCommitter,
    OpLog,
)
from .storage import DirectoryLock

__all__ = [
    "Database",
    "DirectoryLock",
    "GroupCommitter",
    "ManagedRelation",
    "OpLog",
    "SYNC_FLUSH",
    "SYNC_FSYNC",
    "SYNC_MODES",
    "SYNC_NONE",
]
