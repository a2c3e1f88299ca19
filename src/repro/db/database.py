"""``repro.Database``: durable, multi-relation sessions.

The top-level durable API.  A database is a directory of named relations,
each backed by a live :class:`~repro.chase.session.ChaseSession` plus a
write-ahead op log:

* every mutation (insert / delete / update / replace / fill / reset /
  adopt, plus the session's snapshot stack's snapshot / rollback /
  discard), called on the managed relation or on its session alike, is
  **journalled before it is applied** — the session's op-record hook
  fires after validation, the managed relation appends the encoded
  record to ``wal.jsonl``, and only then does the engine mutate;
* :meth:`Database.open` recovers each relation by loading the last
  checkpoint (raw rows + canonical null identity) and replaying the log
  tail through the ordinary mutator vocabulary — so shared nulls, forced
  substitutions and NOTHING states round-trip exactly;
* :meth:`Database.checkpoint` snapshots the raw rows (with canonical null
  ids, so the sharing structure survives) and truncates the log; a crash
  between the checkpoint write and the log truncation is harmless because
  recovery skips records the checkpoint already covers (by ``seq``).

Usage::

    from repro import Database

    with Database.open("/var/lib/fds") as db:
        people = db.create("people", "name zip city", ["zip -> city"])
        people.insert(("Ada", "10001", "New York"))
        people.insert(("Bob", "10001", null()))   # grounded by the chase
        db.checkpoint()

    db = Database.open("/var/lib/fds")            # after any crash
    db["people"].result().relation                # identical fixpoint
"""

from __future__ import annotations

import contextlib
import re
import shutil
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Union

from ..chase.session import ChaseSession
from ..core.codec import (
    ValueCodec,
    fds_from_spec,
    fds_to_spec,
    schema_from_spec,
    schema_to_spec,
)
from ..core.domain import Domain
from ..core.fd import FDInput
from ..core.schema import RelationSchema
from ..errors import DatabaseError
from . import log as oplog
from . import storage
from .log import OpLog, SYNC_FSYNC, SYNC_MODES
from .recovery import replay

_NAME = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")


class ManagedRelation:
    """One named relation of a :class:`Database`: a chase session whose
    every mutation is journalled to a write-ahead op log.

    A managed relation holds its :attr:`session`, with the session's
    ``on_op`` hook pointed at :meth:`_journal`, and forwards to it every
    member it does not define: the mutators, the snapshot stack and the
    reads.  All ten mutation records — the snapshot stack's
    ``snapshot``/``rollback``/``discard`` among them — pass that one
    hook, so an op is journalled whether it is called here or on
    :attr:`session`.  What durability adds: the encoded journal,
    :attr:`seq` and :attr:`checkpoint_seq`, cut-stamped
    :meth:`result`/:meth:`check`, :meth:`checkpoint`, :meth:`close`.
    """

    def __init__(
        self,
        name: str,
        directory: Path,
        session: ChaseSession,
        codec: ValueCodec,
        wal: OpLog,
        seq: int,
        checkpoint_seq: int,
        recovery_info: Optional[dict] = None,
    ) -> None:
        self.session = session
        self.name = name
        self._dir = directory
        self._codec = codec
        self._wal = wal
        self._seq = seq
        self._checkpoint_seq = checkpoint_seq
        #: how the relation came back: {"replayed", "torn_tail_dropped",
        #: "checkpoint_seq", "rows"} — surfaced by ``repro db recover``
        self.recovery_info = recovery_info or {
            "replayed": 0,
            "torn_tail_dropped": False,
            "checkpoint_seq": checkpoint_seq,
            "rows": len(session),
        }
        #: where encoded op records go.  The default appends (and syncs)
        #: each record directly; the serving layer repoints this at a
        #: :class:`~repro.db.log.GroupCommitter` stage so a burst of ops
        #: shares one sync — see :mod:`repro.server.writer`.
        self.journal_sink = wal.append
        session.on_op = self._journal

    def __getattr__(self, name: str) -> Any:
        return getattr(self.session, name)

    def __len__(self) -> int:
        return len(self.session)

    # -- journaling --------------------------------------------------------

    def _journal(self, record: tuple) -> None:
        """The session op-record hook: encode, then hand to the sink.

        Raises (aborting the op before it applies) if the value cannot be
        encoded or the sink rejects the record — write-ahead means no
        record, no op.
        """
        payload = oplog.encode_op(self._seq + 1, record, self._codec)
        self.journal_sink(payload)
        self._seq += 1

    @property
    def wal(self) -> OpLog:
        """The relation's op-log handle (the group committer's target)."""
        return self._wal

    @property
    def seq(self) -> int:
        """Ops journalled over the relation's lifetime."""
        return self._seq

    @property
    def checkpoint_seq(self) -> int:
        """The seq the on-disk checkpoint covers."""
        return self._checkpoint_seq

    def encode_value(self, value: Any) -> Any:
        """Encode one cell in the relation's canonical wire/log form."""
        return self._codec.encode(value)

    def decode_value(self, token: Any) -> Any:
        """Decode one wire/log cell token (shared nulls keep identity)."""
        return self._codec.decode(token)

    def knows_null(self, canonical: str) -> bool:
        """Has this relation's codec scope ever named this null id?
        (Static check only — decoding stays lenient.)"""
        return self._codec.knows(canonical)

    # -- cut-stamped reads -------------------------------------------------

    def result(self):
        """The maintained fixpoint, stamped with the relation's journal
        cut (``as_of`` = ops journalled so far) per the unified answer
        schema (:mod:`repro.api`)."""
        return self.session.result().at(self.seq)

    def check(self, *args, **kwargs):
        """TEST-FDs, stamped with the relation's journal cut."""
        return self.session.check(*args, **kwargs).at(self.seq)

    def stats(self) -> Dict[str, int]:
        """Session op-outcome counters plus the durable ones: ``rows``,
        ``seq`` (ops journalled ever), ``checkpoint_seq`` (ops covered by
        the checkpoint) and ``wal_ops`` (log tail a crash would replay)."""
        merged = self.session.stats()
        merged.update(
            rows=len(self.session),
            seq=self._seq,
            checkpoint_seq=self._checkpoint_seq,
            wal_ops=self._seq - self._checkpoint_seq,
        )
        return merged

    def verify(self) -> bool:
        """The recovery acceptance check: maintained fixpoint ==
        from-scratch chase of the raw rows, field-identically."""
        return self.session.verify()

    def audit(self) -> None:
        """One sanitizer sweep over this relation, explicitly.

        Runs :func:`repro.analysis.sanitize.audit_relation` — the session
        audit plus the durable bookkeeping (``checkpoint_seq <= seq``, WAL
        record/seq contiguity in direct-append mode) — regardless of the
        ``REPRO_SANITIZE`` flag.  Raises
        :class:`~repro.errors.SanitizerError` on the first violation.
        """
        from ..analysis.sanitize import audit_relation

        audit_relation(self)

    # -- checkpointing -----------------------------------------------------

    def checkpoint(self) -> int:
        """Snapshot raw rows + null identity; truncate the log.

        Returns the number of log records the checkpoint absorbed.  The
        write order (checkpoint file atomically replaced *before* the log
        truncates) makes every crash window safe: old checkpoint + full
        log, or new checkpoint + stale log (skipped by seq), or new
        checkpoint + empty log.

        Refused while a snapshot is outstanding on the session's stack
        (:attr:`~repro.chase.session.ChaseSession.snapshots`): a checkpoint
        records only the *current* state, so absorbing the snapshot's
        record would leave its later ``rollback`` nothing to restore —
        recovery of such a log could never reproduce the pre-snapshot
        state.  Roll back or discard the snapshots first.

        When :attr:`journal_sink` points at a group committer, the owner
        must drain staged records before checkpointing (the server's
        writer does): truncating the log under an in-flight batch append
        would interleave the two on one file handle.
        """
        if self.snapshots:
            raise DatabaseError(
                f"{self.name}: checkpoint with {len(self.snapshots)} "
                "outstanding snapshot(s); roll back (or discard) first — "
                "a checkpoint cannot absorb a snapshot a later rollback "
                "still needs"
            )
        codec = self._codec
        payload = {
            "format": storage.FORMAT,
            "seq": self._seq,
            "rows": [codec.encode_row(row.values) for row in self.session.rows],
            "next_null": codec.null_counter,
        }
        fsync = self._wal.sync == SYNC_FSYNC
        storage.write_json_atomic(
            self._dir / storage.CHECKPOINT_NAME, payload, fsync=fsync
        )
        absorbed = self._seq - self._checkpoint_seq
        self._wal.truncate()
        self._checkpoint_seq = self._seq
        from ..analysis import sanitize  # local: keeps the layer import-light

        if sanitize.enabled():
            sanitize.audit_relation(self)
        return absorbed

    def close(self) -> None:
        self._wal.close()
        self.session.on_op = None


class Database:
    """A directory of durable, independently-logged chase relations.

    Construct through :meth:`open` (which creates the directory on first
    use and performs crash recovery on every later one).  Context-manager
    protocol closes the log handles.
    """

    def __init__(
        self,
        path: Union[str, Path],
        sync: str = SYNC_FSYNC,
        exclusive: bool = False,
    ) -> None:
        if sync not in SYNC_MODES:
            raise DatabaseError(f"unknown sync mode {sync!r}; use {SYNC_MODES}")
        self.path = Path(path)
        self.sync = sync
        #: hold the directory lock for the whole lifetime instead of just
        #: the init/catalog windows — the single-owner mode ``repro serve``
        #: runs in, so a second process cannot even open the directory
        self.exclusive = exclusive
        self._lock = storage.DirectoryLock(self.path)
        self._relations: Dict[str, ManagedRelation] = {}
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        path: Union[str, Path],
        sync: str = SYNC_FSYNC,
        create: bool = True,
        exclusive: bool = False,
    ) -> "Database":
        """Open and recover a database directory.

        With ``create=True`` (the default) a missing directory is
        initialized empty; with ``create=False`` it is an error instead —
        the right mode for read/inspect flows, where silently materializing
        a fresh database at a mistyped path would masquerade as success.

        Initialization and recovery run under an advisory directory lock
        (``<path>/.lock``), so two processes racing ``create=True`` on one
        directory cannot both initialize it.  With ``exclusive=True`` the
        lock is kept for the handle's lifetime (released by
        :meth:`close`); otherwise it is released once loading completes.
        """
        db = cls(path, sync, exclusive=exclusive)
        db._load(create)
        return db

    def _load(self, create: bool = True) -> None:
        root = self.path
        if root.exists() and not root.is_dir():
            raise DatabaseError(f"{root} exists and is not a directory")
        manifest_path = root / storage.MANIFEST_NAME
        if not create and not manifest_path.exists():
            raise DatabaseError(
                f"no database at {root} (no {storage.MANIFEST_NAME}); "
                "create one with Database.open(..., create=True) / repro db init"
            )
        # the lock file needs the root to exist; everything else (including
        # the manifest decision, so two racing creates serialize on it)
        # happens under the lock
        root.mkdir(parents=True, exist_ok=True)
        self._lock.acquire()
        try:
            (root / storage.RELATIONS_DIR).mkdir(parents=True, exist_ok=True)
            if manifest_path.exists():
                manifest = storage.read_json(manifest_path, "manifest")
                storage.check_format(manifest, "manifest")
                names = manifest.get("relations")
                if not isinstance(names, list):
                    raise DatabaseError(
                        f"manifest {manifest_path} lists no relations"
                    )
            else:
                names = []
                self._write_manifest(names)
            for name in names:
                self._relations[name] = self._recover(name)
        except BaseException:
            self._lock.release()
            raise
        if not self.exclusive:
            self._lock.release()

    def _write_manifest(self, names: List[str]) -> None:
        storage.write_json_atomic(
            self.path / storage.MANIFEST_NAME,
            {"format": storage.FORMAT, "relations": sorted(names)},
            fsync=self.sync == SYNC_FSYNC,
        )

    def _recover(self, name: str) -> ManagedRelation:
        directory = storage.relation_dir(self.path, name)
        spec = storage.read_json(directory / storage.SCHEMA_NAME, f"schema of {name}")
        storage.check_format(spec, f"schema of {name}")
        schema = schema_from_spec(spec["schema"])
        fds = fds_from_spec(spec.get("fds", []))

        codec = ValueCodec()
        rows: List[List[Any]] = []
        base_seq = 0
        checkpoint_path = directory / storage.CHECKPOINT_NAME
        if checkpoint_path.exists():
            checkpoint = storage.read_json(checkpoint_path, f"checkpoint of {name}")
            storage.check_format(checkpoint, f"checkpoint of {name}")
            try:
                rows = [codec.decode_row(row) for row in checkpoint["rows"]]
                base_seq = int(checkpoint["seq"])
                codec.seed_counter(int(checkpoint["next_null"]))
            except (KeyError, TypeError, ValueError) as error:
                raise DatabaseError(
                    f"malformed checkpoint for {name}: {error}"
                ) from None

        session = ChaseSession(schema, fds, rows=rows)
        wal_path = directory / storage.WAL_NAME
        records, good_bytes, torn = oplog.scan(wal_path)
        if torn:
            # the torn record's op never applied in memory either
            # (journal-then-apply), so dropping it restores exactly the
            # state as of the last completed op
            with open(wal_path, "r+b") as handle:
                handle.truncate(good_bytes)
        # a snapshot outstanding at crash time is back on the session's
        # stack, so it can still be rolled back
        seq = replay(session, records, codec, base_seq)
        info = {
            "replayed": seq - base_seq,
            "torn_tail_dropped": torn,
            "checkpoint_seq": base_seq,
            "rows": len(session),
        }
        wal = OpLog(wal_path, sync=self.sync)
        managed = ManagedRelation(
            name, directory, session, codec, wal, seq, base_seq, info
        )
        from ..analysis import sanitize  # local: keeps the layer import-light

        if sanitize.enabled():
            sanitize.audit_relation(managed)
        return managed

    def close(self) -> None:
        """Flush and close every relation's log handle (idempotent)."""
        for relation in self._relations.values():
            relation.close()
        self._lock.release()
        self._closed = True

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the catalog -------------------------------------------------------

    def _catalog_locked(self):
        """Context manager holding the directory lock for one catalog
        mutation (no-op when :attr:`exclusive` already holds it)."""
        if self._lock.held:
            return contextlib.nullcontext()

        @contextlib.contextmanager
        def _scope():
            self._lock.acquire()
            try:
                yield
            finally:
                self._lock.release()

        return _scope()

    def _manifest_names_on_disk(self) -> List[str]:
        """The relation names the on-disk manifest lists right now —
        another handle may have grown the catalog since we loaded."""
        manifest_path = self.path / storage.MANIFEST_NAME
        if not manifest_path.exists():
            return []
        manifest = storage.read_json(manifest_path, "manifest")
        names = manifest.get("relations")
        return [n for n in names if isinstance(n, str)] if isinstance(names, list) else []

    def create(
        self,
        name: str,
        attributes: Union[RelationSchema, str, Sequence[str]],
        fds: Iterable[FDInput] = (),
        domains: Optional[Mapping[str, Domain]] = None,
    ) -> ManagedRelation:
        """Register a new empty relation and return its managed handle."""
        if not _NAME.match(name):
            raise DatabaseError(
                f"bad relation name {name!r}: use letters, digits, '_', "
                "'.', '-' (not starting with '.' or '-')"
            )
        if name in self._relations:
            raise DatabaseError(f"relation {name!r} already exists")
        if isinstance(attributes, RelationSchema):
            schema = attributes
        else:
            schema = RelationSchema(name, attributes, domains=domains)
        session = ChaseSession(schema, fds)
        with self._catalog_locked():
            # re-read the manifest under the lock: another handle may have
            # created relations since we loaded, and a duplicate — or a
            # manifest write built only from *our* in-memory catalog —
            # would silently orphan theirs
            on_disk = self._manifest_names_on_disk()
            if name in on_disk:
                raise DatabaseError(
                    f"relation {name!r} already exists (created by another "
                    "handle of this database)"
                )
            directory = storage.relation_dir(self.path, name)
            directory.mkdir(parents=True, exist_ok=True)
            # a crashed drop() may have left this directory behind with stale
            # files (it was removed from the manifest first, so open() ignored
            # it) — a fresh relation must not inherit them: the old checkpoint
            # would resurrect dropped rows and its seq would swallow new ops
            for stale in (storage.WAL_NAME, storage.CHECKPOINT_NAME):
                (directory / stale).unlink(missing_ok=True)
            fsync = self.sync == SYNC_FSYNC
            storage.write_json_atomic(
                directory / storage.SCHEMA_NAME,
                {
                    "format": storage.FORMAT,
                    "schema": schema_to_spec(schema),
                    "fds": fds_to_spec(session.fds),
                },
                fsync=fsync,
            )
            wal = OpLog(directory / storage.WAL_NAME, sync=self.sync)
            relation = ManagedRelation(
                name, directory, session, ValueCodec(), wal, seq=0, checkpoint_seq=0
            )
            self._relations[name] = relation
            # manifest last: a crash before this line leaves an orphan
            # directory that open() ignores, never a listed-but-missing one
            self._write_manifest(sorted(set(on_disk) | set(self._relations)))
        return relation

    def relation(self, name: str) -> ManagedRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise DatabaseError(
                f"no relation {name!r} in {self.path} "
                f"(have: {', '.join(sorted(self._relations)) or 'none'})"
            ) from None

    def __getitem__(self, name: str) -> ManagedRelation:
        return self.relation(name)

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[ManagedRelation]:
        return iter(self._relations.values())

    def __len__(self) -> int:
        return len(self._relations)

    def names(self) -> List[str]:
        return sorted(self._relations)

    def drop(self, name: str) -> None:
        """Remove a relation and its files."""
        relation = self.relation(name)
        relation.close()
        del self._relations[name]
        with self._catalog_locked():
            names = set(self._manifest_names_on_disk()) | set(self._relations)
            names.discard(name)
            self._write_manifest(sorted(names))
        shutil.rmtree(storage.relation_dir(self.path, name), ignore_errors=True)

    # -- whole-database operations -----------------------------------------

    def checkpoint(self, name: Optional[str] = None) -> Dict[str, int]:
        """Checkpoint one relation (or all); returns ops absorbed per name."""
        targets = [self.relation(name)] if name else list(self._relations.values())
        return {relation.name: relation.checkpoint() for relation in targets}

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {name: rel.stats() for name, rel in sorted(self._relations.items())}

    def audit(self) -> None:
        """Sanitizer sweep over every open relation (explicit, un-gated).
        Raises :class:`~repro.errors.SanitizerError` on the first
        violation; see :meth:`ManagedRelation.audit`."""
        for relation in self._relations.values():
            relation.audit()
