"""``ReproServer``: many clients, one writer per relation.

One process, one event loop::

    clients ──▶ protocol (JSON lines) ──▶ ReproServer.handle
       mutations ─▶ RelationWriter queue ─▶ the relation's session
                        └─ op records ─▶ GroupCommitter ─▶ one append+fsync per burst
       reads, queries ─▶ a ReadView per relation at its cut: the writer's
                shared one (fixpoint + stats, built once per cut), read on
                the loop while the writer is idle; else a private one over
                a lease, chased and read in an executor thread

The server opens its database **exclusively** (the directory lock is
held for the whole run): a served directory has exactly one mutator
process, and every other access goes through the protocol.

Durability contract, end to end: a mutation response with ``ok: true``
means the op's record is on disk (synced per the ``sync`` mode) — a
crash at any instant recovers a state containing every acked op and no
half-applied batch (see ``tests/server/test_group_commit_crash.py``).

Read contract: responses carry ``as_of`` — the journal seq of the
consistent cut they were computed against, always an op boundary, so
every read equals the state after some serial prefix of the acked op
stream.  Readers never block the writer: a read with mutations queued
chases a lease's frozen rows in an executor thread, off the loop.

In-process use (no sockets) is first-class: construct, ``await
start()``, then ``await handle({...})`` — the concurrency and crash
suites drive the server this way.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence
from typing import TypeVar, Union

from .. import testfd
from ..api import TAG_CERTAIN, WIRE_VERSION, Answer, ResultSet
from ..core.values import is_null
from ..db.database import Database
from ..db.log import SYNC_FSYNC
from ..errors import OpError, ReproError
from ..explain import explain_chase
from ..query import parse_query, relation_names
from ..query.evaluate import Evaluator
from ..query.optimize import RelationStats
from . import protocol
from .writer import ReadView, RelationWriter

_T = TypeVar("_T")


def _ok(request_id: Any, **fields: Any) -> dict:
    return {"id": request_id, "ok": True, **fields}


def _err(request_id: Any, message: str) -> dict:
    return {"id": request_id, "ok": False, "error": message}


class _Refused(ReproError):
    """A batch's admission step found error-severity diagnostics."""

    def __init__(self, diagnostics: list) -> None:
        super().__init__("batch refused by lint")
        self.diagnostics = diagnostics


class _RawStats(Mapping[str, RelationStats]):
    """Relation name → raw-row stats, built on first lookup, so the plan
    linter reads only the relations a query scans.  A shared read takes
    them from the relation's read view at its current cut (built once
    per cut); an isolated read builds its own and leaves the view alone."""

    def __init__(self, writers: Dict[str, RelationWriter], shared: bool) -> None:
        self._writers = writers
        self._shared = shared
        self._looked_up: Dict[str, RelationStats] = {}

    def __getitem__(self, name: str) -> RelationStats:
        stats = self._looked_up.get(name)
        if stats is None:
            writer = self._writers[name]
            view = (
                writer.view() if self._shared else ReadView(writer.relation.session)
            )
            stats = self._looked_up[name] = view.raw_stats
        return stats

    def __iter__(self) -> Iterator[str]:
        return iter(self._writers)

    def __len__(self) -> int:
        return len(self._writers)


class ReproServer:
    """The serving front end over one :class:`~repro.db.Database`."""

    def __init__(
        self,
        path: Union[str, Path],
        sync: str = SYNC_FSYNC,
        create: bool = False,
        window_s: float = 0.0,
        max_batch: int = 512,
        checkpoint_wal_ops: Optional[int] = None,
        checkpoint_interval_s: Optional[float] = None,
        on_commit: Optional[Callable[[list], None]] = None,
    ) -> None:
        self.path = Path(path)
        self.sync = sync
        self.create = create
        self.window_s = window_s
        self.max_batch = max_batch
        self.checkpoint_wal_ops = checkpoint_wal_ops
        self.checkpoint_interval_s = checkpoint_interval_s
        self.on_commit = on_commit
        self.db: Optional[Database] = None
        self._writers: Dict[str, RelationWriter] = {}
        self._catalog_lock: Optional["asyncio.Lock"] = None
        self._tcp: Optional[protocol.Listener] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Open (and recover) the database exclusively; start writers."""
        self.db = Database.open(
            self.path,
            sync=self.sync,
            create=self.create,
            exclusive=True,
        )
        self._catalog_lock = asyncio.Lock()
        for relation in self.db:
            await self._start_writer(relation.name)

    async def stop(self) -> None:
        """Close the TCP front end (every request already read is
        answered, then each connection closes), drain every writer
        (queued ops apply and become durable), close the database."""
        if self._tcp is not None:
            await self._tcp.close()
            self._tcp = None
        for writer in self._writers.values():
            await writer.stop()
        self._writers.clear()
        if self.db is not None:
            self.db.close()
            self.db = None

    async def listen(self, host: str = "127.0.0.1", port: int = 0) -> tuple:
        """Start the TCP front end; returns the bound ``(host, port)``."""
        self._tcp = await protocol.run_tcp(self, host, port)
        return self._tcp.address

    def _database(self) -> Database:
        """The open database, or a refusal — narrows ``Optional`` for
        every verb handler that runs only while the server is up."""
        if self.db is None:
            raise ReproError("server is not running")
        return self.db

    async def _start_writer(self, name: str) -> RelationWriter:
        writer = RelationWriter(
            self._database().relation(name),
            window_s=self.window_s,
            max_batch=self.max_batch,
            checkpoint_wal_ops=self.checkpoint_wal_ops,
            checkpoint_interval_s=self.checkpoint_interval_s,
            on_commit=self.on_commit,
        )
        await writer.start()
        self._writers[name] = writer
        return writer

    # -- dispatch ----------------------------------------------------------

    async def handle(self, request: Any) -> dict:
        """Serve one request object; always returns a response object."""
        request_id = request.get("id") if isinstance(request, dict) else None
        try:
            return await self._dispatch(request, request_id)
        except asyncio.CancelledError:
            raise
        except Exception as error:
            return _err(request_id, f"{type(error).__name__}: {error}")

    async def _dispatch(self, request: Any, request_id: Any) -> dict:
        db = self._database()
        if not isinstance(request, dict):
            raise ReproError("request must be a JSON object")
        verb = request.get("do")
        if verb == "ping":
            return _ok(request_id, pong=True)
        if verb == "relations":
            return _ok(request_id, relations=db.names())
        if verb == "create":
            return await self._create(request, request_id)
        if verb == protocol.QUERY_VERB:
            # database-scoped: may lease several relations at once
            return await self._query(request, request_id)
        name = request.get("rel")
        if not isinstance(name, str):
            raise ReproError(f"verb {verb!r} needs a relation name in 'rel'")
        relation = db.relation(name)
        writer = self._writers[name]
        if verb in protocol.READ_VERBS:
            return await self._read(relation, writer, verb, request, request_id)
        if verb == "checkpoint":
            absorbed = await writer.checkpoint()
            return _ok(request_id, absorbed=absorbed, seq=relation.seq)
        if verb == "batch":
            return await self._batch(relation, writer, request, request_id)
        if verb in protocol.MUTATION_VERBS:
            apply_fn = protocol.mutation(relation, verb, request)
            fields = await writer.submit(apply_fn)
            return _ok(request_id, **fields)
        raise ReproError(f"unknown verb {verb!r}")

    async def _batch(
        self, relation, writer: RelationWriter, request: dict, request_id: Any
    ) -> dict:
        """Lint-gated contiguous application of several mutation ops.

        The batch is decided in the writer's turn: its admission step
        (:func:`protocol.lint_batch`) dry-runs the ops on the writer's
        live session once every op queued ahead of the batch has
        applied, so lint sees exactly the state the ops will meet.  A
        batch with any error-severity finding is refused whole: no op
        runs and no WAL byte is written.  An admitted batch applies
        contiguously, with no other client's op in between, each op
        decoded in the writer's turn.  Warnings (e.g. a provable FD
        conflict, which executes but poisons) ride along in the response.
        """
        ops = request.get("ops")
        if not isinstance(ops, list) or not ops:
            raise ReproError("'batch' needs 'ops' (a non-empty array of ops)")
        warnings: list = []

        def admit() -> None:
            diagnostics = protocol.lint_batch(relation, ops)
            if any(d.severity == "error" for d in diagnostics):
                raise _Refused(diagnostics)
            warnings.extend(diagnostics)

        def step(op: dict) -> Callable[[], Dict[str, Any]]:
            return lambda: protocol.mutation(relation, op["do"], op)()

        try:
            outcomes = await writer.submit_many([admit, *map(step, ops)])
        except _Refused as refusal:
            errors = sum(1 for d in refusal.diagnostics if d.severity == "error")
            return {
                "id": request_id,
                "ok": False,
                "error": f"batch refused by lint: {errors} error(s)",
                "diagnostics": [d.to_payload() for d in refusal.diagnostics],
            }
        fields: Dict[str, Any] = {"results": outcomes}
        if warnings:
            fields["diagnostics"] = [d.to_payload() for d in warnings]
        return _ok(request_id, **fields)

    async def _create(self, request: dict, request_id: Any) -> dict:
        name = request.get("name")
        if not isinstance(name, str):
            raise ReproError("'create' needs a relation 'name'")
        attrs = request.get("attrs")
        if isinstance(attrs, str):
            attrs = attrs.split()
        if not isinstance(attrs, list) or not attrs:
            raise ReproError("'create' needs 'attrs' (list or space-joined string)")
        fds = request.get("fds", [])
        if isinstance(fds, str):
            fds = [clause for clause in fds.split(";") if clause.strip()]
        if self._catalog_lock is None:
            raise ReproError("server is not running")
        async with self._catalog_lock:
            self._database().create(name, attrs, fds)
            await self._start_writer(name)
        return _ok(request_id, created=name, attrs=list(attrs))

    # -- the read path -----------------------------------------------------

    async def _at_cut(
        self,
        names: Sequence[str],
        isolated: bool,
        read: Callable[[Dict[str, ReadView], bool], _T],
    ) -> _T:
        """``read(views, live)`` over one :class:`ReadView` per relation in
        ``names`` at its current cut: the read path's one live-or-detached
        choice.

        While every writer is idle and the request is not ``isolated``,
        ``read`` runs here, on the loop, over the writers' shared views.
        Otherwise (a live read would stall queued mutations) it runs in
        an executor thread over private views of leases taken now, each
        chasing its lease's frozen rows; the writers keep running.  The
        caller encodes what ``read`` returns back on the loop: codec
        registries belong to the loop.
        """
        writers = {name: self._writers[name] for name in names}
        if not isolated and not any(w.pending() for w in writers.values()):
            return read({name: w.view() for name, w in writers.items()}, True)
        leases = {name: writer.lease() for name, writer in writers.items()}

        def detached() -> _T:
            views = {
                name: ReadView(lease.instance(True))
                for name, lease in leases.items()
            }
            return read(views, False)

        return await asyncio.get_running_loop().run_in_executor(None, detached)

    async def _read(
        self, relation, writer: RelationWriter, verb, request: dict, request_id
    ) -> dict:
        if verb == "stats":
            # counters, not relation state: no cut needed
            merged = relation.stats()
            merged.update(writer.stats())
            return _ok(request_id, stats=merged)
        # the journal seq now: a snapshot or discard record moves it
        # without moving the session's cut, so no view caches it
        as_of = relation.seq
        if verb == "rows":
            # the raw rows as they stand: no chase, no lease, no view
            rows = [
                [relation.encode_value(value) for value in row.values]
                for row in relation.session.rows
            ]
            return _ok(
                request_id,
                v=WIRE_VERSION,
                tag=TAG_CERTAIN,
                attrs=list(relation.session.schema.attributes),
                rows=rows,
                as_of=as_of,
                live=True,
            )
        # check's arguments, read here on the loop, before any lease
        fds = request.get("fds")
        if isinstance(fds, str):
            fds = [clause for clause in fds.split(";") if clause.strip()]
        elif fds is None:
            fds = list(relation.session.fds)
        elif not (isinstance(fds, list) and all(isinstance(f, str) for f in fds)):
            raise OpError(
                "E_BAD_REQUEST", "'fds' must be a string or a list of strings"
            )
        convention = request.get("convention", "weak")
        name = relation.name
        answer = await self._at_cut(
            [name],
            bool(request.get("isolated")),
            lambda views, live: self._answer(
                views[name], verb, fds, convention, as_of, live
            ),
        )
        payload = answer.to_payload(encode=relation.encode_value)
        if verb == "check":
            # the one legacy top-level field left (meta carries it too):
            # the benchmark's churn checker reads it
            payload["satisfied"] = answer.meta["satisfied"]
            if "witness" in answer.meta:
                payload["witness"] = answer.meta["witness"]
        return _ok(request_id, **payload)

    @staticmethod
    def _answer(
        view: ReadView, verb: str, fds, convention, as_of: int, live: bool
    ) -> Answer:
        """One read verb's answer over ``view``, in the unified answer
        schema (:mod:`repro.api`)."""
        if verb == "result":
            return view.result.at(as_of, live=live).answer()
        if verb == "check":
            # looked up per call, so tracing that wraps check_fds sees it
            outcome = testfd.check_fds(view.relation, fds, convention=convention)
            return testfd.CheckAnswer.wrap(outcome, convention, as_of, live).answer()
        if verb == "has_nothing":
            meta: Dict[str, Any] = {"has_nothing": view.has_nothing}
        elif verb == "explain":
            meta = {"explain": explain_chase(view.result)}
        else:  # pragma: no cover
            raise ReproError(f"unknown read verb {verb!r}")
        return Answer(TAG_CERTAIN, (), (), as_of=as_of, live=live, meta=meta)

    # -- the query verb ----------------------------------------------------

    async def _query(self, request: dict, request_id: Any) -> dict:
        """Evaluate a relational-algebra query at one consistent cut.

        Every relation the query scans is read at its cut, all in one
        turn of the loop, before anything is evaluated, so the answer
        reflects one serial prefix per relation (``as_of`` maps each
        scanned relation to its cut seq; a scalar when only one relation
        is scanned).  The read contract is the single-relation path's
        (:meth:`_at_cut`): a live answer from the shared views while
        every writer is idle; otherwise an evaluation over private views
        in an executor thread — however long the grounding enumeration
        takes, the writers never wait on it.

        The plan linter runs before any lease is taken: refusal-grade
        findings (least-mode grounding blow-up, statically unsatisfiable
        tree) reject the request outright, warnings ride along in the
        success payload, and ``explain: true`` returns the plan text —
        lease-free — instead of evaluating.
        """
        from ..analysis import lint_query_request  # local: keeps startup light

        db = self._database()
        catalog = {
            name: db.relation(name).session.schema for name in db.names()
        }
        # the linter reads the raw rows' stats of the relations the query
        # scans (each relation's view at its current cut; no lease, no
        # chase); it runs *before any lease is taken*, so a doomed read
        # (least-mode grounding blow-up, statically unsatisfiable tree)
        # is refused without ever holding up group commit
        isolated = bool(request.get("isolated"))
        raw_stats = _RawStats(self._writers, shared=not isolated)
        fds = {
            name: tuple(db.relation(name).session.fds)
            for name in db.names()
        }
        diagnostics = lint_query_request(
            catalog, request, stats=raw_stats, fds=fds
        )
        if any(d.severity == "error" for d in diagnostics):
            return {
                "id": request_id,
                "ok": False,
                "error": f"query refused by lint: "
                f"{sum(1 for d in diagnostics if d.severity == 'error')} "
                "error(s)",
                "diagnostics": [d.to_payload() for d in diagnostics],
            }
        text = request["q"]
        mode = request.get("mode", "least")
        node = parse_query(text)
        if request.get("explain"):
            # plan-only: analyzed over the raw stats of the relations the
            # query scans, lease-free and without copying any relation
            # (looked up per call, as the plan linter does)
            from ..query.optimize import optimize_tree, render_plan

            plan = optimize_tree(node, catalog, raw_stats, fds, mode)
            payload: Dict[str, Any] = {"plan": render_plan(plan)}
            if diagnostics:
                payload["diagnostics"] = [d.to_payload() for d in diagnostics]
            return _ok(request_id, **payload)
        names = relation_names(node)
        known = [name for name in names if name in db]
        cuts = {name: db.relation(name).seq for name in known}
        as_of: Any = cuts[known[0]] if len(names) == 1 and known else cuts

        def evaluate(views: Dict[str, ReadView], live: bool) -> ResultSet:
            evaluator = Evaluator(
                {name: view.relation for name, view in views.items()},
                fds=fds,
                stats={name: view.stats for name, view in views.items()},
            )
            return evaluator.run(node, mode=mode, as_of=as_of, live=live)

        result = await self._at_cut(known, isolated, evaluate)
        # back on the loop: enrich provenance with durable null ids and
        # encode each null with the codec of the relation it came from;
        # codec ids are per relation, so a query over several relations
        # qualifies each token by its origin (``{"n": "s/n0"}``), as
        # ``as_of`` does — distinct unknowns never share a token
        qualify = isinstance(as_of, dict)
        provenance: Dict[str, dict] = {}
        for answer in (result.certain, result.maybe):
            provenance.update(answer.provenance)
        null_codecs: Dict[str, Any] = {}
        for answer in (result.certain, result.maybe):
            for row in answer.rows:
                for value in row:
                    if not is_null(value):
                        continue
                    record = provenance.get(value.label)
                    origin = record.get("relation") if record else None
                    if origin is None:
                        continue
                    token = db.relation(origin).encode_value(value)
                    if isinstance(token, dict) and "n" in token:
                        record["id"] = token["n"]
                        if qualify:
                            token = {"n": f"{origin}/{token['n']}"}
                        null_codecs[value.label] = token

        def encode(value: Any) -> Any:
            if is_null(value):
                return null_codecs.get(value.label, {"n": value.label})
            return value

        payload = result.to_payload(encode)
        if diagnostics:
            # warning-grade findings ride along with the answer
            payload["diagnostics"] = [d.to_payload() for d in diagnostics]
        return _ok(request_id, **payload)
