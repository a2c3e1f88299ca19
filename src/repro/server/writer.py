"""Per-relation writer task: one mutation stream, group-committed.

Every mutation of a served relation funnels through one
:class:`RelationWriter` on the event loop, which gives the serving layer
its ordering and durability story in one place:

* arrival order is apply order is journal order (``seq``) is ack order
  *within a batch's resolution* — there is exactly one mutator, so the
  session's single-caller invariants hold unmodified under concurrency;
* the relation's :attr:`~repro.db.database.ManagedRelation.journal_sink`
  is repointed at a :class:`~repro.db.log.GroupCommitter` stage while the
  writer runs, so a burst of client ops shares one WAL append + fsync;
* each client's future resolves only after the batch holding its op
  record is durable (validation errors resolve immediately — nothing was
  journalled, nothing applied);
* auto-checkpoints fire between bursts, by WAL-tail size
  (``checkpoint_wal_ops``) or wall clock (``checkpoint_interval_s``),
  after draining the committer so log truncation can never interleave
  with an in-flight batch append.

If a batch append fails, the committer poisons itself and the writer
refuses further ops: the in-memory session is ahead of a log that cannot
be extended contiguously, so the only honest continuation is a restart
(recovery then serves exactly the durable prefix).
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, List, Optional, Tuple

from ..chase.session import ChaseSession, ReadLease, ResultAnswer
from ..core.relation import Relation
from ..db.database import ManagedRelation
from ..db.log import GroupCommitter
from ..errors import DatabaseError
from ..query import optimize

#: queue sentinel asking the writer to stop after the current burst
_STOP = object()

#: one writer-queue item: an op closure (or a control marker — ``_STOP``,
#: ``_Checkpoint``, a ``_Batch``) plus the future that acks it
_QueueItem = Tuple[Any, Optional["asyncio.Future[Any]"]]


class _Checkpoint:
    """Queue marker for an explicit, writer-serialized checkpoint."""


class _Batch:
    """Queue marker bundling an admission step and several op closures
    into ONE queue item.

    The writer runs the admission step in its own turn, when every op
    queued ahead of the bundle has applied: the step sees exactly the
    state the ops will meet.  If it raises, the bundle is refused whole
    and no op runs; otherwise the ops apply contiguously, with no op
    from another client in between.
    """

    __slots__ = ("admit", "apply_fns")

    def __init__(
        self, admit: Callable[[], Any], apply_fns: List[Callable[[], Any]]
    ) -> None:
        self.admit = admit
        self.apply_fns = apply_fns


class ReadView:
    """One relation's read state at one cut, each part built on first use.

    * :attr:`result` — the maintained fixpoint, Theorem 4's unique
      minimally incomplete instance
      (:meth:`~repro.chase.session.ChaseSession.result`), which each
      read stamps with its own ``as_of`` before rendering it: the
      ``result`` verb shows it, ``explain`` narrates its firings;
    * :attr:`relation` — its relation, which ``check`` runs TEST-FDs on
      (Theorem 3) and a query grounds over;
    * :attr:`stats` — the fixpoint's
      :class:`~repro.query.optimize.RelationStats`: the column domains
      and null cells the evaluator grounds over, and the counts and
      pools the optimizer plans with;
    * :attr:`raw_stats` — the raw rows' stats, which the plan linter
      reads before any lease is taken;
    * :attr:`has_nothing` — the session's Theorem 4(b) verdict, read in
      O(1) without building the fixpoint.

    A view is bound to its session's
    :attr:`~repro.chase.session.ChaseSession.cut`.  The writer's shared
    view (:meth:`RelationWriter.view`) is read only while the session
    still stands there; every mutation moves the cut, so a stale view is
    replaced, never read, and the write path does nothing to keep views
    current.  Over a lease's private session it is a one-off view that
    no other read sees.
    """

    __slots__ = ("cut", "_session", "_result", "_stats", "_raw_stats")

    def __init__(self, session: ChaseSession) -> None:
        self._session = session
        self.cut = session.cut
        self._result: Optional[ResultAnswer] = None
        self._stats: Optional[optimize.RelationStats] = None
        self._raw_stats: Optional[optimize.RelationStats] = None

    @property
    def result(self) -> ResultAnswer:
        if self._result is None:
            self._result = self._session.result()
        return self._result

    @property
    def relation(self) -> Relation:
        return self.result.relation

    @property
    def has_nothing(self) -> bool:
        return self._session.has_nothing

    @property
    def stats(self) -> optimize.RelationStats:
        if self._stats is None:
            self._stats = optimize.relation_stats(self.relation)
        return self._stats

    @property
    def raw_stats(self) -> optimize.RelationStats:
        if self._raw_stats is None:
            self._raw_stats = optimize.relation_stats(
                self._session.raw_relation()
            )
        return self._raw_stats


class RelationWriter:
    """The single mutator of one served relation."""

    def __init__(
        self,
        relation: ManagedRelation,
        window_s: float = 0.0,
        max_batch: int = 512,
        checkpoint_wal_ops: Optional[int] = None,
        checkpoint_interval_s: Optional[float] = None,
        on_commit: Optional[Callable[[list], None]] = None,
    ) -> None:
        self.relation = relation
        self.committer = GroupCommitter(
            relation.wal, window_s=window_s, max_batch=max_batch, on_commit=on_commit
        )
        self.checkpoint_wal_ops = checkpoint_wal_ops
        self.checkpoint_interval_s = checkpoint_interval_s
        self.ops_applied = 0
        self.auto_checkpoints = 0
        self._queue: "asyncio.Queue[_QueueItem]" = asyncio.Queue()
        self._task: Optional["asyncio.Task[None]"] = None
        self._last_staged: Optional["asyncio.Future[Any]"] = None
        self._last_checkpoint = time.monotonic()
        self._view: Optional[ReadView] = None

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        await self.committer.start()
        self.relation.journal_sink = self._stage
        self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Process everything queued, make it durable, stop the task."""
        if self._task is None:
            return
        await self._queue.put((_STOP, None))
        await self._task
        self._task = None

    # -- submission --------------------------------------------------------

    async def submit(self, apply_fn: Callable[[], Any]) -> Any:
        """Run one mutation closure on the writer; returns its value
        after the op record it journalled (if any) is durable."""
        future = asyncio.get_running_loop().create_future()
        await self._queue.put((apply_fn, future))
        return await future

    async def submit_many(self, apply_fns: List[Callable[[], Any]]) -> List[dict]:
        """Run an admission step, then mutation closures contiguously
        (one queue item).

        The first closure is the admission step (see :class:`_Batch`):
        whatever it raises is raised here, and then no other closure has
        run.  Otherwise returns one outcome object per remaining closure
        (``{"ok": True, ...}`` with the op's response fields, or ``{"ok":
        False, "error": ...}``), resolved only after the last record the
        batch journalled is durable — the committer acks staged records
        in order, so the last record's durability covers the whole batch.
        """
        admit, *ops = apply_fns
        future = asyncio.get_running_loop().create_future()
        await self._queue.put((_Batch(admit, ops), future))
        return await future

    async def checkpoint(self) -> Any:
        """A checkpoint, serialized into the op stream like any op."""
        future = asyncio.get_running_loop().create_future()
        await self._queue.put((_Checkpoint, future))
        return await future

    def lease(self) -> ReadLease:
        """A consistent-cut read lease on the relation's session.

        Callers on the event loop only ever observe op boundaries (the
        writer's apply loop never awaits mid-op), so the cut is always a
        serial prefix of the op stream.
        """
        return self.relation.session.lease()

    def view(self) -> ReadView:
        """The shared :class:`ReadView` at the session's current cut: the
        one already held while the session still stands at its cut, else
        a new, empty one (built on first read, never on the write path).
        Read it on the loop, between ops, as live leases are read."""
        session = self.relation.session
        view = self._view
        if view is None or view.cut != session.cut:
            view = self._view = ReadView(session)
        return view

    def pending(self) -> int:
        """Queued ops not yet applied (the read path's busy signal)."""
        return self._queue.qsize()

    def stats(self) -> dict:
        merged = self.committer.stats()
        merged.update(
            writer_ops=self.ops_applied,
            auto_checkpoints=self.auto_checkpoints,
            queue_depth=self._queue.qsize(),
        )
        return merged

    # -- internals ---------------------------------------------------------

    def _stage(self, payload: dict) -> None:
        """The relation's journal sink while the writer runs."""
        self._last_staged = self.committer.stage(payload)

    def _apply(
        self, apply_fn: Callable[[], Any], future: "asyncio.Future[Any]"
    ) -> None:
        """Apply one op; wire its ack to its record's durability."""
        if future.done():  # client went away before the op ran: skip it
            return
        if self.committer.failed is not None:
            self._refuse(future)
            return
        self._last_staged = None
        try:
            value = apply_fn()
        except Exception as error:
            # validation failure: _emit fires before any mutation, and a
            # failed stage aborts the op — either way nothing applied, so
            # the error can be acked without waiting on durability
            if not future.done():
                future.set_exception(error)
            return
        self.ops_applied += 1
        self._ack_when_durable(future, self._last_staged, value)

    def _apply_batch(
        self, batch: _Batch, future: "asyncio.Future[Any]"
    ) -> None:
        """Admit a bundle, then apply it contiguously; one ack covers
        every outcome.

        A refused bundle fails its future with the admission step's
        error, before any op runs.  A failing op is recorded in its
        outcome slot and the bundle continues — per-op atomicity, exactly
        as if the ops had been submitted singly, just without
        interleaving.
        """
        if future.done():
            return
        if self.committer.failed is not None:
            self._refuse(future)
            return
        try:
            batch.admit()
        except Exception as error:
            future.set_exception(error)
            return
        outcomes: List[dict] = []
        staged: Optional["asyncio.Future[Any]"] = None
        for apply_fn in batch.apply_fns:
            self._last_staged = None
            try:
                value = apply_fn()
            except Exception as error:
                outcomes.append(
                    {"ok": False, "error": f"{type(error).__name__}: {error}"}
                )
                continue
            self.ops_applied += 1
            if self._last_staged is not None:
                staged = self._last_staged
            outcomes.append({"ok": True, **(value or {})})
        # the committer acks staged records in order, so the last one's
        # durability covers every record the bundle journalled
        self._ack_when_durable(future, staged, outcomes)

    @staticmethod
    def _ack_when_durable(
        future: "asyncio.Future[Any]",
        staged: Optional["asyncio.Future[Any]"],
        value: Any,
    ) -> None:
        """Resolve ``future`` with ``value`` once ``staged`` — the last
        record the op or bundle journalled — is durable, or now when it
        journalled none; a failed or cancelled record fails or cancels
        ``future`` instead."""
        if staged is None:
            if not future.done():
                future.set_result(value)
            return

        def _ack(record_future: "asyncio.Future[Any]") -> None:
            if future.done():
                return
            if record_future.cancelled():
                future.cancel()
                return
            error = record_future.exception()
            if error is not None:
                future.set_exception(error)
            else:
                future.set_result(value)

        staged.add_done_callback(_ack)

    def _refuse(self, future: "asyncio.Future[Any]") -> None:
        if not future.done():
            future.set_exception(
                DatabaseError(
                    "writer stopped: a WAL batch append failed earlier "
                    f"({self.committer.failed}); restart the server to "
                    "recover the durable prefix"
                )
            )

    def _checkpoint_timeout(self) -> Optional[float]:
        if self.checkpoint_interval_s is None:
            return None
        elapsed = time.monotonic() - self._last_checkpoint
        return max(0.05, self.checkpoint_interval_s - elapsed)

    async def _maybe_checkpoint(self, clock_due: bool = False) -> None:
        relation = self.relation
        wal_ops = relation.seq - relation.checkpoint_seq
        if wal_ops <= 0:
            self._last_checkpoint = time.monotonic()
            return
        due = clock_due and self.checkpoint_interval_s is not None and (
            time.monotonic() - self._last_checkpoint >= self.checkpoint_interval_s
        )
        if not due and self.checkpoint_wal_ops is not None:
            due = wal_ops >= self.checkpoint_wal_ops
        if not due or relation.snapshots:
            # an outstanding snapshot blocks checkpointing (by design);
            # retry once it is rolled back or discarded
            return
        if self.committer.failed is not None:
            return
        await self.committer.drain()
        self.relation.checkpoint()
        self.auto_checkpoints += 1
        self._last_checkpoint = time.monotonic()

    async def _checkpoint_now(self, future: "asyncio.Future[Any]") -> None:
        try:
            await self.committer.drain()
            absorbed = self.relation.checkpoint()
        except Exception as error:
            if not future.done():
                future.set_exception(error)
            return
        self._last_checkpoint = time.monotonic()
        if not future.done():
            future.set_result(absorbed)

    async def _run(self) -> None:
        queue = self._queue
        stopping = False
        while not stopping:
            timeout = self._checkpoint_timeout()
            try:
                if timeout is None:
                    first = await queue.get()
                else:
                    first = await asyncio.wait_for(queue.get(), timeout)
            except asyncio.TimeoutError:
                await self._maybe_checkpoint(clock_due=True)
                continue
            burst = [first]
            while True:
                try:
                    burst.append(queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
            for apply_fn, future in burst:
                if apply_fn is _STOP:
                    stopping = True
                elif apply_fn is _Checkpoint:
                    await self._checkpoint_now(future)
                elif isinstance(apply_fn, _Batch):
                    self._apply_batch(apply_fn, future)
                else:
                    self._apply(apply_fn, future)
            await self._maybe_checkpoint()
        try:
            await self.committer.drain()
        except DatabaseError:
            pass  # poisoned: every affected future already carries the error
        await self.committer.close()
        self.relation.journal_sink = self.relation.wal.append
