"""ChaseSession: a stateful handle on one ``(relation, fds)`` pair.

The paper's artifacts are all views of one object — the unique minimally
incomplete instance of Theorem 4 — but the library used to expose it
through disconnected surfaces: one-shot :func:`repro.chase.chase`,
re-chase-from-scratch :class:`repro.updates.GuardedRelation`, and stateless
:func:`repro.testfd.check_fds`.  :class:`ChaseSession` is the long-lived
production shape behind all of them: it owns the raw tuples *and* the
maintained Theorem-4 fixpoint, and keeps the two in lock-step across the
full update vocabulary.

* :meth:`insert` — sign the new row's ``(fd, row)`` terms and drain the
  core's worklist; amortized near-linear over a stream, exactly the
  congruence-closure incrementality the paper's Downey-Sethi-Tarjan
  footnote licenses.
* :meth:`delete` / :meth:`update` / :meth:`replace` — recent victims use
  the journal: every mutation (union, tag flip, occurrence move, bucket
  edit, node creation) is journalled on a **trail**, and each row
  remembers the trail mark taken just before its insertion.  Removing or
  rewriting row ``i`` rewinds the trail to that mark — restoring the
  exact engine state that existed before row ``i`` — and replays the
  surviving suffix.  An *old* victim, whose rewind would be deeper than
  re-chasing, is **retired in place** instead when it never witnessed an
  NS-rule firing (per-row witness counts, maintained live) and holds no
  null shared with survivors: its cells are excised from the occurrence
  index and its rows from the signature buckets' member lists (promoting
  a surviving member to anchor where it anchored), with no rewind, no
  replay and no rebuild — O(the victim's cells and their classes)
  however old the row is.  Old merge witnesses still level-rebuild.
  :meth:`stats` counts which path each op took.
* :meth:`fill` — grounds a null with a user-supplied constant: the
  "internal acquisition" channel of section 7.  Single-column nulls take a
  fast path (merge the null's class with the column's interned constant —
  one union plus whatever it cascades); nulls spanning columns rewind to
  their first occurrence so the re-encoding matches a from-scratch chase
  exactly.
* :meth:`snapshot` / :meth:`rollback` / :meth:`discard_snapshots` — the
  session's one snapshot stack (:attr:`snapshots`), O(1) to push.
  Rolling back pops the latest mark and the trail down to it
  (backtrackable union-find: no path compression while trailing,
  weighted union keeps finds logarithmic), which is what lets a guard
  *try* a modification and un-happen it when the result is inadmissible
  — no per-attempt state copy, no re-chase.  A mark that a later rewind
  invalidated is honored by rebuilding from its recorded raw rows.  The
  trail grows with total work done; :meth:`compact` sheds the history
  when rewindability to old states stops being worth the memory.
* :meth:`check` — dispatches the TEST-FDs family against the maintained
  instance.  Under the weak convention Theorem 3's precondition (minimal
  incompleteness) holds *by construction*: the session state is always a
  chase fixpoint.
* :meth:`result` / :attr:`has_nothing` / :meth:`explain` — the Theorem-4
  views: the minimally incomplete instance, the weak-satisfiability
  verdict (live, no materialization), and the narrated chase.
* :attr:`on_op` — the **op-record hook** the durable layer
  (:mod:`repro.db`) arms: every top-level mutator, the snapshot stack's
  three included, emits one replay record (``("insert", values)``,
  ``("delete", index)``, ..., ``("snapshot",)``, ``("rollback",)``,
  ``("discard",)``) *after* its argument validation but *before* any
  state changes, which is exactly the write-ahead discipline a journal
  needs.  Internal re-application — suffix replays, level rebuilds,
  rollback restoration, a :meth:`dry_run`'s undo — never emits (those
  inserts are consequences of an op already on record, not ops).

The invariant pinned by ``tests/chase/test_session.py`` after **every**
operation: ``session.result()`` is field-identical (rows, NEC classes,
substitutions, ``has_nothing``) to ``chase(Relation(schema, session.rows),
fds)`` from scratch — the vector engine, which shares none of the
session's worklist core.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..api import TAG_CERTAIN, Answer, provenance_of
from ..core.fd import FDInput, as_fd
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.tuples import Row
from ..core.values import NOTHING, Null, is_null
from ..errors import OpError, ReproError, SchemaError
from .core import SignatureChaseCore
from .engine import _TAG_CONST, _TAG_NOTHING, Application, ChaseResult, chase


class ResultAnswer(ChaseResult):
    """A :class:`ChaseResult` that also speaks the unified answer schema.

    Every ``ChaseResult`` field and method is intact — existing callers
    see no difference — plus the cut bookkeeping (``as_of``/``live``,
    stamped by durable surfaces via :meth:`at`) and :meth:`answer`,
    which renders the maintained fixpoint as a :class:`repro.api.Answer`.
    The tag is ``certain``: the fixpoint is the representative instance
    itself, not a quantified claim about its completions.
    """

    def __init__(
        self, base: ChaseResult, as_of: Any = None, live: bool = True
    ) -> None:
        super().__init__(
            **{
                f.name: getattr(base, f.name)
                for f in dataclass_fields(ChaseResult)
            }
        )
        self.as_of = as_of
        self.live = live

    def at(self, as_of: Any, live: bool = True) -> "ResultAnswer":
        """The same result stamped with a journal cut."""
        self.as_of = as_of
        self.live = live
        return self

    def answer(self) -> Answer:
        rows = tuple(tuple(row.values) for row in self.relation.rows)
        attributes = self.relation.schema.attributes
        domains = {
            attribute: self.relation.schema.domain(attribute)
            for attribute in attributes
            if self.relation.schema.domain(attribute).is_finite
        }
        return Answer(
            tag=TAG_CERTAIN,
            attributes=attributes,
            rows=rows,
            as_of=self.as_of,
            live=self.live,
            provenance=provenance_of(
                rows, attributes, relation_name=self.relation.schema.name
            ),
            meta={
                "has_nothing": self.has_nothing,
                "passes": self.passes,
                "mode": self.mode,
                "strategy": self.strategy,
            },
            domains=domains or None,
        )

STRATEGY_SESSION = "session"


def _audited(method):
    """Run the sanitizer sweep after a successful public mutation (and
    after each restore of a snapshot mark, a rollback's or a dry run's).

    A no-op unless the session opted in (``sanitize=True`` or
    ``REPRO_SANITIZE=1``): the guard is one attribute read, so production
    paths pay nothing.  Audits only on success — an op that raised is
    specified to leave the state untouched, which the *next* audited op
    will confirm against the same invariants.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        value = method(self, *args, **kwargs)
        if self._sanitize:
            from ..analysis.sanitize import audit_session

            audit_session(self)
        return value

    return wrapper


@dataclass(frozen=True)
class _Mark:
    """One entry of a :class:`ChaseSession`'s snapshot stack.

    ``mark``/``apps`` locate it on the trail; ``gen`` records the
    session's rewind generation (a mark is trail-restorable only while no
    rewind has happened since it was taken); ``rows`` are the raw tuples
    at that moment, the rebuild fallback.
    """

    mark: int
    apps: int
    gen: int
    rows: Tuple[Row, ...]


class ChaseSession(SignatureChaseCore):
    """Maintain the Theorem-4 fixpoint across inserts, deletes, updates,
    fills and rollbacks.

    Usage::

        session = ChaseSession(schema, ["A -> B", "B -> C"])
        session.insert(("a", null(), "c"))
        session.insert(("a", "b1", null()))
        session.update(1, {"C": "c2"})
        session.delete(0)
        session.has_nothing          # Theorem 4(b), maintained live
        session.check()              # TEST-FDs on the maintained instance
        session.snapshot()                   # push a mark: depth 1
        session.insert(("a", "b9", "c9"))    # conflicts: poisons the state
        session.rollback()                   # un-happens it

    The first argument may be a :class:`~repro.core.relation.Relation`
    (its rows become the initial stream) or a bare schema plus ``rows``.
    """

    def __init__(
        self,
        source: Union[Relation, RelationSchema],
        fds: Iterable[FDInput],
        rows: Iterable[Sequence[Any] | Row] = (),
        sanitize: Optional[bool] = None,
    ) -> None:
        #: opt-in invariant sweep after every public mutation
        #: (:mod:`repro.analysis.sanitize`); ``None`` defers to the
        #: ``REPRO_SANITIZE`` environment flag
        if sanitize is None:
            from ..analysis.sanitize import enabled

            sanitize = enabled()
        self._sanitize = bool(sanitize)
        if isinstance(source, Relation):
            schema, initial = source.schema, list(source.rows)
        else:
            schema, initial = source, []
        initial.extend(Relation(schema, rows).rows)
        #: the snapshot stack, one mark per outstanding :meth:`snapshot`;
        #: kept across rebuilds (a mark holds its own rows for that case)
        self.snapshots: List[_Mark] = []
        #: op-outcome counters, kept across rebuilds (see :meth:`stats`)
        self._stats: Dict[str, int] = {
            "retire_fast": 0,
            "trail_replay": 0,
            "level_rebuild": 0,
        }
        #: op-record hook: called with one replay record per *top-level*
        #: mutation, after validation, before application (the WAL shape).
        #: ``None`` (the default) costs one attribute check per op.
        #: Internal re-application — suffix replays, rebuilds, rollback
        #: restoration — goes through the private ``_insert``/``_replace``
        #: entry points and never emits.
        self.on_op: Optional[Any] = None
        super().__init__(schema, fds)
        self._install()
        for row in initial:
            self.insert(row)

    def _install(self) -> None:
        """Arm the journal on a freshly initialized core."""
        self._nothing()  # materialize the inconsistent class pre-trail
        self._trail: List[tuple] = []
        self.uf.trail = self._trail
        #: raw (un-chased) rows, the session's source of truth
        self._raw_rows: List[Row] = []
        #: external row index -> engine slot (index into ``cells``).  The
        #: engine's structures are keyed by *slot* and slots are never
        #: renumbered: a fast-path retirement tombstones the victim's slot
        #: in place and only this mapping shifts, so the occurrence index
        #: and bucket tables need no O(n) reindexing
        self._slots: List[int] = []
        #: per row: (trail length, applications length) just before insert
        self._marks: List[Tuple[int, int]] = []
        #: bumped by every trail rewind; invalidates older snapshots' marks
        self._gen = 0
        #: trail position of the latest in-place raw-row rewrite (a fill's
        #: substitution or an adopt's commit).  Rewinding *below* it would
        #: silently peel that user-supplied data off rows the replay never
        #: touches, so delete/update/replace must level-rebuild instead
        #: (an explicit rollback may cross it — reverting is its job).
        self._ratchet_mark = 0

    # -- worklist ------------------------------------------------------------

    def _drain(self) -> None:
        """Run the dirtied terms to fixpoint (one op = one 'pass')."""
        self.passes += 1
        work = self._work
        sign = self._sign
        while work:
            k, row = work.popleft()
            sign(k, row)

    # -- raw views ---------------------------------------------------------

    @property
    def rows(self) -> Tuple[Row, ...]:
        """The raw (un-chased) rows currently in the session."""
        return tuple(self._raw_rows)

    def raw_relation(self) -> Relation:
        """The raw rows as a :class:`Relation` (what a from-scratch
        ``chase`` of this session's state would take as input)."""
        return Relation(self.schema, list(self._raw_rows))

    def __len__(self) -> int:
        return len(self._raw_rows)

    @property
    def cut(self) -> Tuple[int, int]:
        """Where the session stands, as ``(generation, trail length)``.

        Every change of state moves it: an op that changes the session
        appends to the trail, and a rewind, an in-place retirement or a
        rebuild bumps the generation.  Two reads at one cut therefore see
        one state — the key :class:`ReadLease` freshness and the server's
        read views are checked against.
        """
        return (self._gen, len(self._trail))

    # -- op records (the durable layer's write-ahead hook) -----------------

    def _emit(self, record: tuple) -> None:
        """Hand a replay record to :attr:`on_op` (top-level ops only).

        Emission happens after the op's own validation and before any
        engine mutation: a hook that raises (e.g. a failed journal append)
        aborts the op with the session state untouched.
        """
        hook = self.on_op
        if hook is not None:
            hook(record)

    # -- update vocabulary -------------------------------------------------

    @_audited
    def insert(self, values: Sequence[Any] | Row) -> int:
        """Add a tuple and restore the fixpoint; returns its row index."""
        row = values if isinstance(values, Row) else Row(self.schema, values)
        if row.schema.attributes != self.schema.attributes:
            raise SchemaError(
                f"row scheme {row.schema!r} does not match {self.schema!r}"
            )
        self._emit(("insert", row.values))
        return self._insert(row)

    def _insert(self, row: Row) -> int:
        """Insert a validated row without emitting an op record."""
        trail = self._trail
        self._marks.append((len(trail), len(self.applications)))
        self._raw_rows.append(row)
        slot = len(self.cells)
        self._slots.append(slot)
        trail.append(("raw",))
        uf = self.uf
        occ = self._occ
        encoded: List[int] = []
        for col, attr in enumerate(self.schema.attributes):
            before = len(uf.parent)
            node = self._node_for(attr, row.values[col])
            encoded.append(node)
            root = uf.find(node)
            cells_of = occ.get(root)
            if cells_of is None:
                occ[root] = [(slot, col)]
                trail.append(("occnew", root))
            else:
                cells_of.append((slot, col))
                trail.append(("occapp", root))
            if node < before:
                # existing class gains an occurrence; fresh nodes already
                # weigh 1 (their single new cell)
                uf.add_weight(root, 1)
                trail.append(("wt", root))
        self.cells.append(encoded)
        trail.append(("cells",))
        work = self._work
        for k in range(len(self.fds)):
            work.append((k, slot))
        self._drain()
        return len(self._raw_rows) - 1

    def _rewind_pays(self, mark: int) -> bool:
        """Is undo-to-``mark`` + suffix replay both *safe* and cheaper than
        a level rebuild?

        Unsafe below :attr:`_ratchet_mark`: the undo would revert a fill's
        or adopt's in-place row rewrites, and the replay (which only
        re-inserts rows *after* the rewound one) would never restore them.
        """
        if mark < self._ratchet_mark:
            return False
        return 2 * (len(self._trail) - mark) < len(self._trail)

    @_audited
    def delete(self, index: int) -> None:
        """Remove the tuple at ``index``; later rows shift down by one.

        Recent victims (rewinding to their mark is cheaper than
        re-chasing, and no ratchet intervenes) keep the PR-3 discipline:
        trail rewind + suffix replay.  *Old* victims — where that
        discipline could only level-rebuild — are **retired in place**
        (:meth:`_retire`) when they are merge-free: their occurrences and
        bucket memberships are excised and nothing is replayed —
        O(victim's cells + their classes), however old the row is.
        Retirement is deliberately not taken for recent victims even when
        they are eligible: it fences the trail below it off from future
        rewinds (see :meth:`_retire`), so spending it to save an
        already-cheap suffix replay would trade away exactly the path
        recency-skewed churn lives on.  Old merge witnesses (or
        shared-null holders) still level-rebuild.
        """
        self._check_index(index)
        self._emit(("delete", index))
        mark, apps = self._marks[index]
        if self._rewind_pays(mark):
            self._stats["trail_replay"] += 1
            survivors = self._raw_rows[index + 1 :]
            self._undo_to(mark, apps)
            for row in survivors:
                self._insert(row)
            return
        if self._retire(index):
            return
        self._rebuild(self._raw_rows[:index] + self._raw_rows[index + 1 :])

    @_audited
    def replace(self, index: int, values: Sequence[Any] | Row) -> None:
        """Swap the tuple at ``index`` for a new one, in place.

        For *old* victims (rewinding would not pay; see :meth:`delete`
        for the recency policy) that are retirable, when the new tuple is
        fully ground (no nulls — so the null registry's row-major order
        is untouched), the swap is retire + append + one slot rotation:
        no rewind, no suffix replay, no rebuild.
        """
        self._check_index(index)
        row = values if isinstance(values, Row) else Row(self.schema, values)
        if row.schema.attributes != self.schema.attributes:
            raise SchemaError(
                f"row scheme {row.schema!r} does not match {self.schema!r}"
            )
        self._emit(("replace", index, row.values))
        self._replace(index, row)

    def _replace(self, index: int, row: Row) -> None:
        """Replace a validated row without emitting an op record."""
        mark, apps = self._marks[index]
        if self._rewind_pays(mark):
            self._stats["trail_replay"] += 1
            survivors = self._raw_rows[index + 1 :]
            self._undo_to(mark, apps)
            self._insert(row)
            for survivor in survivors:
                self._insert(survivor)
            return
        if not any(is_null(value) for value in row.values) and self._retire(
            index
        ):
            self._insert(row)
            # the fresh row appended externally; rotate it back to the
            # victim's position.  Marks are no longer monotone in external
            # order below this point, so fence rewinds off (the ratchet)
            # and snapshot fast paths (the generation bump) — both already
            # required by the retirement itself.
            self._slots.insert(index, self._slots.pop())
            self._raw_rows.insert(index, self._raw_rows.pop())
            self._marks.insert(index, self._marks.pop())
            self._gen += 1
            self._ratchet_mark = len(self._trail)
            return
        self._rebuild(
            self._raw_rows[:index] + [row] + self._raw_rows[index + 1 :]
        )

    def _retire(self, index: int) -> bool:
        """Retire the row at ``index`` in place; False when ineligible.

        Eligible when the victim never witnessed an NS-rule firing (its
        per-row witness count is zero) and every null it holds occurs in
        the victim alone.  Then *every* merge in the maintained partition
        is justified by surviving rows (or by raw-row data a fill/adopt
        committed), so the partition restricted to surviving cells already
        **is** the Theorem-4 fixpoint of the survivors — the victim's
        cells can simply be excised:

        * its ``(slot, col)`` entries leave the occurrence index (and its
          classes' occurrence weights drop accordingly);
        * it leaves each FD's signature bucket; if it anchored one, a
          surviving member is promoted (members fired against the victim
          without merging, so they already agree with each other — anchor
          choice is unobservable by Theorem 4).  No member is re-signed:
          the partition is untouched, so no signature changed;
        * nulls exclusive to the victim leave the registry (they are no
          longer unknowns of the raw instance).

        Retirement is deliberately **un-journalled** — that is the point:
        no trail suffix to replay, no entries appended.  The cost is that
        the trail below this moment can no longer reconstruct state, so
        the ratchet fences off later rewinds and the generation bump sends
        older snapshots to their rebuild fallback.
        """
        slot = self._slots[index]
        if self._row_witness.get(slot):
            return False
        find = self.uf.find
        occ = self._occ
        doomed: List[int] = []  # registry keys of victim-exclusive nulls
        seen: set = set()
        for value in self._raw_rows[index].values:
            if not is_null(value):
                continue
            key = id(value)
            if key in seen:
                continue
            seen.add(key)
            root = find(self._null_nodes[key])
            if any(row != slot for row, _ in occ.get(root, ())):
                # the null (or its class) survives the victim: retiring
                # in place would scramble the registry's row-major order
                # and the representative the result view picks
                return False
            doomed.append(key)
        # -- commit (nothing below can fail) --------------------------------
        uf = self.uf
        by_root: Dict[int, int] = {}
        for node in self.cells[slot]:
            root = find(node)
            by_root[root] = by_root.get(root, 0) + 1
        for root, count in by_root.items():
            kept = [cell for cell in occ[root] if cell[0] != slot]
            if kept:
                occ[root] = kept
            else:
                del occ[root]
            uf.add_weight(root, -count)
        members = self._members
        anchors = self._anchors
        sigs = self._sigs
        for k in range(len(self.fds)):
            sig = sigs.pop((k, slot), None)
            if sig is None:  # pragma: no cover - every live row is signed
                continue
            key = (k, sig)
            bucket = members[key]
            del bucket[slot]
            if bucket:
                if anchors.get(key) == slot:
                    anchors[key] = next(iter(bucket))
            else:
                del members[key]
                if anchors.get(key) == slot:
                    del anchors[key]
        # no re-signing: the partition is untouched, so every surviving
        # member's signature — and therefore every bucket — is unchanged;
        # anchor promotion above is the only repair a lost member needs
        for key in doomed:
            del self._null_nodes[key]
            del self._null_objects[key]
        self.cells[slot] = []  # tombstone; the slot is never reused
        del self._raw_rows[index]
        del self._marks[index]
        del self._slots[index]
        self._gen += 1
        self._ratchet_mark = len(self._trail)
        self._stats["retire_fast"] += 1
        return True

    @_audited
    def update(self, index: int, changes: Mapping[str, Any]) -> None:
        """Modify attributes of the *raw* tuple at ``index``."""
        self._check_index(index)
        mapping = self._raw_rows[index].as_dict()
        for attr, value in changes.items():
            if attr not in self.schema:
                raise SchemaError(f"unknown attribute {attr!r}")
            mapping[attr] = value
        self._emit(("update", index, dict(changes)))
        self._replace(index, Row.from_mapping(self.schema, mapping))

    @_audited
    def fill(self, index: int, attribute: str, value: Any) -> None:
        """Ground the null at ``(index, attribute)`` with a constant.

        The substitution applies to *every* cell holding that null object
        (a shared null is one unknown).  If the constraints force a
        different value, the state poisons — check :attr:`has_nothing`
        afterwards (or wrap in :meth:`snapshot`/:meth:`rollback`).
        """
        self._check_index(index)
        cell = self._raw_rows[index][attribute]
        if not is_null(cell):
            raise ReproError(
                f"fill row {index}.{attribute}: cell is not null "
                f"(holds {cell!r})"
            )
        self._emit(("fill", index, attribute, value))
        first: Optional[int] = None
        columns: set = set()
        for i, row in enumerate(self._raw_rows):
            for col, occupant in enumerate(row.values):
                if occupant is cell:
                    if first is None:
                        first = i
                    columns.add(col)
        substitution = {cell: value}
        if len(columns) == 1:
            # fast path: the null lives in one column, so substituting it
            # is exactly "merge its class with the column's interned
            # constant" — the NS-rule substitution, user-initiated.  The
            # null leaves the registry (it is no longer an unknown of the
            # raw instance); position is recorded so a rollback restores
            # the registry's row-major order.
            trail = self._trail
            key = id(cell)
            node = self._null_nodes[key]
            position = list(self._null_nodes).index(key)
            del self._null_nodes[key]
            del self._null_objects[key]
            trail.append(("dereg", key, cell, node, position))
            for i in range(first, len(self._raw_rows)):
                row = self._raw_rows[i]
                if any(occupant is cell for occupant in row.values):
                    trail.append(("rawset", i, row))
                    self._raw_rows[i] = row.substitute(substitution)
            self._merge(node, self._node_for(attribute, value))
            self._drain()
            self._ratchet_mark = len(self._trail)
            return
        # a null spanning columns: per-column constant interning means the
        # class-merge shortcut would not reproduce the from-scratch
        # encoding (equal constants in *different* classes change which
        # signatures collide) — rewind to the null's first occurrence and
        # replay with the substitution applied
        rows = [row.substitute(substitution) for row in self._raw_rows]
        mark, apps = self._marks[first]
        if not self._rewind_pays(mark):
            self._rebuild(rows)
            return
        self._stats["trail_replay"] += 1
        self._undo_to(mark, apps)
        for row in rows[first:]:
            self._insert(row)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < len(self._raw_rows):
            raise SchemaError(f"no row at index {index}")

    @_audited
    def reset(self, rows: Iterable[Sequence[Any] | Row]) -> None:
        """Replace the session's contents wholesale (level rebuild).

        Equivalent to constructing a fresh session over ``rows``, in
        place.  Existing snapshots remain honored (their recorded raw rows
        back the rebuild fallback)."""
        materialized = list(Relation(self.schema, rows).rows)
        self._emit(("reset", tuple(row.values for row in materialized)))
        self._rebuild(materialized)

    @_audited
    def compact(self) -> None:
        """Shed accumulated trail history (level rebuild over own rows).

        The trail journals every engine mutation since the last rebuild,
        so a very long-lived session grows memory proportional to total
        work done, not instance size.  Compacting rebuilds in place: the
        fresh trail covers only the current rows' insertion work, at the
        cost of invalidating outstanding snapshots' fast path (they fall
        back to their recorded rows) and of old rows' rewind marks (their
        deletes level-rebuild, which is what deep rewinds did anyway)."""
        self._rebuild(list(self._raw_rows))

    @_audited
    def adopt(self) -> Dict[Null, Any]:
        """Commit the maintained fixpoint into the raw rows.

        Forced substitutions become stored constants and NEC classes
        collapse onto their representative null object — the paper's
        "internal acquisition": information the constraints force is
        adopted as data, and from then on it survives even if the tuples
        that forced it are later deleted or updated (the ratchet
        :class:`repro.updates.GuardedRelation` builds its ``propagate``
        semantics on).  Nulls that no longer occur in the raw rows leave
        the registry, so the session invariant — ``result()`` equals a
        from-scratch chase of :meth:`raw_relation` — is preserved exactly.
        Fully journalled: a :meth:`rollback` over an adoption restores the
        un-adopted rows.  Returns the substitutions that were committed.

        Two hazards force a level rebuild over the adopted rows (restoring
        the exact from-scratch encoding) instead of the in-place commit:

        * a grounded class whose cells span *columns* (a shared null
          linked across attributes) — committing it writes the same
          literal into several columns, and a fresh encoding would intern
          each column's copy into that column's constant node, signature
          collisions the maintained partition (which holds the old class
          merely *tagged* with the constant) does not see;
        * a poisoned session (:attr:`has_nothing`) — committing writes
          ``NOTHING`` literals into the rows, but the maintained partition
          still holds the poisoned *constants* merged into the nothing
          class, so a later insert reusing one of those constants would
          spuriously poison where a fresh chase of the rows would not.
        """
        self._emit(("adopt",))
        trail = self._trail
        adopted = self.result().relation.rows
        committed = self.substitutions()
        find = self.uf.find
        tags = self.tags
        hazard = self.has_nothing
        if not hazard:
            for node in self._null_nodes.values():
                root = find(node)
                if tags[root][0] != _TAG_CONST:
                    continue
                columns = {col for _, col in self._occ.get(root, ())}
                if len(columns) > 1:
                    hazard = True
                    break
        for i, row in enumerate(self._raw_rows):
            if row.values != adopted[i].values:
                trail.append(("rawset", i, row))
                self._raw_rows[i] = adopted[i]
        if hazard:
            self._rebuild(list(self._raw_rows))
            return committed
        still_occurring = {
            id(value)
            for row in self._raw_rows
            for value in row.values
            if is_null(value)
        }
        # positions are recorded net of earlier removals (the trail is
        # undone in reverse, so each reinsertion sees exactly the later
        # removals already restored)
        doomed: List[Tuple[int, int]] = []
        for position, key in enumerate(self._null_nodes):
            if key not in still_occurring:
                doomed.append((key, position - len(doomed)))
        for key, position in doomed:
            node = self._null_nodes[key]
            null_obj = self._null_objects[key]
            del self._null_nodes[key]
            del self._null_objects[key]
            trail.append(("dereg", key, null_obj, node, position))
        self._ratchet_mark = len(trail)
        return committed

    # -- FD set and verification -------------------------------------------

    @_audited
    def set_fds(self, fds: Iterable[FDInput]) -> None:
        """Swap the session's FD set and re-chase (level rebuild).

        Refused on journalled sessions (the durable layer fixes a
        relation's FD set at create time — its WAL records carry no FD
        changes).  Snapshots taken under the old FD set remain honored,
        but roll back to their rows chased under the *new* FDs.
        """
        if self.on_op is not None:
            raise ReproError(
                "set_fds on a journalled session is not supported; the "
                "durable layer fixes the FD set when the relation is created"
            )
        normalized = [as_fd(fd).validate(self.schema).normalized() for fd in fds]
        self.fds = normalized
        self._rebuild(list(self._raw_rows))

    def verify(self) -> bool:
        """Re-chase the raw rows from scratch and compare field-by-field
        against the maintained fixpoint — the session invariant, on demand.

        The reference is :func:`~repro.chase.engine.chase` under the FD
        set's minimal cover: Theorem 4's fixpoint depends on the FD set
        only through its closure, so the cover reaches the same rows, NEC
        classes and substitutions with fewer rules to sign and fire.
        :meth:`repro.db.ManagedRelation.verify` and ``repro db recover``
        call this.
        """
        # imported here: keeps repro.armstrong off the served import path
        from ..armstrong.cover import minimal_cover

        reference = chase(self.raw_relation(), minimal_cover(self.fds))
        mine = self.result()
        return (
            [row.values for row in mine.relation.rows]
            == [row.values for row in reference.relation.rows]
            and mine.nec_classes == reference.nec_classes
            and {id(k): v for k, v in mine.substitutions.items()}
            == {id(k): v for k, v in reference.substitutions.items()}
            and mine.has_nothing == reference.has_nothing
        )

    # -- the snapshot stack ------------------------------------------------

    def _mark(self) -> _Mark:
        """Where the session stands (O(1) plus one row-list copy)."""
        return _Mark(
            len(self._trail),
            len(self.applications),
            self._gen,
            tuple(self._raw_rows),
        )

    def snapshot(self) -> int:
        """Emit ``("snapshot",)`` and push a rollback mark; returns the
        stack depth."""
        self._emit(("snapshot",))
        self.snapshots.append(self._mark())
        return len(self.snapshots)

    def rollback(self) -> int:
        """Emit ``("rollback",)``, pop the latest mark and restore the
        state it captured; returns the depth of the snapshot restored.

        Raises the coded :class:`~repro.errors.OpError`
        ``E_ROLLBACK_UNDERFLOW`` when no snapshot is outstanding.
        """
        if not self.snapshots:
            raise OpError(
                "E_ROLLBACK_UNDERFLOW",
                "rollback without a snapshot",
                hint="every rollback needs an earlier unmatched snapshot",
            )
        self._emit(("rollback",))
        self._restore(self.snapshots.pop())
        return len(self.snapshots) + 1

    def discard_snapshots(self) -> int:
        """Emit ``("discard",)`` and drop every outstanding mark *without*
        rolling back; returns how many were dropped (0, and no record,
        when none were)."""
        if not self.snapshots:
            return 0
        self._emit(("discard",))
        discarded = len(self.snapshots)
        self.snapshots.clear()
        return discarded

    @_audited
    def _restore(self, mark: _Mark) -> None:
        """Restore the state ``mark`` captured.

        Fast path — no rewind happened since the mark — pops the trail
        back to it.  Otherwise (an intervening delete/update rewound below
        it) the session rebuilds from the mark's raw rows; either way the
        restored state is exact.
        """
        if mark.gen == self._gen and mark.mark <= len(self._trail):
            self._undo_to(mark.mark, mark.apps)
        else:
            self._rebuild(list(mark.rows))

    @contextmanager
    def dry_run(self) -> Iterator[None]:
        """Run a block of ops, then undo it as if it never ran.

        On exit the session is restored to a private mark taken where the
        block started (not on the stack, and emitting nothing), the
        snapshot stack is put back as it was found, and :meth:`stats`
        forgets the block's op outcomes and its undo.  When the undo is a
        pure trail pop (nothing in the block rewound), the trail is again
        exactly what it was, so the generation and the rewrite guard are
        restored too: :attr:`cut` reads as before, and leases and
        snapshots taken before the block stay fast.  That is sound only
        because no lease taken *inside* the block outlives it — the
        caller must not let one escape.  A block that rewound keeps its
        generation bump, and its undo is a level rebuild.
        """
        counters = dict(self._stats)
        ratchet = self._ratchet_mark
        stack = list(self.snapshots)
        start = self._mark()
        try:
            yield
        finally:
            popped = start.gen == self._gen and start.mark <= len(self._trail)
            self._restore(start)
            self.snapshots[:] = stack
            if popped:
                self._gen = start.gen
                self._ratchet_mark = ratchet
            self._stats.update(counters)

    # -- trail machinery ---------------------------------------------------

    def _undo_to(self, mark: int, apps: int) -> None:
        """Pop the trail down to ``mark``, inverting every mutation."""
        trail = self._trail
        uf = self.uf
        occ = self._occ
        tags = self.tags
        while len(trail) > mark:
            entry = trail.pop()
            kind = entry[0]
            if kind == "uf":
                uf.undo_union(entry[1], entry[2])
            elif kind == "tags":
                _, a, tag_a, b, tag_b = entry
                tags[a] = tag_a
                tags[b] = tag_b
            elif kind == "occmv":
                _, survivor, absorbed, count, existed = entry
                moved_list = occ[survivor]
                occ[absorbed] = moved_list[-count:]
                del moved_list[-count:]
                if not existed:
                    del occ[survivor]
            elif kind == "sig":
                _, key, old = entry
                if old is None:
                    del self._sigs[key]
                else:
                    self._sigs[key] = old
            elif kind == "ancnew":
                del self._anchors[entry[1]]
            elif kind == "ancdel":
                self._anchors[entry[1]] = entry[2]
            elif kind == "occapp":
                occ[entry[1]].pop()
            elif kind == "occnew":
                del occ[entry[1]]
            elif kind == "wt":
                uf.add_weight(entry[1], -1)
            elif kind == "memdel":
                _, key, row = entry
                bucket = self._members.get(key)
                if bucket is None:
                    self._members[key] = {row: None}
                else:
                    # re-added at the end, not at the old position: member
                    # order is unobservable (it only picks the promoted
                    # anchor, and anchor choice is unobservable — Theorem 4)
                    bucket[row] = None
            elif kind == "memapp":
                _, key, row = entry
                bucket = self._members[key]
                del bucket[row]
                if not bucket:
                    del self._members[key]
            elif kind == "wit":
                _, first, second = entry
                witness = self._row_witness
                witness[first] -= 1
                witness[second] -= 1
            elif kind == "cells":
                self.cells.pop()
            elif kind == "raw":
                self._raw_rows.pop()
                self._marks.pop()
                self._slots.pop()
            elif kind == "rawset":
                self._raw_rows[entry[1]] = entry[2]
            elif kind == "newnull":
                _, key, node = entry
                del self._null_nodes[key]
                del self._null_objects[key]
                del tags[node]
                uf.drop_newest(node)
            elif kind == "newconst":
                _, key, node = entry
                del self._const_nodes[key]
                del tags[node]
                uf.drop_newest(node)
            elif kind == "dereg":
                _, key, null_obj, node, position = entry
                items = list(self._null_nodes.items())
                items.insert(position, (key, node))
                self._null_nodes = dict(items)
                self._null_objects[key] = null_obj
            else:  # pragma: no cover - "newnothing" never fires post-install
                node = entry[1]
                self._nothing_node = None
                del tags[node]
                uf.drop_newest(node)
        del self.applications[apps:]
        self._gen += 1
        # an undo that crossed the latest rewrite reverted it (a rollback's
        # job); anything older is still guarded at the new trail top
        self._ratchet_mark = min(self._ratchet_mark, len(trail))

    def _rebuild(self, rows: List[Row]) -> None:
        """Level rebuild: re-chase ``rows`` from scratch in place."""
        self._stats["level_rebuild"] += 1
        generation = self._gen
        fds = self.fds
        SignatureChaseCore.__init__(self, self.schema, fds)
        self._install()
        self._gen = generation + 1
        for row in rows:
            self._insert(row)

    # -- Theorem-4 views ---------------------------------------------------

    def stats(self) -> Dict[str, int]:
        """Cumulative op-outcome counters (survive level rebuilds).

        * ``retire_fast`` — deletes/replaces served by in-place retirement
          (:meth:`_retire`): no rewind, no replay.
        * ``trail_replay`` — deletes/replaces/fills that rewound the trail
          to the victim's mark and replayed the surviving suffix.
        * ``level_rebuild`` — full re-chases, from any cause: deep-victim
          deletes, ratchet-guarded rewinds, invalidated-snapshot
          rollbacks, :meth:`reset`, :meth:`compact`, adopt hazards.

        Benchmarks and tests assert against these to prove the fast path
        actually fires (and that rebuilds stay bounded) instead of
        trusting wall-clock alone.
        """
        return dict(self._stats)

    def _result_cells(self) -> List[List[int]]:
        """Encoded rows in external order (slot indirection applied)."""
        cells = self.cells
        return [cells[slot] for slot in self._slots]

    def result(self, strategy: str = STRATEGY_SESSION) -> "ResultAnswer":
        """The maintained fixpoint (a :class:`ChaseResult` that also
        speaks the unified answer schema — see :class:`ResultAnswer`).

        Its ``applications`` name rows by index, as a batch chase's do.
        The engine records slots, which part from indices once an
        in-place retirement leaves a tombstone (a replace's rotation
        needs one first); only then are the firings remapped.
        """
        answer = ResultAnswer(super().result(strategy))
        slots = self._slots
        if len(slots) != len(self.cells):
            row_of = {slot: index for index, slot in enumerate(slots)}
            answer.applications = [
                Application(
                    app.fd,
                    row_of[app.first_row],
                    row_of[app.second_row],
                    app.attribute,
                    app.action,
                )
                for app in answer.applications
            ]
        return answer

    @property
    def has_nothing(self) -> bool:
        """Live Theorem 4(b) verdict: weak satisfiability fails iff True.

        Every NOTHING cell is in the one nothing class (see
        :mod:`repro.chase.engine`), so this reads whether that class
        holds a cell.  Weak satisfiability over unbounded domains: a
        declared finite domain is not consulted (see
        :func:`repro.chase.minimal.weakly_satisfiable`)."""
        return bool(self._occ.get(self.uf.find(self._nothing_node)))

    def substitutions(self) -> Dict[Null, Any]:
        """Null → forced value, for every null the constraints ground
        (``NOTHING`` for nulls in poisoned classes) — the substitution
        view of :meth:`result` without materializing the relation."""
        find = self.uf.find
        out: Dict[Null, Any] = {}
        for key, node in self._null_nodes.items():
            kind, payload = self.tags[find(node)]
            if kind == _TAG_CONST:
                out[self._null_objects[key]] = payload
            elif kind == _TAG_NOTHING:
                out[self._null_objects[key]] = NOTHING
        return out

    def check(
        self,
        fds: Optional[Iterable[FDInput]] = None,
        convention: str = "weak",
        method: str = "auto",
        null_classes: Optional[Mapping[Null, Any]] = None,
    ):
        """TEST-FDs against the maintained instance.

        With ``fds=None`` the session's own FD set is checked.  Under the
        weak convention Theorem 3's minimal-incompleteness precondition
        holds by construction (the session state is a chase fixpoint), so
        no ``ensure_minimal`` chase is ever needed.  A poisoned session
        (``has_nothing``) is rejected by TEST-FDs like any
        NOTHING-bearing instance.
        """
        from ..testfd import CheckAnswer, check_fds  # local: avoids import cycle

        outcome = check_fds(
            self.result().relation,
            list(self.fds) if fds is None else fds,
            convention=convention,
            method=method,
            null_classes=null_classes,
        )
        return CheckAnswer.wrap(outcome, convention)

    def explain(self) -> str:
        """The narrated chase of the maintained instance."""
        from ..explain import explain_chase  # local: avoids import cycle

        return explain_chase(self.result())

    def lease(self) -> "ReadLease":
        """An O(1) consistent-cut read handle (see :class:`ReadLease`).

        The snapshot-isolation primitive the serving layer's read path is
        built on: readers hold the lease, the session keeps mutating."""
        return ReadLease(self)


class ReadLease:
    """A consistent-cut read handle on a :class:`ChaseSession`.

    Taking a lease costs one raw-row tuple copy — the rows a mark on the
    session's snapshot stack records, minus the trail position, because a
    lease can never roll the session back; it can only *read* the state
    as of the cut, through :meth:`instance`:

    * **live** — while the source session is provably unchanged (its
      :attr:`~ChaseSession.cut` still equals the lease's :attr:`cut`;
      every session mutation moves it), the live session itself: no
      copy, no re-chase.  Only valid where nothing can mutate the
      session mid-read.
    * **detached** — once the session has moved on, or when
      ``detached=True`` forces isolation, the lease's own private
      session, chased from the frozen raw rows from scratch (built once,
      cached).  The cost lands on the reader alone: the source session
      is never touched again, so a writer never waits on however slow a
      reader is.  By the session invariant (maintained fixpoint ==
      from-scratch chase of the raw rows, field-identically) it answers
      what the source would have answered at the cut.
    """

    __slots__ = ("rows", "cut", "_session", "_schema", "_fds", "_detached")

    def __init__(self, session: ChaseSession) -> None:
        self._session = session
        self._schema = session.schema
        self._fds = tuple(session.fds)
        #: the frozen raw rows at the cut (shared Row objects, never
        #: mutated in place by the session — rewrites replace rows)
        self.rows: Tuple[Row, ...] = tuple(session._raw_rows)
        #: the source session's :attr:`~ChaseSession.cut` when leased
        self.cut: Tuple[int, int] = session.cut
        self._detached: Optional[ChaseSession] = None

    @property
    def fresh(self) -> bool:
        """True while the source session still *is* the cut."""
        return self._detached is None and self._session.cut == self.cut

    def instance(self, detached: bool = False) -> ChaseSession:
        """The session to read from: the live source while :attr:`fresh`
        (unless ``detached`` forces isolation), else the lease's own
        chase of the frozen rows."""
        if not detached and self.fresh:
            return self._session
        if self._detached is None:
            self._detached = ChaseSession(self._schema, self._fds, rows=list(self.rows))
        return self._detached
