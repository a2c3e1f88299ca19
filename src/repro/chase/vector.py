"""The extended-mode chase: one vector state over the FD-mentioned columns.

This is the engine behind ``chase(mode="extended")``.  Instead of the
session's per-``(fd, row)`` signature dict
(:class:`~repro.chase.core.SignatureChaseCore`), which a batch run would
build only to throw away, it keeps a **flat integer array of class roots
per column** (stdlib ``array('q')``).
Every merge rewrites the moved cells' slots in place (:meth:`_moved`),
so after any burst of merges, regrouping an FD is one linear pass over its
column slices — no ``find`` calls, no per-row dict updates — rebucketing
rows by reading machine integers out of contiguous memory.

Soundness of the regroup-until-clean loop: a merge that changes some row's
X-signature for FD ``k`` necessarily moved one of that row's ``k``-lhs
cells, and :meth:`_moved` re-dirties ``k`` whenever that happens — including for
merges fired *during* ``k``'s own regroup pass.  So when the dirty set
drains empty, the last regroup of every FD ran over signatures that were
stable throughout the pass, i.e. a true fixpoint check.  Termination: a
regroup either fires a class-reducing merge or retires its FD from the
dirty set, and only merges re-add entries.

**Column bypass.**  An NS-rule for ``X -> Y`` reads and writes only cells
of ``X ∪ Y``, so a column no FD mentions leaves the chase as it entered.
:func:`extended_chase` therefore builds its state over the FD-mentioned
columns only and splices the others back (:func:`_splice`); which path
runs is read off the schema and the FD set alone.

The result is field-identical to the sweep engine and the session
(Theorem 4); ``tests/chase/test_indexed.py`` and
``tests/chase/test_bypass.py`` pin it against sweep on randomized
instances.  Under ``REPRO_SANITIZE=1`` every fixpoint is audited
(:func:`repro.analysis.sanitize.audit_core`), root arrays included.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from operator import itemgetter
from typing import Any, Dict, Iterable, List, Sequence, Set, Tuple

from ..core.fd import FDInput, as_fd
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.tuples import Row
from ..core.values import Null
from .engine import MODE_EXTENDED, ChaseResult, ChaseState

class VectorChaseState(ChaseState):
    """Extended-mode chase over maintained per-column root arrays."""

    def __init__(self, relation: Relation, fds: Iterable[FDInput]) -> None:
        super().__init__(relation, fds, MODE_EXTENDED)
        self._lhs_cols: List[Tuple[int, ...]] = [
            self._columns_of(fd)[1] for fd in self.fds
        ]
        #: col -> FD indices with that column on their left-hand side
        self._lhs_fds_by_col: List[List[int]] = [
            [] for _ in range(len(self.schema))
        ]
        for k, cols in enumerate(self._lhs_cols):
            for col in set(cols):
                self._lhs_fds_by_col[col].append(k)
        n_rows = len(self.cells)
        #: per-column root arrays: ``_roots[c][r] == uf.find(cells[r][c])``,
        #: maintained eagerly by :meth:`_moved`.  Fresh states intern every
        #: cell to a root node, so the initial copy is already correct.
        self._roots: List[array] = [
            array("q", (self.cells[r][c] for r in range(n_rows)))
            for c in range(len(self.schema))
        ]
        #: occurrence index, as in the worklist core: root -> [(row, col)]
        self._occ: Dict[int, List[Tuple[int, int]]] = {}
        for row, encoded in enumerate(self.cells):
            for col, node in enumerate(encoded):
                self._occ.setdefault(node, []).append((row, col))
        for node, cells in self._occ.items():
            self.uf.set_weight(node, len(cells))
        #: FDs whose signature groups may be stale
        self._dirty: Set[int] = set()

    def _moved(self, survivor: int, absorbed: int) -> None:
        """Rewrite the moved cells' root slots; dirty the FDs that look."""
        moved = self._occ.pop(absorbed, None)
        if not moved:
            return
        self._occ.setdefault(survivor, []).extend(moved)
        roots = self._roots
        dirty = self._dirty
        by_col = self._lhs_fds_by_col
        for row, col in moved:
            roots[col][row] = survivor
            fds_here = by_col[col]
            if fds_here:
                dirty.update(fds_here)

    # -- fixpoint -------------------------------------------------------------

    def run_vectorized(self) -> None:
        """Regroup dirty FDs until no regroup dirties anything."""
        dirty = self._dirty
        dirty.update(range(len(self.fds)))
        while dirty:
            k = dirty.pop()
            self.passes += 1
            self._regroup(k)
        from ..analysis import sanitize  # local: keeps the engine import-light

        if sanitize.enabled():
            sanitize.audit_core(self)

    def _regroup(self, k: int) -> None:
        """One linear pass over FD ``k``'s lhs column slices: bucket rows
        by signature, fire the NS-rule on every collision."""
        fd = self.fds[k]
        cols = self._lhs_cols[k]
        anchors: Dict = {}
        apply_pair = self._apply_pair
        if len(cols) == 1:
            for row, sig in enumerate(self._roots[cols[0]]):
                anchor = anchors.setdefault(sig, row)
                if anchor != row:
                    apply_pair(fd, anchor, row)
        else:
            arrays = [self._roots[c] for c in cols]
            for row in range(len(self.cells)):
                sig = tuple(arr[row] for arr in arrays)
                anchor = anchors.setdefault(sig, row)
                if anchor != row:
                    apply_pair(fd, anchor, row)


def extended_chase(
    relation: Relation, fds: Iterable[FDInput], strategy: str
) -> ChaseResult:
    """The unique minimally incomplete instance of Theorem 4 — what
    ``chase(relation, fds)`` runs in extended mode.

    One :class:`VectorChaseState` runs over the columns some FD mentions;
    the other columns are spliced back unchanged, but for the nulls the
    chase grounded or merged.  With every column mentioned there is
    nothing to splice, and with no FD the input is already the fixpoint.
    """
    schema = relation.schema
    fd_list = [as_fd(fd).validate(schema).normalized() for fd in fds]
    columns = sorted(
        {col for fd in fd_list for col in schema.positions(fd.lhs + fd.rhs)}
    )
    if not columns:
        return ChaseResult(
            Relation(schema, relation.rows), [], {}, [], 0, MODE_EXTENDED, strategy
        )
    if len(columns) == len(schema):
        state = VectorChaseState(relation, fd_list)
        state.run_vectorized()
        return state.result(strategy)
    sub = Relation(
        RelationSchema(schema.name, [schema.attributes[c] for c in columns]),
        [[row.values[c] for c in columns] for row in relation.rows],
    )
    state = VectorChaseState(sub, fd_list)
    state.run_vectorized()
    return _splice(relation, columns, state.result(strategy))


def _splice(
    relation: Relation, columns: Sequence[int], chased: ChaseResult
) -> ChaseResult:
    """Put ``chased`` (the chase of ``relation``'s ``columns``) back into
    the full rows, field-identical to an all-columns chase.

    The engines show each NEC class as its earliest-registered member,
    registered in row-major order over *all* columns.  While no null sits
    in a bypassed column, the sub-state's registration order is that
    order and only the columns need interleaving.  Otherwise every null is
    ranked by its first row-major occurrence over all columns, class
    members, classes and substitutions are sorted by that rank, and every
    cell holding a superseded representative or a grounded null — in a
    chased column or a bypassed one — is rewritten.
    """
    schema = relation.schema
    width = len(schema)
    # output column c reads the input row at c, or chased column k at
    # width + k of the input row and the chased row laid end to end
    source = list(range(width))
    for k, col in enumerate(columns):
        source[col] = width + k
    pick = itemgetter(*source)
    spliced = [
        pick(row.values + chased_row.values)
        for row, chased_row in zip(relation.rows, chased.relation.rows)
    ]
    bypassed = set(range(width)).difference(columns)
    nec_classes = chased.nec_classes
    substitutions = chased.substitutions
    if any(
        isinstance(row.values[col], Null)
        for row in relation.rows
        for col in bypassed
    ):
        rank: Dict[int, int] = {}
        for row in relation.rows:
            for value in row.values:
                if isinstance(value, Null) and id(value) not in rank:
                    rank[id(value)] = len(rank)

        def first_seen(null_obj: Null) -> int:
            return rank[id(null_obj)]

        nec_classes = sorted(
            (tuple(sorted(cls, key=first_seen)) for cls in nec_classes),
            key=lambda cls: first_seen(cls[0]),
        )
        substitutions = dict(
            sorted(substitutions.items(), key=lambda item: first_seen(item[0]))
        )
        #: id(null) -> what a cell holding that null shows
        shown: Dict[int, Any] = {
            id(member): cls[0] for cls in nec_classes for member in cls[1:]
        }
        shown.update(
            (id(null_obj), value) for null_obj, value in substitutions.items()
        )
        spliced = [
            [shown.get(id(v), v) if isinstance(v, Null) else v for v in values]
            for values in spliced
        ]
    return replace(
        chased,
        relation=Relation(schema, [Row(schema, values) for values in spliced]),
        nec_classes=nec_classes,
        substitutions=substitutions,
    )
