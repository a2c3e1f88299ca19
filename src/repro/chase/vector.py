"""The batch extended-mode chase: maintained per-column root arrays.

This is the engine behind ``chase(mode="extended")`` and behind every
shard of :func:`~repro.chase.sharded.sharded_chase`.  Instead of the
session's per-``(fd, row)`` signature dict
(:class:`~repro.chase.core.SignatureChaseCore`), which a batch run would
build only to throw away, it keeps a **flat integer array of class roots
per column** (stdlib ``array('q')``).
The union-find ``on_union`` hook rewrites the moved cells' slots in place,
so after any burst of merges, regrouping an FD is one linear pass over its
column slices — no ``find`` calls, no per-row dict updates — rebucketing
rows by reading machine integers out of contiguous memory.

Soundness of the regroup-until-clean loop: a merge that changes some row's
X-signature for FD ``k`` necessarily moved one of that row's ``k``-lhs
cells, and the hook re-dirties ``k`` whenever that happens — including for
merges fired *during* ``k``'s own regroup pass.  So when the dirty set
drains empty, the last regroup of every FD ran over signatures that were
stable throughout the pass, i.e. a true fixpoint check.  Termination: a
regroup either fires a class-reducing merge or retires its FD from the
dirty set, and only merges re-add entries.

The result is field-identical to the sweep engine and the session
(Theorem 4); ``tests/chase/test_indexed.py`` pins it against sweep on
randomized instances.  Under ``REPRO_SANITIZE=1`` every fixpoint is
audited (:func:`repro.analysis.sanitize.audit_core`), root arrays
included.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, Set, Tuple

from ..core.fd import FDInput
from ..core.relation import Relation
from .engine import MODE_EXTENDED, ChaseResult, ChaseState

STRATEGY_VECTOR = "vector"


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
        #: maintained eagerly by the union hook.  Fresh states intern every
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
        self.uf.on_union = self._on_union

    def _on_union(self, survivor: int, absorbed: int) -> None:
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


def vectorized_chase(relation: Relation, fds: Iterable[FDInput]) -> ChaseResult:
    """The unique minimally incomplete instance via maintained root arrays —
    what ``chase(relation, fds)`` runs in extended mode."""
    state = VectorChaseState(relation, fds)
    state.run_vectorized()
    return state.result(STRATEGY_VECTOR)
