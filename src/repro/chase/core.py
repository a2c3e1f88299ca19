"""The session's chase core: occurrence index, signature buckets,
weighted union-find, worklist.

The batch chase recomputes a fixpoint once; the session
(:class:`~repro.chase.session.ChaseSession`) must *maintain* one across
inserts, deletes and rollbacks, so it needs every structure below kept
live and journalled.  This module is that bookkeeping — the machinery of
the paper's Downey-Sethi-Tarjan footnote:

1. **Precomputed projections.**  Each FD's left-hand column indices are
   resolved once per state (``ChaseState._columns_of``); no
   ``schema.position`` call survives in any inner loop.

2. **Occurrence index.**  A reverse index ``class root → [(row, col)]``
   tracks which cells live in which class.  It doubles as the *use list*
   of classic congruence closure: the terms using a class are exactly the
   ``(fd, row)`` pairs whose row owns one of its cells with the column on
   the FD's left-hand side.

3. **Occurrence-weighted union.**  Each node's union-find weight is its
   cell-occurrence count, so the class whose occurrence list is longer
   always survives a merge and only the short list moves.  Union by *node*
   count gets this wrong for interned constants — one node standing for
   hundreds of cells — which are precisely the classes that grow hot in
   poisoning cascades.

4. **Signature buckets + worklist.**  Per FD, a hash table maps the
   current X-signature (tuple of class roots) to an *anchor* row, and a
   parallel member table records every row bucketed under that signature
   (the use-list inverse a deletion needs: "who shares the victim's
   bucket").  A row whose signature lands on an occupied slot **fires**
   the NS-rule against the anchor.
   When a union absorbs a class (:meth:`_moved`, which every merge calls
   right after the union, *nothing*-poisoning ones included), only the
   rows owning an absorbed cell are dirtied — pushed as ``(fd, row)``
   pairs onto a worklist for re-signing.
   Rows whose signatures mention the absorbed root necessarily own such a
   cell, so anchor-table invalidation is complete.  Total re-signing work
   is proportional to cells-moved × FDs-per-column, with weighted union
   bounding how often any cell can move — the near-linear bound of the
   paper's footnote.

The session drives the worklist itself (one drain per op).  Theorem 4
(finite Church-Rosser in extended mode) is what makes its worklist order
land on the batch engines' partition; ``tests/chase/test_session.py`` and
``tests/chase/test_indexed.py`` pin it field-by-field against the vector
and sweep engines.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Tuple, Union

from ..core.fd import FDInput
from ..core.relation import Relation
from ..core.schema import RelationSchema
from .engine import MODE_EXTENDED, ChaseState

#: an X-signature: a bare class root for single-attribute left-hand sides,
#: a root tuple otherwise (the two cannot collide as dict keys)
Signature = Union[int, Tuple[int, ...]]


class SignatureChaseCore(ChaseState):
    """Extended-mode chase state with the index/worklist machinery.

    The subclass (the session) installs the trail every edit below is
    journalled on, fills :attr:`_work` and drains it through :meth:`_sign`.
    """

    def __init__(self, schema: RelationSchema, fds: Iterable[FDInput]) -> None:
        # rows enter one at a time through the session's insert path,
        # which extends every structure below and journals each edit
        super().__init__(Relation(schema, ()), fds, MODE_EXTENDED)
        # lhs projections, resolved once (point 1 of the module doc)
        self._lhs_cols: List[Tuple[int, ...]] = [
            self._columns_of(fd)[1] for fd in self.fds
        ]
        #: col -> FD indices with that column on their left-hand side; only
        #: those FDs can see a row's signature change when the cell moves
        self._lhs_fds_by_col: List[List[int]] = [
            [] for _ in range(len(self.schema))
        ]
        for k, cols in enumerate(self._lhs_cols):
            for col in set(cols):
                self._lhs_fds_by_col[col].append(k)
        #: occurrence index: class root -> cells [(row, col)] in that class;
        #: each node's union-find weight tracks its occurrence count
        #: (point 3), so merges keep the occurrence-heavy class as root and
        #: move the short list
        self._occ: Dict[int, List[Tuple[int, int]]] = {}
        #: current signature per (fd index, row)
        self._sigs: Dict[Tuple[int, int], Signature] = {}
        #: (fd index, signature) -> anchor row
        self._anchors: Dict[Tuple[int, Signature], int] = {}
        #: (fd index, signature) -> *all* rows currently bucketed there,
        #: as an insertion-ordered set (dict keyed by row).  The anchor
        #: table answers "who do I fire against"; the member list answers
        #: the inverse question a deletion asks — "who else is in the
        #: victim's bucket" — so the session can excise a retired row and
        #: promote a surviving member to anchor without replaying the
        #: suffix.  Mirrors ``_sigs`` exactly:
        #: ``_members[(k, s)] == {row : _sigs[(k, row)] == s}``
        #: (pinned by the integrity property suite).  Member *order* is
        #: not semantically observable (anchor choice is unobservable in
        #: extended mode — Theorem 4), which is what lets the trail undo
        #: re-add members at the end instead of at their old position.
        self._members: Dict[Tuple[int, Signature], Dict[int, None]] = {}
        #: rows whose signature may have changed, as (fd index, row)
        self._work: Deque[Tuple[int, int]] = deque()

    # -- index maintenance ----------------------------------------------------

    def _moved(self, survivor: int, absorbed: int) -> None:
        """Move the absorbed class's cells; dirty only their rows."""
        moved = self._occ.pop(absorbed, None)
        if not moved:
            return
        target = self._occ.get(survivor)
        if target is None:
            self._occ[survivor] = target = []
            existed = False
        else:
            existed = True
        target.extend(moved)
        self._trail.append(("occmv", survivor, absorbed, len(moved), existed))
        work = self._work
        by_col = self._lhs_fds_by_col
        for row, col in moved:
            for k in by_col[col]:
                work.append((k, row))

    def _sign(self, k: int, row: int) -> None:
        """(Re-)bucket one row for one FD; fire against the anchor on hit."""
        find = self.uf.find
        cells_row = self.cells[row]
        cols = self._lhs_cols[k]
        if len(cols) == 1:
            # single-attribute lhs (the common case): a bare root is a
            # cheaper signature than a 1-tuple, and int/tuple keys cannot
            # collide in the bucket tables
            sig = find(cells_row[cols[0]])
        else:
            sig = tuple(find(cells_row[col]) for col in cols)
        key = (k, row)
        old = self._sigs.get(key)
        if old == sig:
            return  # duplicate worklist entry; already processed
        trail = self._trail
        members = self._members
        if old is not None:
            if self._anchors.get((k, old)) == row:
                # rows still bucketed under the stale signature (if any)
                # hold a cell of the absorbed class themselves, so they are
                # on the worklist too — dropping the slot cannot orphan them
                del self._anchors[(k, old)]
                trail.append(("ancdel", (k, old), row))
            stale = members[(k, old)]
            del stale[row]
            if not stale:
                del members[(k, old)]
            trail.append(("memdel", (k, old), row))
        self._sigs[key] = sig
        trail.append(("sig", key, old))
        bucket = members.get((k, sig))
        if bucket is None:
            members[(k, sig)] = {row: None}
        else:
            bucket[row] = None
        trail.append(("memapp", (k, sig), row))
        anchor = self._anchors.get((k, sig))
        if anchor is None:
            # a row anchored under `sig` would have matched the early
            # return above, so a present anchor is always a *different* row
            self._anchors[(k, sig)] = row
            trail.append(("ancnew", (k, sig)))
        elif anchor != row:
            # a signature collision is an NS-rule application site; any
            # merge it causes re-enters the worklist through _moved
            self._apply_pair(self.fds[k], anchor, row)
