"""Batched TEST-FDs: hash grouping, one grouping per distinct left-hand side.

Figure 3's "Additional Assumptions" note that bucket sort brings the sort
down to ``O(n·p)``; on equality keys the natural realization of bucket sort
is dictionary grouping on X-keys.  Done per FD, that grouping re-derives
the same row buckets once per dependency, even when the FD set is
``A -> B, A -> C, A -> D`` and the three keys are identical.  Real FD sets
are full of shared left-hand sides — a key determines many attributes, and
canonical covers list one FD per determined attribute — so the X-key work
(the dominant per-row cost: a tuple build plus a class lookup per LHS
column) would multiply by the number of dependencies for no reason.

:func:`check_fds_batched` groups the FD set by left-hand side *as a column
set*, buckets each distinct X once, and decides every ``X -> Y_i`` of the
group from that single grouping: per bucket it keeps one anchor per
Y-column of the *union* of the group's right-hand sides, and a single row
scan records, for each member FD, the first violation it would have found.
Cost is one key computation per row per **distinct** LHS, with the same
``O(n · p)`` bound otherwise.  Key-equality coincides with the weak
convention's equality comparison; under the strong convention it does only
on null-free left-hand sides (as with sort-merge), so a null-bearing LHS
raises :class:`~repro.errors.ConventionError` and
``check_fds(method="auto")`` falls back to the pairwise variant.

The contract is exact equivalence with **per-FD grouping** — calling
:func:`check_fds_batched` once per FD in input order and returning the
first witness — in outcome, witness and strong-convention rejection
behavior.  That takes some care, because per-FD grouping's observable
behavior depends on its FD-major iteration order:

* it returns the witness of the **first FD in input order** that has a
  violation (it never looks at later FDs once one fails); the batched scan
  therefore records per-FD witnesses and answers from the input order, not
  from whichever violation sits at the smallest row index.
* per FD, its witness is the first ``(row, rhs-attr)`` conflict in
  row-major, rhs-order scan; the batched scan preserves exactly that by
  checking each still-unviolated member's rhs columns in order per row.
* under the strong convention it raises :class:`ConventionError` for a
  null-bearing LHS **when it reaches that FD** — after earlier FDs were
  checked (and possibly returned a witness).  Batching scans groups
  lazily, at the input position of each group's first member, so the
  raise-vs-witness race resolves identically.

Anchor evolution depends only on the bucket and the Y-column (never on
which FD asked), so sharing anchors across a group's members is lossless;
the differential suite (``tests/testfd/test_batched_property.py``) pins
witness-identity against per-FD grouping and outcome-identity against
pairwise and sort-merge on randomized instances under both conventions.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from ..core.fd import FD, FDInput, as_fd
from ..core.relation import Relation
from ..core.values import Null, is_null
from ..errors import ConventionError
from .conventions import (
    CONVENTION_STRONG,
    CONVENTION_WEAK,
    class_function,
    ensure_no_nothing,
)
from .pairwise import TestFDsOutcome, Witness


def _group_scan(
    relation: Relation,
    members: List[Tuple[int, FD, Tuple[Tuple[str, int], ...]]],
    lhs_cols: Tuple[int, ...],
    convention: str,
    class_of,
) -> Dict[int, Witness]:
    """One bucket pass deciding every member FD of one LHS group.

    ``members`` are ``(input position, fd, ((rhs attr, col), ...))`` in
    input order; returns the per-FD grouping's first witness per violated
    input position.  The scan stops once the group's *first* member is
    violated: the caller walks FDs in input order, so it returns that
    witness before any later member of this group could be consulted —
    matching per-FD grouping's early return without losing a verdict
    anyone reads.
    """
    union_cols: List[int] = []
    for _, _, rhs_cols in members:
        for _, col in rhs_cols:
            if col not in union_cols:
                union_cols.append(col)
    first_position = members[0][0]

    witnesses: Dict[int, Witness] = {}
    weak = convention == CONVENTION_WEAK
    single = len(lhs_cols) == 1
    lhs_col = lhs_cols[0] if single else -1
    # bucket -> per-Y-column (anchor value, anchor row); same constant-
    # preferring anchor refinement as sort-merge.  The inequality
    # comparison is ``y_unequal`` inlined: ``ensure_no_nothing`` already
    # vetted every cell, so only the null/constant case analysis remains.
    buckets: Dict[Any, Dict[int, Tuple[Any, int]]] = {}
    for index, values in enumerate(row.values for row in relation.rows):
        if single:
            value = values[lhs_col]
            key = ("null", class_of(value)) if is_null(value) else ("const", value)
        else:
            key = tuple(
                ("null", class_of(value)) if is_null(value) else ("const", value)
                for value in (values[c] for c in lhs_cols)
            )
        anchors = buckets.get(key)
        if anchors is None:
            buckets[key] = {c: (values[c], index) for c in union_cols}
            continue
        # each Y-column's anchor update / conflict verdict is FD-agnostic:
        # compute it once, then attribute conflicts per member in rhs order
        conflicts: Optional[Dict[int, int]] = None
        for c in union_cols:
            anchor_value, anchor_index = anchors[c]
            value = values[c]
            if weak:
                if is_null(value):
                    continue  # a null never compares unequal (Theorem 3)
                if is_null(anchor_value):
                    anchors[c] = (value, index)  # constant-preferring anchor
                    continue
                if anchor_value == value:
                    continue
            else:
                anchor_null, value_null = is_null(anchor_value), is_null(value)
                if anchor_null and value_null:
                    if class_of(anchor_value) == class_of(value):
                        continue
                elif not (anchor_null or value_null) and anchor_value == value:
                    continue
                # a lone null compares unequal to anything (Theorem 2)
            if conflicts is None:
                conflicts = {}
            conflicts[c] = anchor_index
        if conflicts is None:
            continue
        for position, fd, rhs_cols in members:
            if position in witnesses:
                continue
            for attr, c in rhs_cols:
                if c in conflicts:
                    witnesses[position] = Witness(fd, conflicts[c], index, attr)
                    break
        if first_position in witnesses:
            break  # the walk returns this witness; nothing later is read
    return witnesses


def check_fds_batched(
    relation: Relation,
    fds: Iterable[FDInput],
    convention: str = CONVENTION_WEAK,
    null_classes: Optional[Mapping[Null, Any]] = None,
) -> TestFDsOutcome:
    """TEST-FDs by hash grouping, batched over shared left-hand sides.

    Equivalent to calling it once per FD in input order — same outcome,
    same witness, same strong-convention rejections — at one grouping per
    *distinct* LHS instead of per FD.
    """
    ensure_no_nothing(relation)
    class_of = class_function(null_classes)
    schema = relation.schema
    fd_list = [as_fd(f).normalized() for f in fds]

    # input position -> (group key, fd, rhs columns); trivial FDs never
    # fire, so they join no group
    plan: List[Tuple[frozenset, FD, Tuple[Tuple[str, int], ...]]] = []
    group_lhs: Dict[frozenset, Tuple[int, ...]] = {}
    for fd in fd_list:
        if fd.is_trivial():
            plan.append((frozenset(), fd, ()))
            continue
        lhs_cols = tuple(schema.position(a) for a in fd.lhs)
        group = frozenset(lhs_cols)
        # the bucket partition is insensitive to LHS column order, so the
        # first member's order serves the whole group
        group_lhs.setdefault(group, lhs_cols)
        plan.append((group, fd, tuple((a, schema.position(a)) for a in fd.rhs)))

    members_of: Dict[frozenset, List[Tuple[int, FD, Tuple[Tuple[str, int], ...]]]] = {}
    for position, (group, fd, rhs_cols) in enumerate(plan):
        if group:
            members_of.setdefault(group, []).append((position, fd, rhs_cols))

    scanned: Dict[frozenset, Dict[int, Witness]] = {}
    for position, (group, fd, _) in enumerate(plan):
        if not group:
            continue
        verdicts = scanned.get(group)
        if verdicts is None:
            lhs_cols = group_lhs[group]
            if convention == CONVENTION_STRONG and any(
                is_null(row.values[c])
                for row in relation.rows
                for c in lhs_cols
            ):
                raise ConventionError(
                    "batched TEST-FDs cannot group nulls under the strong "
                    "convention; use check_fds_pairwise"
                )
            verdicts = _group_scan(
                relation, members_of[group], lhs_cols, convention, class_of
            )
            scanned[group] = verdicts
        witness = verdicts.get(position)
        if witness is not None:
            return TestFDsOutcome(False, witness)
    return TestFDsOutcome(True, None)
