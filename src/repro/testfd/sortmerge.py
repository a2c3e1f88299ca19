"""TEST-FDs, the sort-merge algorithm of Figure 3: ``O(|F| · n log n)``.

For each FD ``X -> Y``: sort the relation on ``X`` (lexicographically),
then scan; within each run of X-equal tuples, compare every tuple's
``Y``-values against the run's first tuple; answer *no* on the first
positive inequality comparison, *yes* if the scan completes.

Sorting nulls (the paper, Theorem 3's proof): "null values are considered
distinct and their order is not important.  They are never equated unless
they are in the same equivalence class, in which case they appear
together."  Under the weak convention this is realized by sort keys —
constants first (ordered by value), then null classes (ordered by a stable
class ordinal) — making key-equality coincide with the convention's
equality comparison, so the merge scan is exact.

Under the *strong* convention a null compares equal to everything; no total
order realizes that, which is exactly the footnote's reservation.  The
strong sort-merge therefore requires the FD's left-hand side to be
null-free across the instance (then X-keys are plain constants) and raises
:class:`repro.errors.ConventionError` otherwise, deferring to the pairwise
variant (:mod:`repro.testfd.pairwise`).

One refinement over the literal pseudocode: under the weak convention,
"not unequal" is not transitive (a null is not-unequal to *two distinct*
constants), so comparing only against the run's first tuple can miss a
constant/constant conflict hiding behind a leading null — e.g. the run
``Y = [⊥, c1, c2]``.  On *minimally incomplete* instances (Theorem 3's
precondition) the case cannot arise: the NS-rule would have substituted
the null.  To be exact on all inputs at the same complexity, the scan
keeps a **constant-preferring anchor** per Y-attribute: the first constant
of the run once one appears, the first tuple's value until then.  Under
the strong convention not-unequal *is* an equivalence relation (equal
constants / same-class nulls), so the literal first-tuple anchor is
already complete and is used as-is.

:func:`check_single_fd_presorted` is Figure 3's linear special case ("if
there is only one dependency (e.g. BCNF with one key), and the relation is
already sorted, the test requires linear time on the relation size"): the
merge scan without the sort.  It *verifies* sortedness (also linear) rather
than trusting the caller.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Mapping, Optional, Tuple

from ..core.fd import FDInput, as_fd
from ..core.relation import Relation
from ..core.values import Null, constant_key, is_nothing, is_null
from ..errors import ConventionError, InconsistentInstanceError, ReproError
from .conventions import (
    CONVENTION_STRONG,
    CONVENTION_WEAK,
    class_function,
    ensure_no_nothing,
    y_unequal,
)
from .pairwise import TestFDsOutcome, Witness


def _sort_key(value: Any, class_of, class_ordinals: dict) -> Tuple:
    """Total order: constants (by type/value), then null classes."""
    if is_nothing(value):
        raise InconsistentInstanceError(
            "TEST-FDs is undefined on instances containing nothing"
        )
    if is_null(value):
        key = class_of(value)
        ordinal = class_ordinals.setdefault(key, len(class_ordinals))
        return (1, ordinal)
    return (0,) + constant_key(value)


#: Anchor policies for the merge scan (see module docstring).
ANCHOR_CONSTANT_PREFERRING = "constant-preferring"
ANCHOR_LITERAL = "literal"


def check_fds_sortmerge(
    relation: Relation,
    fds: Iterable[FDInput],
    convention: str = CONVENTION_WEAK,
    null_classes: Optional[Mapping[Null, Any]] = None,
    anchor: str = ANCHOR_CONSTANT_PREFERRING,
) -> TestFDsOutcome:
    """The Figure 3 algorithm.  ``O(|F| · n log n)`` comparisons.

    ``anchor`` selects the merge-scan policy: ``"constant-preferring"``
    (default; exact on all inputs) or ``"literal"`` (Figure 3's first-tuple
    anchor verbatim — exact on minimally incomplete inputs, may miss
    conflicts hiding behind a leading null otherwise; kept for the
    faithfulness ablation).  See the module docstring for the strong-
    convention restriction.
    """
    if anchor not in (ANCHOR_CONSTANT_PREFERRING, ANCHOR_LITERAL):
        raise ValueError(f"unknown anchor policy {anchor!r}")
    ensure_no_nothing(relation)
    class_of = class_function(null_classes)
    values = [row.values for row in relation.rows]
    schema = relation.schema
    for fd in (as_fd(f).normalized() for f in fds):
        if fd.is_trivial():
            continue
        lhs_cols = schema.positions(fd.lhs)
        rhs_cols = tuple(zip(fd.rhs, schema.positions(fd.rhs)))

        if convention == CONVENTION_STRONG and any(
            is_null(vals[c]) for vals in values for c in lhs_cols
        ):
            raise ConventionError(
                f"sort-merge TEST-FDs cannot sort nulls under the strong "
                f"convention (FD {fd!r} has nulls on its left-hand side); "
                "use check_fds_pairwise"
            )

        class_ordinals: dict = {}
        keyed: List[Tuple[Tuple, int]] = []
        for index, vals in enumerate(values):
            key = tuple(
                _sort_key(vals[c], class_of, class_ordinals)
                for c in lhs_cols
            )
            keyed.append((key, index))
        keyed.sort(key=lambda pair: pair[0])

        # merge scan: within each run of equal X-keys, compare against a
        # per-attribute anchor (Figure 3's inner loop, with the weak
        # convention's constant-preferring anchor — see module docstring)
        position = 0
        n = len(keyed)
        while position < n:
            first_key, first_index = keyed[position]
            first_values = values[first_index]
            anchors = {
                c: (first_values[c], first_index) for _, c in rhs_cols
            }
            nxt = position + 1
            while nxt < n and keyed[nxt][0] == first_key:
                other_index = keyed[nxt][1]
                other_values = values[other_index]
                for attr, c in rhs_cols:
                    anchor_value, anchor_index = anchors[c]
                    if (
                        anchor == ANCHOR_CONSTANT_PREFERRING
                        and convention == CONVENTION_WEAK
                        and is_null(anchor_value)
                        and not is_null(other_values[c])
                    ):
                        anchors[c] = (other_values[c], other_index)
                        continue
                    if y_unequal(
                        convention, anchor_value, other_values[c], class_of
                    ):
                        return TestFDsOutcome(
                            False,
                            Witness(fd, anchor_index, other_index, attr),
                        )
                nxt += 1
            position = nxt
    return TestFDsOutcome(True, None)


def check_single_fd_presorted(
    relation: Relation,
    fd: FDInput,
    convention: str = CONVENTION_WEAK,
    null_classes: Optional[Mapping[Null, Any]] = None,
) -> TestFDsOutcome:
    """The linear special case: one FD, relation already sorted on its LHS.

    Verifies the sort order (raises :class:`repro.errors.ReproError` when
    the input is not sorted — silently wrong answers are worse than an
    O(n) check), then decides with one adjacent-run scan.
    """
    fd = as_fd(fd).normalized()
    ensure_no_nothing(relation)
    class_of = class_function(null_classes)
    if fd.is_trivial():
        return TestFDsOutcome(True, None)
    lhs_cols = [relation.schema.position(a) for a in fd.lhs]
    rhs_cols = [(a, relation.schema.position(a)) for a in fd.rhs]
    if convention == CONVENTION_STRONG and any(
        is_null(row.values[c]) for row in relation.rows for c in lhs_cols
    ):
        raise ConventionError(
            "the presorted test cannot order nulls under the strong "
            "convention; use check_fds_pairwise"
        )

    class_ordinals: dict = {}
    keys = [
        tuple(_sort_key(row.values[c], class_of, class_ordinals) for c in lhs_cols)
        for row in relation.rows
    ]
    for previous, current in zip(keys, keys[1:]):
        if current < previous:
            raise ReproError(
                "check_single_fd_presorted requires the relation to be "
                "sorted on the FD's left-hand side"
            )

    run_start = 0
    anchors = {
        c: (relation.rows[0].values[c], 0) for _, c in rhs_cols
    } if relation.rows else {}
    for index in range(1, len(relation.rows)):
        row_values = relation.rows[index].values
        if keys[index] != keys[run_start]:
            run_start = index
            anchors = {c: (row_values[c], index) for _, c in rhs_cols}
            continue
        for attr, c in rhs_cols:
            anchor_value, anchor_index = anchors[c]
            if (
                convention == CONVENTION_WEAK
                and is_null(anchor_value)
                and not is_null(row_values[c])
            ):
                anchors[c] = (row_values[c], index)
                continue
            if y_unequal(convention, anchor_value, row_values[c], class_of):
                return TestFDsOutcome(
                    False, Witness(fd, anchor_index, index, attr)
                )
    return TestFDsOutcome(True, None)
