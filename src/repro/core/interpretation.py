"""The extended (null-aware) interpretation of a functional dependency.

Section 4 of the paper extends the classical predicate ``f(t, r)`` to rows
and instances with nulls using the least-extension rule::

    f(t, r) = f_classical(t, r)                     if t[XY], r[XY] total
            = lub { f_classical(t', r') }           otherwise,

where ``r'`` ranges over the completions ``AP(r, XY)`` and ``t'`` is the
completion of ``t`` *inside* ``r'``.  (The paper writes the two completion
sets side by side; the worked examples and Proposition 1 make clear that the
pairing is consistent — an inconsistent pairing would contradict the
``f(t1, r1) = true`` example of Figure 2.)

Three evaluators are provided, from ground truth to paper-fast:

* :func:`evaluate_fd_brute` — enumerate ``AP(r, XY)`` outright (exponential
  in the total number of nulls; the definition itself);
* ``method="enumerate"`` of :func:`evaluate_fd` — enumerate only the
  completions of ``t`` when the rest of the instance is null-free
  (exponential in ``t``'s nulls only);
* ``method="cases"`` — a polynomial decision that generalizes Proposition
  1's case analysis (no enumeration at all; see below).

:func:`proposition1_case` is the *literal* Proposition 1, returning the
matching condition label (``T1``, ``T2``, ``T3``, ``F1``, ``F2``) exactly as
the paper states it.  The literal proposition is knowingly incomplete in one
family of corner cases: when the null-free part of ``r`` *already violates*
``f`` among tuples matching ``t`` (e.g. ``t[X]`` total, ``t[Y]`` null, and
two tuples agreeing with ``t[X]`` but disagreeing on ``Y``), every
substitution for ``t``'s null is violating, so the least-extension value is
``false`` — yet none of F1/F2 applies and the literal reading returns
``unknown``.  The ``cases`` evaluator decides these corners exactly; the
divergence is reproduced and documented in the tests and EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import ReproError
from .attributes import attrs_difference
from .conditions import EqV, all_of, any_of, grounded_truth, neg, null_pools
from .fd import FD, FDInput, as_fd
from .relation import Relation
from .schema import RelationSchema
from .truth import FALSE, TRUE, UNKNOWN, TruthValue, lub
from .tuples import Row
from .values import is_constant, is_null

#: Default cap on brute-force completion enumeration.
DEFAULT_LIMIT = 500_000


class Proposition1Result(NamedTuple):
    """Outcome of the literal Proposition 1 case analysis."""

    value: TruthValue
    condition: Optional[str]  # "T1" | "T2" | "T3" | "F1" | "F2" | None


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------


def _normalize(fd: FD) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Return ``(X, Y)`` with ``Y`` made disjoint from ``X``.

    ``Y`` may come back empty, which means the FD is trivial.
    """
    lhs = fd.lhs
    rhs = attrs_difference(fd.rhs, fd.lhs)
    return lhs, rhs


def _other_rows(row: Row, relation: Relation) -> List[Row]:
    """Rows of ``relation`` other than ``row`` (by object identity).

    If ``row`` is not a member of ``relation`` the full row list is
    returned: the paper always evaluates ``f(t, r)`` with ``t`` in ``r``,
    but the formula is well-defined for an external tuple too, and
    self-comparison can never violate an FD (a completion substitutes each
    null object consistently), so membership only matters for excluding the
    row itself.
    """
    return [other for other in relation.rows if other is not row]


def _rows_total_on(rows: Sequence[Row], attrs: Sequence[str]) -> bool:
    return all(row.is_total(attrs) for row in rows)


def _shares_null_across(row: Row, lhs: Sequence[str], rhs: Sequence[str]) -> bool:
    """True when one null object occupies several positions of ``t[XY]``."""
    seen: set = set()
    for attr in tuple(lhs) + tuple(rhs):
        value = row[attr]
        if is_null(value):
            if id(value) in seen:
                return True
            seen.add(id(value))
    return False


def _compatible_on(row: Row, other: Row, attrs: Sequence[str]) -> bool:
    """``other[attrs]`` is a completion of ``row[attrs]``.

    Handles a null object occurring in several positions: a consistent
    substitution must give those positions equal values.
    """
    binding: Dict[int, Any] = {}
    for attr in attrs:
        mine = row[attr]
        theirs = other[attr]
        if is_null(mine):
            key = id(mine)
            if key in binding:
                if binding[key] != theirs:
                    return False
            else:
                binding[key] = theirs
        elif mine != theirs:
            return False
    return True


def _domain_size(relation: Relation, attr: str) -> Optional[int]:
    """Declared domain size, or ``None`` when the domain is unbounded."""
    declared = relation.schema.domain(attr)
    return len(declared) if declared.is_finite else None


def _effective_schema(relation: Relation, attrs: Sequence[str]) -> RelationSchema:
    """The schema with unbounded domains (among ``attrs``) frozen to the
    effective domains of the instance's full columns.

    Freezing is sound for FD evaluation (equality-pattern argument, see
    :func:`repro.core.domain.effective_domain`) and it cannot introduce a
    spurious F2: the effective domain holds one more fresh symbol than the
    column has nulls, so completions of a null can never be exhausted by
    the other rows.
    """
    overrides = {}
    for attr in attrs:
        declared = relation.schema.domain(attr)
        if not declared.is_finite:
            overrides[attr] = relation.enumeration_domain(attr)
    if not overrides:
        return relation.schema
    domains = {
        attr: overrides.get(attr, relation.schema.domain(attr))
        for attr in relation.schema.attributes
    }
    return RelationSchema(relation.schema.name, relation.schema.attributes, domains)


def _can_differ_on(row: Row, other: Row, attrs: Sequence[str], relation: Relation) -> bool:
    """Can some completion of ``row[attrs]`` differ from ``other[attrs]``?

    Per attribute: a constant differs iff it already differs; a null can be
    steered away from ``other``'s value iff its domain has at least two
    values (the other tuple's value is one of them).  Shared null objects
    across the positions are handled by the caller via enumeration.
    """
    for attr in attrs:
        mine = row[attr]
        if is_constant(mine):
            if mine != other[attr]:
                return True
        elif is_null(mine):
            size = _domain_size(relation, attr)
            if size is None or size >= 2:
                return True
    return False


def _x_completion_total(row: Row, lhs: Sequence[str], relation: Relation) -> Optional[int]:
    """Number of completions of ``t[X]``; ``None`` when infinite.

    With no nulls in ``t[X]`` this is 1.  A null on an unbounded domain
    makes the count infinite, so the "run out of domain values" situation
    of F2 cannot arise.
    """
    total = 1
    for attr in lhs:
        if is_null(row[attr]):
            size = _domain_size(relation, attr)
            if size is None:
                return None
            total *= size
    return total


def _matching_groups(
    row: Row, others: Sequence[Row], lhs: Sequence[str]
) -> Dict[Tuple[Any, ...], List[Row]]:
    """Null-free neighbours grouped by their ``X`` projection, restricted to
    projections that are completions of ``t[X]``."""
    groups: Dict[Tuple[Any, ...], List[Row]] = {}
    for other in others:
        if _compatible_on(row, other, lhs):
            groups.setdefault(other.project(lhs), []).append(other)
    return groups


def _group_safe(row: Row, group: Sequence[Row], rhs: Sequence[str]) -> bool:
    """Does the ``X``-group admit a non-violating choice of ``t[Y]``?

    Safe iff all group members agree on ``Y`` and their common value is
    compatible with the non-null part of ``t[Y]``.
    """
    common = group[0].project(rhs)
    if any(other.project(rhs) != common for other in group[1:]):
        return False
    for attr, value in zip(rhs, common):
        mine = row[attr]
        if is_constant(mine) and mine != value:
            return False
    return True


# ---------------------------------------------------------------------------
# exact polynomial evaluation (generalized Proposition 1)
# ---------------------------------------------------------------------------


def _exact_value(
    fd: FD, row: Row, others: Sequence[Row], relation: Relation
) -> TruthValue:
    """Exact least-extension value of ``f(t, r)``, polynomial time.

    Preconditions (checked by the caller): the other rows are null-free on
    ``XY`` and ``t`` does not reuse one null object across several ``XY``
    positions.

    The decision mirrors the derivation in DESIGN.md §6:

    * **not TRUE** iff some neighbour is reachable on ``X`` (compatible)
      and escapable on ``Y`` (a completion can disagree);
    * **FALSE** iff every completion of ``t[X]`` is "unsafe": the number of
      ``X``-completions is finite, all of them occur among the neighbours,
      and no occurring group admits an agreeing ``Y`` choice.
    """
    lhs, rhs = _normalize(fd)
    if not rhs:
        return TRUE

    violable = any(
        _compatible_on(row, other, lhs) and _can_differ_on(row, other, rhs, relation)
        for other in others
    )
    if not violable:
        return TRUE

    total = _x_completion_total(row, lhs, relation)
    if total is not None:
        groups = _matching_groups(row, others, lhs)
        if len(groups) == total and all(
            not _group_safe(row, group, rhs) for group in groups.values()
        ):
            return FALSE
    return UNKNOWN


def _enumerated_value(
    fd: FD, row: Row, others: Sequence[Row], relation: Relation
) -> TruthValue:
    """Least-extension value by grounding ``t``'s nulls only.

    Used when ``t`` reuses a null object across positions (the polynomial
    shortcut's independence assumption fails) but the other rows are still
    null-free on ``XY``: the lub, over the groundings of ``t[XY]``'s nulls
    (:mod:`repro.core.conditions`), of "no other row agrees with ``t`` on
    ``X`` and differs on ``Y``".  Exponential in the number of *distinct*
    nulls of ``t[XY]`` only.
    """
    lhs, rhs = _normalize(fd)
    if not rhs:
        return TRUE
    violated = any_of(
        [
            all_of(
                [EqV(row[a], other[a]) for a in lhs]
                + [neg(all_of([EqV(row[a], other[a]) for a in rhs]))]
            )
            for other in others
        ]
    )
    pools = null_pools(
        (row[a], relation.enumeration_domain(a).values)
        for a in tuple(lhs) + tuple(rhs)
        if is_null(row[a])
    )
    return grounded_truth(neg(violated), pools)


# ---------------------------------------------------------------------------
# public evaluators
# ---------------------------------------------------------------------------


def evaluate_fd_brute(
    fd: FDInput,
    row: Row,
    relation: Relation,
    limit: int = DEFAULT_LIMIT,
) -> TruthValue:
    """Ground-truth evaluation: the least-extension definition verbatim.

    Enumerates every completion of ``r`` on the FD's attributes (nulls in
    other columns are irrelevant to the FD and are left in place), evaluates
    the classical predicate at ``t``'s completion inside each, and joins.

    Exponential; guarded by ``limit`` (see
    :meth:`repro.core.relation.Relation.completions`).
    """
    fd = as_fd(fd)
    lhs, rhs = _normalize(fd)
    if not rhs:
        return TRUE
    attrs = tuple(lhs) + tuple(rhs)

    rows = list(relation.rows)
    index = next((i for i, r in enumerate(rows) if r is row), None)
    if index is None:
        rows.append(row)
        index = len(rows) - 1
    working = Relation(relation.schema, rows)

    saw_true = False
    saw_false = False
    for completed in working.completions(attributes=attrs, limit=limit):
        target = completed.rows[index]
        t_x = target.project(lhs)
        t_y = target.project(rhs)
        violated = any(
            other.project(lhs) == t_x and other.project(rhs) != t_y
            for i, other in enumerate(completed.rows)
            if i != index
        )
        if violated:
            saw_false = True
        else:
            saw_true = True
        if saw_true and saw_false:
            return UNKNOWN
    if saw_true and not saw_false:
        return TRUE
    if saw_false and not saw_true:
        return FALSE
    return TRUE  # no completions means no nulls: handled above, defensive


def evaluate_fd(
    fd: FDInput,
    row: Row,
    relation: Relation,
    method: str = "auto",
    limit: int = DEFAULT_LIMIT,
) -> TruthValue:
    """The extended interpretation ``f(t, r)`` (three-valued).

    ``method``:

    * ``"auto"`` (default) — the exact polynomial case analysis when the
      rest of the instance is null-free on the FD's attributes (the setting
      of Proposition 1), falling back to completion enumeration of the
      other rows (the paper's "consider all completions of r - {t}
      iteratively") and, if null objects are shared between ``t`` and other
      rows, to full brute force;
    * ``"cases"`` — the polynomial analysis; requires the rest null-free;
    * ``"enumerate"`` — enumeration of ``t``'s completions only; requires
      the rest null-free;
    * ``"brute"`` — :func:`evaluate_fd_brute`.
    """
    fd = as_fd(fd)
    lhs, rhs = _normalize(fd)
    if not rhs:
        return TRUE
    attrs = tuple(lhs) + tuple(rhs)
    others = _other_rows(row, relation)
    rest_total = _rows_total_on(others, attrs)

    if method == "brute":
        return evaluate_fd_brute(fd, row, relation, limit=limit)
    if method in ("cases", "enumerate") and not rest_total:
        raise ReproError(
            f"method={method!r} requires the rest of the instance to be "
            "null-free on the FD's attributes; use method='auto' or 'brute'"
        )
    if method == "enumerate":
        return _enumerated_value(fd, row, others, relation)
    if method == "cases":
        if _shares_null_across(row, lhs, rhs):
            return _enumerated_value(fd, row, others, relation)
        return _exact_value(fd, row, others, relation)
    if method != "auto":
        raise ValueError(f"unknown evaluation method {method!r}")

    # -- auto dispatch -------------------------------------------------------
    if rest_total:
        if _shares_null_across(row, lhs, rhs):
            return _enumerated_value(fd, row, others, relation)
        return _exact_value(fd, row, others, relation)

    row_nulls = {id(v) for v in row.nulls()}
    shared = any(
        id(value) in row_nulls for other in others for value in other.nulls()
    )
    if shared:
        return evaluate_fd_brute(fd, row, relation, limit=limit)

    # Enumerate completions of the *other* rows only, applying the exact
    # analysis for each (the paper's iterative reading of Proposition 1).
    # Unbounded domains are frozen to effective domains computed from the
    # FULL instance's columns, so the rest's nulls can take the constants
    # appearing in ``row``'s own cells too.
    frozen = _effective_schema(relation, attrs)
    rest = Relation(frozen, [Row(frozen, other.values) for other in others])
    bound_row = Row(frozen, row.values)
    outcomes: List[TruthValue] = []
    for completed_rest in rest.completions(attributes=attrs, limit=limit):
        scenario = Relation(
            frozen, list(completed_rest.rows) + [bound_row]
        )
        if _shares_null_across(bound_row, lhs, rhs):
            value = _enumerated_value(fd, bound_row, completed_rest.rows, scenario)
        else:
            value = _exact_value(fd, bound_row, completed_rest.rows, scenario)
        outcomes.append(value)
        if value is UNKNOWN:
            return UNKNOWN
        if TRUE in outcomes and FALSE in outcomes:
            return UNKNOWN
    return lub(outcomes)


# ---------------------------------------------------------------------------
# literal Proposition 1
# ---------------------------------------------------------------------------


def proposition1_case(
    fd: FDInput, row: Row, relation: Relation
) -> Proposition1Result:
    """The five conditions of Proposition 1, verbatim.

    Requires the setting of the proposition: every row other than ``t`` is
    null-free on the FD's attributes (raises otherwise).  Returns the truth
    value together with the matched condition label; ``unknown`` carries no
    label ("in all the other cases").

    This is the *paper-faithful* analysis, reproduced for the Figure 2
    experiment; use :func:`evaluate_fd` for exact semantics (see the module
    docstring for the corner cases where the two differ).
    """
    fd = as_fd(fd)
    lhs, rhs = _normalize(fd)
    if not rhs:
        return Proposition1Result(TRUE, "T1")
    attrs = tuple(lhs) + tuple(rhs)
    others = _other_rows(row, relation)
    if not _rows_total_on(others, attrs):
        raise ReproError(
            "Proposition 1 assumes r - {t} has no nulls on the FD's "
            "attributes; complete the other rows first or use evaluate_fd"
        )

    x_null = row.has_null(lhs)
    y_null = row.has_null(rhs)

    if not x_null and not y_null:
        t_x = row.project(lhs)
        t_y = row.project(rhs)
        for other in others:
            if other.project(lhs) == t_x and other.project(rhs) != t_y:
                return Proposition1Result(FALSE, "F1")
        return Proposition1Result(TRUE, "T1")

    if y_null and not x_null:
        t_x = row.project(lhs)
        if not any(other.project(lhs) == t_x for other in others):
            return Proposition1Result(TRUE, "T2")
        return Proposition1Result(UNKNOWN, None)

    if x_null and not y_null:
        compatible = [o for o in others if _compatible_on(row, o, lhs)]
        t_y = row.project(rhs)
        if all(other.project(rhs) == t_y for other in compatible):
            return Proposition1Result(TRUE, "T3")
        total = _x_completion_total(row, lhs, relation)
        if total is not None:
            realized = {other.project(lhs) for other in compatible}
            if len(realized) == total and all(
                other.project(rhs) != t_y for other in compatible
            ):
                return Proposition1Result(FALSE, "F2")
        return Proposition1Result(UNKNOWN, None)

    return Proposition1Result(UNKNOWN, None)
