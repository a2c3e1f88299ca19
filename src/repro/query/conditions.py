"""Constraint formulas over null/constant equalities — the evaluator's
conditional-table kernel.

Each derived row the evaluator produces carries a :class:`Cond`: the
constraint under which the row is in the query result.  Atoms are
equalities between *values* (constants or :class:`~repro.core.values.Null`
objects — not attributes: by the time a condition is built, attribute
references have been resolved against a concrete row).  Conditions
compose with :func:`all_of` / :func:`any_of` / :func:`neg`.

Two evaluations are provided, mirroring :mod:`repro.nullsem.queries`:

* :func:`kleene` — truth-functional three-valued evaluation; linear,
  sound, under-informative (a condition whose disjuncts exhaust a
  domain still reads *unknown*);
* :func:`least_truth` — the exact least-extension value: the lub of the
  two-valued evaluations over every grounding of the nulls the
  condition references, each null ranging over its (finite) domain.
  Exponential only in the *referenced* nulls, never in the instance.
  :func:`grounded_truth` is its grounding half, for a caller that
  already holds the condition's Kleene value and found it unknown.

Groundings respect null identity: one choice per distinct null object,
wherever it occurs — which is exactly how shared nulls equate across a
join.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from ..core.truth import FALSE, TRUE, UNKNOWN, TruthValue, and_, from_bool, not_, or_
from ..core.values import Null, is_null
from ..errors import DomainError


class Cond:
    """Base class for row conditions."""

    __slots__ = ()


@dataclass(frozen=True)
class TrueCond(Cond):
    """The vacuous condition (a base row before any select)."""

    __slots__ = ()


@dataclass(frozen=True)
class EqV(Cond):
    """``first = second`` between two resolved values."""

    __slots__ = ("first", "second")
    first: Any
    second: Any


@dataclass(frozen=True)
class Neg(Cond):
    __slots__ = ("operand",)
    operand: Cond


@dataclass(frozen=True)
class All(Cond):
    __slots__ = ("operands",)
    operands: Tuple[Cond, ...]


@dataclass(frozen=True)
class AnyOf(Cond):
    __slots__ = ("operands",)
    operands: Tuple[Cond, ...]


ALWAYS = TrueCond()
#: a canonical unsatisfiable condition (an impossible equality between
#: two distinct marker constants; cheap for :func:`kleene` to refute)
NEVER = Neg(TrueCond())


def all_of(operands: Sequence[Cond]) -> Cond:
    """Conjunction, flattened and pruned by the Kleene value of parts."""
    flat: List[Cond] = []
    for operand in operands:
        if isinstance(operand, TrueCond):
            continue
        if isinstance(operand, All):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        return ALWAYS
    if len(flat) == 1:
        return flat[0]
    return All(tuple(flat))


def any_of(operands: Sequence[Cond]) -> Cond:
    """Disjunction, flattened."""
    flat: List[Cond] = []
    for operand in operands:
        if isinstance(operand, AnyOf):
            flat.extend(operand.operands)
        else:
            flat.append(operand)
    if not flat:
        return NEVER
    if len(flat) == 1:
        return flat[0]
    return AnyOf(tuple(flat))


def neg(operand: Cond) -> Cond:
    if isinstance(operand, Neg):
        return operand.operand
    return Neg(operand)


def eq_truth(first: Any, second: Any) -> TruthValue:
    """The Kleene value of the atom ``first = second``."""
    if first is second:
        return TRUE  # same constant or the *same* unknown
    if is_null(first) or is_null(second):
        return UNKNOWN
    return from_bool(first == second)


def kleene(cond: Cond) -> TruthValue:
    """Truth-functional three-valued evaluation of a condition."""
    if isinstance(cond, TrueCond):
        return TRUE
    if isinstance(cond, EqV):
        return eq_truth(cond.first, cond.second)
    if isinstance(cond, Neg):
        return not_(kleene(cond.operand))
    if isinstance(cond, All):
        return and_(*(kleene(op) for op in cond.operands))
    if isinstance(cond, AnyOf):
        return or_(*(kleene(op) for op in cond.operands))
    raise TypeError(f"not a condition: {cond!r}")


def nulls_of(cond: Cond) -> Tuple[Null, ...]:
    """Every null object the condition references, first-occurrence order."""
    seen: Dict[int, Null] = {}

    def walk(node: Cond) -> None:
        if isinstance(node, EqV):
            for value in (node.first, node.second):
                if is_null(value):
                    seen.setdefault(id(value), value)
        elif isinstance(node, Neg):
            walk(node.operand)
        elif isinstance(node, (All, AnyOf)):
            for op in node.operands:
                walk(op)

    walk(cond)
    return tuple(seen.values())


def evaluate_ground(cond: Cond, binding: Mapping[int, Any]) -> bool:
    """Two-valued evaluation under a total grounding of the nulls.

    ``binding`` maps ``id(null)`` → constant; every null the condition
    references must be bound.
    """
    if isinstance(cond, TrueCond):
        return True
    if isinstance(cond, EqV):
        first = binding[id(cond.first)] if is_null(cond.first) else cond.first
        second = (
            binding[id(cond.second)] if is_null(cond.second) else cond.second
        )
        return first == second
    if isinstance(cond, Neg):
        return not evaluate_ground(cond.operand, binding)
    if isinstance(cond, All):
        return all(evaluate_ground(op, binding) for op in cond.operands)
    if isinstance(cond, AnyOf):
        return any(evaluate_ground(op, binding) for op in cond.operands)
    raise TypeError(f"not a condition: {cond!r}")


def groundings(
    nulls: Sequence[Null],
    domains: Mapping[int, Sequence[Any]],
    limit: int = 200_000,
) -> Iterator[Dict[int, Any]]:
    """Every binding of the given nulls over their domains.

    ``domains`` maps ``id(null)`` → candidate constants (the
    evaluator's globally-intersected per-null domains).  ``limit``
    guards combinatorial blow-ups the way
    :meth:`~repro.core.relation.Relation.completions` does: a
    :class:`~repro.errors.DomainError` *before* enumeration starts.
    """
    pools: List[Sequence[Any]] = []
    total = 1
    for null_obj in nulls:
        pool = domains.get(id(null_obj))
        if pool is None:
            raise DomainError(
                f"null {null_obj!r} has no enumeration domain (it does not "
                "occur in any scanned relation)"
            )
        if not pool:
            raise DomainError(
                f"null {null_obj!r} has an empty consistent domain (its "
                "occurrences intersect to nothing)"
            )
        pools.append(pool)
        total *= len(pool)
        if total > limit:
            raise DomainError(
                f"grounding enumeration would exceed {limit} bindings"
            )
    keys = [id(null_obj) for null_obj in nulls]
    for combo in itertools.product(*pools):
        yield dict(zip(keys, combo))


def least_truth(
    cond: Cond,
    domains: Mapping[int, Sequence[Any]],
    limit: int = 200_000,
) -> TruthValue:
    """Exact least-extension truth of a condition.

    The lub over all groundings of the referenced nulls, with the early
    exit of :func:`repro.nullsem.queries.evaluate_least_extension`:
    once both a true and a false grounding are seen the answer is
    *unknown*.  A Kleene-definite condition is returned directly — the
    invariant that Kleene agrees wherever it is definite is tested, so
    this is a pure fast path.
    """
    quick = kleene(cond)
    if quick is not UNKNOWN:
        return quick
    return grounded_truth(cond, domains, limit=limit)


def grounded_truth(
    cond: Cond,
    domains: Mapping[int, Sequence[Any]],
    limit: int = 200_000,
) -> TruthValue:
    """The lub over every grounding of the nulls ``cond`` references:
    :func:`least_truth` without its Kleene fast path."""
    saw_true = saw_false = False
    for binding in groundings(nulls_of(cond), domains, limit=limit):
        if evaluate_ground(cond, binding):
            saw_true = True
        else:
            saw_false = True
        if saw_true and saw_false:
            return UNKNOWN
    if saw_true and not saw_false:
        return TRUE
    if saw_false and not saw_true:
        return FALSE
    # unreachable: groundings() yields at least one binding (the empty
    # one for a null-free condition) or raises on an empty pool
    return UNKNOWN  # pragma: no cover
