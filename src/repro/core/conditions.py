"""The least-extension kernel: conditions over values, the per-null pool
rule, grounding enumeration and the early-exit lub.

Section 2 answers any question over incomplete data by one rule: the
least upper bound of its answers over the groundings of the nulls it
references (``Q("John", ⊥) = lub{yes, no} = unknown``).  This module
is that rule, once.  :mod:`repro.query.evaluate` (a condition per
derived row), :mod:`repro.nullsem` (one-row predicates, least
extensions of functions), :mod:`repro.core.interpretation` (``f(t,
r)``) and the planner's satisfiability check all ground through it;
each caller only supplies the candidate pool of every null cell.

* Conditions: atoms are equalities between *values* (constants or
  :class:`~repro.core.values.Null` objects — a caller resolves
  attribute references against a concrete row first), composed with
  :func:`all_of` / :func:`any_of` / :func:`neg`.  :func:`kleene` is
  the truth-functional three-valued evaluation (linear, sound,
  under-informative: a condition whose disjuncts exhaust a domain
  still reads *unknown*); :func:`evaluate_ground` the two-valued one
  under a total binding.
* :func:`null_pools` — the pool rule: one choice per null object, its
  pool the intersection of its occurrences' candidate pools;
  :func:`groundings` — every binding over those pools, under the
  caller's budget if it has one; :func:`fresh_values` — values no
  constant equals, for pools that need "some other value".
* :func:`grounded_truth` / :func:`least_truth` — the exact
  least-extension value: the lub of the two-valued evaluations over
  every grounding of the nulls a condition references, stopping once
  both a true and a false grounding are seen.  Exponential only in the
  *referenced* nulls, never in the instance.

The brute-force references (:meth:`~repro.core.tuples.Row.completions`,
:meth:`~repro.core.relation.Relation.completions`) enumerate
completions without this module, so the differential suites stay
independent of it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
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
)

from ..errors import DomainError
from .truth import FALSE, TRUE, UNKNOWN, TruthValue, and_, from_bool, not_, or_
from .values import Null, is_null


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
    """Conjunction, flattened, with every ``TrueCond`` operand dropped."""
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


def fresh_values(count: int) -> Tuple[Any, ...]:
    """``count`` distinct internal values, each unequal to every constant
    (``k`` of them realize every equality pattern among ``k`` nulls).

    They never leave a grounding — unlike
    :func:`~repro.core.domain.effective_domain`'s ``†fresh`` symbols,
    which are enumeration-domain constants and can reach ground answers.
    """
    return tuple(object() for _ in range(count))


def null_pools(
    occurrences: Iterable[Tuple[Null, Sequence[Any]]]
) -> Dict[int, Tuple[Any, ...]]:
    """The pool rule: ``id(null)`` → the constants the null may take.

    ``occurrences`` yields ``(null, candidates)`` once per cell the null
    occupies, ``candidates`` being that cell's candidate pool as the
    caller defines it.  One choice per null object: its pool is its
    first occurrence's candidates, in their order, narrowed to those
    every later occurrence admits too.  A tuple of candidates is kept
    as given, not copied, so a later occurrence passing the very tuple
    the pool still is costs one identity test.
    """
    pools: Dict[int, Tuple[Any, ...]] = {}
    for value, candidates in occurrences:
        key = id(value)
        pool = pools.get(key)
        if pool is None:
            pools[key] = tuple(candidates)
        elif pool is not candidates:
            pools[key] = tuple(
                constant for constant in pool if constant in candidates
            )
    return pools


def groundings(
    nulls: Sequence[Null],
    domains: Mapping[int, Sequence[Any]],
    limit: Optional[int] = None,
) -> Iterator[Dict[int, Any]]:
    """Every binding ``id(null)`` → constant of the given nulls over
    their pools, in product order.

    ``domains`` maps ``id(null)`` → pool (see :func:`null_pools`).
    ``limit`` is the caller's budget, guarding combinatorial blow-ups
    the way :meth:`~repro.core.relation.Relation.completions` does:
    with one, an empty pool or a product over ``limit`` raises
    :class:`~repro.errors.DomainError` *before* enumeration starts;
    without one, an empty pool leaves no binding at all.
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
        if limit is not None:
            if not pool:
                raise DomainError(
                    f"null {null_obj!r} has an empty consistent domain (its "
                    "occurrences intersect to nothing)"
                )
            total *= len(pool)
            if total > limit:
                raise DomainError(
                    f"grounding enumeration would exceed {limit} bindings"
                )
        pools.append(pool)
    keys = [id(null_obj) for null_obj in nulls]
    for combo in itertools.product(*pools):
        yield dict(zip(keys, combo))


def least_truth(
    cond: Cond,
    domains: Mapping[int, Sequence[Any]],
    limit: Optional[int] = None,
) -> TruthValue:
    """Exact least-extension truth of a condition.

    The lub over all groundings of the referenced nulls
    (:func:`grounded_truth`).  A Kleene-definite condition is returned
    directly — the invariant that Kleene agrees wherever it is definite
    is tested, so this is a pure fast path.
    """
    quick = kleene(cond)
    if quick is not UNKNOWN:
        return quick
    return grounded_truth(cond, domains, limit=limit)


def grounded_truth(
    cond: Cond,
    domains: Mapping[int, Sequence[Any]],
    limit: Optional[int] = None,
) -> TruthValue:
    """The lub over every grounding of the nulls ``cond`` references:
    :func:`least_truth` without its Kleene fast path.

    Once both a true and a false grounding are seen the answer is
    *unknown*.  No grounding at all (an empty pool, without a budget)
    joins to TRUE, as :func:`~repro.core.truth.lub` of nothing does.
    """
    saw_true = saw_false = False
    for binding in groundings(nulls_of(cond), domains, limit=limit):
        if evaluate_ground(cond, binding):
            saw_true = True
        else:
            saw_false = True
        if saw_true and saw_false:
            return UNKNOWN
    return FALSE if saw_false else TRUE
