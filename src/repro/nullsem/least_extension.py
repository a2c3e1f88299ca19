"""Least extensions of functions (section 2's uniform rule).

"Any function, which is evaluated on the null, will take a particular value
in its range iff, for every non-null in the domain, the function evaluates
to the same value. ... If all evaluations have the same result, it means
that our incomplete knowledge is not essential for this function."

:func:`least_extension` wraps an ordinary (null-free) Python function so
that it accepts nulls in any argument: the wrapper substitutes every
combination of domain values for the null arguments, evaluates, and joins
the results —

* for truth-valued functions the join is
  :func:`repro.core.truth.lub` (``lub{yes, no} = unknown``);
* for value-valued functions: all-equal results collapse to that value,
  anything else returns a fresh null ("the best possible approximation").

This is exactly the semantics the FD interpretation of section 4
instantiates with ``f(t, r)``; the module exists so that examples and
benches can *show* the shared mechanism (and its cost — the paper notes
the rule "has an unacceptable complexity for practical considerations",
motivating the transformed evaluators of :mod:`repro.nullsem.queries`).
The substitutions come from the least-extension kernel,
:mod:`repro.core.conditions`: its pool rule and its grounding
enumeration, the ones every other evaluator uses.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from ..core.conditions import groundings, null_pools
from ..core.domain import Domain
from ..core.truth import TruthValue, lub
from ..core.values import is_null, null
from ..errors import DomainError


def substitutions(
    args: Sequence[Any], domains: Sequence[Domain]
) -> Iterable[tuple]:
    """All groundings of ``args``: null positions range over their domains.

    A null *object* appearing in several positions is substituted
    consistently (its choice set is the intersection of the positions'
    domains).
    """
    if len(args) != len(domains):
        raise DomainError("one domain per argument is required")
    cells = [(v, tuple(d)) for v, d in zip(args, domains) if is_null(v)]
    pools = null_pools(cells)
    nulls = list({id(value): value for value, _ in cells}.values())
    for binding in groundings(nulls, pools):
        yield tuple(binding[id(v)] if is_null(v) else v for v in args)


def least_extension_truth(
    func: Callable[..., TruthValue], domains: Sequence[Domain]
) -> Callable[..., TruthValue]:
    """Least extension of a truth-valued function (a *query*)."""

    def extended(*args: Any) -> TruthValue:
        return lub(func(*grounded) for grounded in substitutions(args, domains))

    extended.__name__ = f"least_extension({getattr(func, '__name__', 'f')})"
    return extended


def least_extension_value(
    func: Callable[..., Any], domains: Sequence[Domain]
) -> Callable[..., Any]:
    """Least extension of a value-valued function.

    All groundings agree → that value; otherwise a fresh null (the best
    approximation the lattice offers below the disagreeing results).
    """

    def extended(*args: Any) -> Any:
        result: Any = None
        first = True
        for grounded in substitutions(args, domains):
            value = func(*grounded)
            if first:
                result, first = value, False
            elif value != result:
                return null()
        if first:
            raise DomainError("no groundings: some null has an empty domain")
        return result

    extended.__name__ = f"least_extension({getattr(func, '__name__', 'f')})"
    return extended
