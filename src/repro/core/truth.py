"""Three-valued truth domain used throughout the paper.

The paper evaluates extended functional dependencies (and, in section 5,
System-C formulas) into the set ``{true, false, unknown}``.  Two distinct
structures coexist on this set and both are provided here:

* the **Kleene (logical) structure** — ``and_``/``or_``/``not_`` — used by
  System C's recursive evaluation rules 3 and 4, and by the Kleene query
  evaluator of :mod:`repro.nullsem.queries`;

* the **approximation (knowledge) structure** — :func:`lub` — used by the
  least-extension rule of section 2: the value of a function on a null is
  the least upper bound of its values over all substitutions, where
  ``lub({true}) = true``, ``lub({false}) = false`` and
  ``lub({true, false}) = unknown`` (the paper's worked example:
  ``Q("John", null) = lub{yes, no} = unknown``).

In the approximation order ``true`` and ``false`` are incomparable and
``unknown`` sits above both, so a mixed set joins to ``unknown``.
"""

from __future__ import annotations

import enum
from typing import Iterable


class TruthValue(enum.Enum):
    """A truth value in the paper's three-valued logic."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        # Prevent accidental use in ``if`` conditions: ``UNKNOWN`` has no
        # sensible Python truthiness and silent coercion has caused real
        # bugs in three-valued-logic code.
        raise TypeError(
            "TruthValue cannot be coerced to bool; "
            "compare explicitly against TRUE/FALSE/UNKNOWN"
        )

    def __repr__(self) -> str:
        return self.value

    def __str__(self) -> str:
        return self.value


TRUE = TruthValue.TRUE
FALSE = TruthValue.FALSE
UNKNOWN = TruthValue.UNKNOWN

def not_(value: TruthValue) -> TruthValue:
    """Kleene negation (System C evaluation rule 3)."""
    if value is TruthValue.TRUE:
        return TruthValue.FALSE
    if value is TruthValue.FALSE:
        return TruthValue.TRUE
    return TruthValue.UNKNOWN


def and_(*values: TruthValue) -> TruthValue:
    """Kleene conjunction: the minimum in the order FALSE < UNKNOWN < TRUE.

    ``and_()`` of no arguments is TRUE (empty conjunction).  Decided by
    identity: the first FALSE returns at once.
    """
    result = TruthValue.TRUE
    for value in values:
        if value is TruthValue.FALSE:
            return value
        if value is TruthValue.UNKNOWN:
            result = value
        elif value is not TruthValue.TRUE:
            raise TypeError(f"not a truth value: {value!r}")
    return result


def or_(*values: TruthValue) -> TruthValue:
    """Kleene disjunction: the maximum in the order FALSE < UNKNOWN < TRUE.

    ``or_()`` of no arguments is FALSE (empty disjunction).  Decided by
    identity: the first TRUE returns at once.
    """
    result = TruthValue.FALSE
    for value in values:
        if value is TruthValue.TRUE:
            return value
        if value is TruthValue.UNKNOWN:
            result = value
        elif value is not TruthValue.FALSE:
            raise TypeError(f"not a truth value: {value!r}")
    return result


def implies_(antecedent: TruthValue, consequent: TruthValue) -> TruthValue:
    """Kleene material implication, ``P => Q  :=  not P or Q`` (section 5)."""
    return or_(not_(antecedent), consequent)


def lub(values: Iterable[TruthValue]) -> TruthValue:
    """Least upper bound in the *approximation* order (least-extension rule).

    * an empty collection joins to TRUE — this matches the paper's usage
      where an FD with no violating completion pattern is vacuously true
      (callers that need a different empty-case answer handle it themselves);
    * a collection whose elements are all equal joins to that element;
    * any mixed collection, or any collection containing UNKNOWN, joins to
      UNKNOWN.
    """
    result: TruthValue | None = None
    for value in values:
        if value is TruthValue.UNKNOWN:
            return TruthValue.UNKNOWN
        if result is None:
            result = value
        elif result is not value:
            return TruthValue.UNKNOWN
    return TruthValue.TRUE if result is None else result


def from_bool(flag: bool) -> TruthValue:
    """Lift a Python bool into the three-valued domain."""
    return TruthValue.TRUE if flag else TruthValue.FALSE


def is_definite(value: TruthValue) -> bool:
    """True when the value carries complete information (TRUE or FALSE)."""
    return value is not TruthValue.UNKNOWN
