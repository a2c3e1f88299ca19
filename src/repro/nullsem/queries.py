"""Queries over rows with nulls: least-extension vs Kleene evaluation.

Section 2's running example: on ``R(name, marital-status)`` with
``dom(marital-status) = {married, single}`` and the tuple ``("John", ⊥)``:

* ``Q``  = "Is John married?"              → ``lub{yes, no} = unknown``;
* ``Q'`` = "Is John married or single?"    → ``lub{yes, yes} = yes``.

A truth-functional (Kleene) evaluator answers *unknown* to both — it
cannot see that the disjunction exhausts the domain.  The least-extension
evaluator is exact but enumerates substitutions; the paper cites
[Vassiliou 79] for syntactic transformations that avoid the enumeration.
This module provides:

* a small predicate AST (:class:`Pred` constructors) and
  :func:`resolve`, which turns a predicate over a row's attributes into
  a condition over its cells — the form every evaluator works on;
* :func:`evaluate_kleene` — linear, three-valued, *under-informative*;
* :func:`evaluate_least_extension` — exact, enumerates only the nulls the
  predicate actually references (the library's stand-in for the
  transformation: exponential only in the *relevant* nulls);
* :func:`select` — certain/possible selection over a relation.

Both evaluators run the resolved condition through the one
least-extension kernel, :mod:`repro.core.conditions` — the same code
:mod:`repro.query` grounds its conditional rows with; this module only
supplies each null cell's candidate pool.

Invariant (tested): wherever Kleene answers definitely, the least
extension agrees; the least extension is always at least as definite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Mapping, Sequence, Tuple

from ..core.conditions import (
    ALWAYS,
    Cond,
    EqV,
    all_of,
    any_of,
    fresh_values,
    grounded_truth,
    kleene,
    neg,
    null_pools,
)
from ..core.relation import Relation
from ..core.truth import FALSE, TRUE, TruthValue
from ..core.tuples import Row
from ..core.values import is_null


class Pred:
    """Base class for query predicates over a single row."""

    __slots__ = ()

    def __and__(self, other: "Pred") -> "Pred":
        return AndP((self, other))

    def __or__(self, other: "Pred") -> "Pred":
        return OrP((self, other))

    def __invert__(self) -> "Pred":
        return NotP(self)


@dataclass(frozen=True)
class Eq(Pred):
    """``attribute = constant``."""

    __slots__ = ("attribute", "constant")
    attribute: str
    constant: Any


@dataclass(frozen=True)
class In(Pred):
    """``attribute ∈ constants``."""

    __slots__ = ("attribute", "constants")
    attribute: str
    constants: Tuple[Any, ...]


@dataclass(frozen=True)
class AttrEq(Pred):
    """``attribute = attribute`` (within one row)."""

    __slots__ = ("first", "second")
    first: str
    second: str


@dataclass(frozen=True)
class NotP(Pred):
    __slots__ = ("operand",)
    operand: Pred


@dataclass(frozen=True)
class AndP(Pred):
    __slots__ = ("operands",)
    operands: Tuple[Pred, ...]


@dataclass(frozen=True)
class OrP(Pred):
    __slots__ = ("operands",)
    operands: Tuple[Pred, ...]


def referenced_attributes(pred: Pred) -> FrozenSet[str]:
    """The attributes a predicate reads."""
    if isinstance(pred, Eq):
        return frozenset((pred.attribute,))
    if isinstance(pred, In):
        return frozenset((pred.attribute,))
    if isinstance(pred, AttrEq):
        return frozenset((pred.first, pred.second))
    if isinstance(pred, NotP):
        return referenced_attributes(pred.operand)
    if isinstance(pred, (AndP, OrP)):
        out: FrozenSet[str] = frozenset()
        for op in pred.operands:
            out |= referenced_attributes(op)
        return out
    raise TypeError(f"not a predicate: {pred!r}")


def _evaluate_total(pred: Pred, row: Row) -> bool:
    """Two-valued evaluation on a row that is total on the referenced attrs."""
    if isinstance(pred, Eq):
        return row[pred.attribute] == pred.constant
    if isinstance(pred, In):
        return row[pred.attribute] in pred.constants
    if isinstance(pred, AttrEq):
        return row[pred.first] == row[pred.second]
    if isinstance(pred, NotP):
        return not _evaluate_total(pred.operand, row)
    if isinstance(pred, AndP):
        return all(_evaluate_total(op, row) for op in pred.operands)
    if isinstance(pred, OrP):
        return any(_evaluate_total(op, row) for op in pred.operands)
    raise TypeError(f"not a predicate: {pred!r}")


def mentioned_constants(pred: Pred) -> Tuple[Any, ...]:
    """Every constant the predicate compares against, once each, in
    syntax order."""
    seen: Dict[Any, None] = {}

    def walk(node: Pred) -> None:
        if isinstance(node, Eq):
            seen.setdefault(node.constant)
        elif isinstance(node, In):
            seen.update(dict.fromkeys(node.constants))
        elif isinstance(node, NotP):
            walk(node.operand)
        elif isinstance(node, (AndP, OrP)):
            for operand in node.operands:
                walk(operand)

    walk(pred)
    return tuple(seen)


def resolve(
    pred: Pred, positions: Mapping[str, int], values: Sequence[Any]
) -> Cond:
    """Resolve a row predicate into a value-level condition.

    ``positions`` maps each attribute to its index in ``values``.  An
    ``AttrEq`` between two cells holding one null object is always true
    (the same unknown equals itself), so it resolves to
    :data:`~repro.core.conditions.ALWAYS`.
    """
    if isinstance(pred, Eq):
        return EqV(values[positions[pred.attribute]], pred.constant)
    if isinstance(pred, In):
        cell = values[positions[pred.attribute]]
        return any_of([EqV(cell, constant) for constant in pred.constants])
    if isinstance(pred, AttrEq):
        first = values[positions[pred.first]]
        second = values[positions[pred.second]]
        if first is second:
            return ALWAYS
        return EqV(first, second)
    if isinstance(pred, NotP):
        return neg(resolve(pred.operand, positions, values))
    if isinstance(pred, AndP):
        return all_of([resolve(p, positions, values) for p in pred.operands])
    if isinstance(pred, OrP):
        return any_of([resolve(p, positions, values) for p in pred.operands])
    raise TypeError(f"not a predicate: {pred!r}")


def _resolved(pred: Pred, row: Row) -> Cond:
    """``pred`` resolved against ``row``'s cells; an attribute outside the
    row's scheme raises the scheme's error, as ``row[attribute]`` does."""
    schema = row.schema
    positions = {
        attribute: schema.position(attribute)
        for attribute in referenced_attributes(pred)
    }
    return resolve(pred, positions, row.values)


def evaluate_kleene(pred: Pred, row: Row) -> TruthValue:
    """Truth-functional evaluation: null comparisons are *unknown*.

    Linear in the predicate size; under-informative (see module docstring).
    """
    return kleene(_resolved(pred, row))


def evaluate_least_extension(pred: Pred, row: Row) -> TruthValue:
    """Exact least-extension evaluation (the section 2 semantics).

    ``lub`` of the two-valued evaluations over the groundings of the
    referenced nulls only — the "transformed" evaluation, exponential
    only in the *referenced* null cells.  A cell's candidates are its
    declared finite domain, else the constants the predicate mentions
    and the row's referenced constants, plus one fresh value per
    referenced null cell and one more: a one-row predicate only tests
    equality against those constants or other referenced cells.
    """
    cond = _resolved(pred, row)
    refs = referenced_attributes(pred)
    schema = row.schema
    null_attrs = [
        a for a in schema.attributes if a in refs and is_null(row[a])
    ]
    pool = dict.fromkeys(mentioned_constants(pred))
    pool.update(dict.fromkeys(row[a] for a in refs if not is_null(row[a])))
    open_pool = tuple(pool) + fresh_values(len(null_attrs) + 1)
    declared = [schema.domain(a) for a in null_attrs]
    pools = null_pools(
        (row[a], domain.values if domain.is_finite else open_pool)
        for a, domain in zip(null_attrs, declared)
    )
    if not all(pools.values()):
        # a referenced null no candidate fits: the row has no grounding,
        # and the lub of nothing is TRUE
        return TRUE
    return grounded_truth(cond, pools)


def select(
    relation: Relation, pred: Pred, mode: str = "certain"
) -> Relation:
    """Selection over an instance with nulls.

    ``mode="certain"`` keeps rows whose least-extension value is *true*
    (they satisfy the predicate under every completion); ``mode="possible"``
    keeps rows whose value is not *false* (some completion satisfies it) —
    the same strong/weak duality as FD satisfiability.
    """
    if mode not in ("certain", "possible"):
        raise ValueError(f"unknown selection mode {mode!r}")
    kept = []
    for row in relation.rows:
        value = evaluate_least_extension(pred, row)
        if mode == "certain" and value is TRUE:
            kept.append(row)
        elif mode == "possible" and value is not FALSE:
            kept.append(row)
    return Relation(relation.schema, kept)
