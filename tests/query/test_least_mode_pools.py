"""Least mode must never report a false certain answer: the pool cases.

A null is ground over a candidate pool.  For an unbounded column the
pool has to hold every value a comparison can tell apart: the
constants the query mentions, and the values of any finite domain the
null is compared with.  The cases below are the ones ROADMAP item 1
records, pinned for both evaluators that share the least-extension
kernel (``repro.nullsem`` on one row, ``repro.query`` on a
relation).  The cases that fail until the pools carry those values
are strict xfails, so the fix has to flip them.
"""

from __future__ import annotations

import pytest

from repro.core.domain import Domain
from repro.core.relation import Relation
from repro.core.schema import RelationSchema
from repro.core.truth import UNKNOWN
from repro.core.values import null
from repro.nullsem.queries import AttrEq, Eq, NotP, evaluate_least_extension
from repro.query import evaluate, parse_query

POOL_MISSES_QUERY_CONSTANTS = (
    "ROADMAP item 1: an unbounded column's pool lacks the query's "
    "constants, so least mode decides A against 'a1' as if no null "
    "could be 'a1'"
)
POOL_MISSES_FINITE_DOMAIN = (
    "ROADMAP item 1: the unbounded column's pool lacks the finite "
    "domain of the column it is compared with, so A = B reads false"
)


def two_rows():
    """``r(K A)`` = {(k1, ⊥), (k2, a2)} with ``A`` unbounded."""
    unknown = null()
    relation = Relation(
        RelationSchema("r", "K A"), [("k1", unknown), ("k2", "a2")]
    )
    return relation, unknown


def mixed_domains():
    """``r(K A B)`` with ``A`` on {x, y}, ``B`` unbounded, one row
    (k1, ⊥1, ⊥2)."""
    first, second = null(), null()
    schema = RelationSchema("r", "K A B", domains={"A": Domain(["x", "y"])})
    return Relation(schema, [("k1", first, second)]), first, second


def answers(relation, text, mode):
    result = evaluate(parse_query(text), {"r": relation}, mode=mode)
    return result.certain.rows, result.maybe.rows


class TestUnboundedColumnAgainstAQueryConstant:
    @pytest.mark.parametrize("pred", [Eq("A", "a1"), NotP(Eq("A", "a1"))])
    def test_nullsem_is_unknown(self, pred):
        relation, _ = two_rows()
        assert evaluate_least_extension(pred, relation[0]) is UNKNOWN

    @pytest.mark.xfail(strict=True, reason=POOL_MISSES_QUERY_CONSTANTS)
    def test_least_mode_not_equal_is_maybe(self):
        relation, unknown = two_rows()
        certain, maybe = answers(relation, "r where A != 'a1'", "least")
        assert ("k1", unknown) in maybe
        assert ("k1", unknown) not in certain

    @pytest.mark.xfail(strict=True, reason=POOL_MISSES_QUERY_CONSTANTS)
    def test_least_mode_equal_is_maybe(self):
        relation, unknown = two_rows()
        certain, maybe = answers(relation, "r where A = 'a1'", "least")
        assert ("k1", unknown) in maybe
        assert ("k1", unknown) not in certain


class TestUnboundedColumnAgainstAFiniteOne:
    @pytest.mark.xfail(strict=True, reason=POOL_MISSES_FINITE_DOMAIN)
    def test_nullsem_is_unknown(self):
        relation, _, _ = mixed_domains()
        assert evaluate_least_extension(AttrEq("A", "B"), relation[0]) is UNKNOWN

    @pytest.mark.xfail(strict=True, reason=POOL_MISSES_FINITE_DOMAIN)
    def test_least_mode_is_maybe(self):
        relation, first, second = mixed_domains()
        certain, maybe = answers(relation, "r where A = B", "least")
        assert maybe == (("k1", first, second),)
        assert certain == ()
