"""The evaluator's null index, read off relation statistics.

``Evaluator`` builds each null's grounding pool from the
:class:`~repro.query.optimize.RelationStats` of the relations in its
environment (null cells plus per-column enumeration domains) instead of
rescanning a column per null occurrence.  The property here pins that
it changes nothing: over environments with nulls shared within and
across relations, declared finite domains on some columns and unbounded
ones on others, ``Evaluator(env)``, ``Evaluator(env,
stats=collect_stats(env))`` and a re-derivation of the per-occurrence
rule written out below agree on every pool (same constants, same order,
same null order), and both evaluators give the same conditional rows
and the same answers.  It also pins the Kleene value each conditional
row carries: ``crow.truth is kleene(crow.cond)`` for every row built.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.values import NOTHING, is_null, null
from repro.errors import InconsistentInstanceError
from repro.query import collect_stats, parse_query
from repro.core.conditions import kleene
from repro.query.evaluate import Evaluator

from ..helpers import rel

QUERIES = (
    "r",
    "r[A]",
    "r where A = 'a'",
    "r where A != 'a' or B = 'c'",
    "r where A = B",
    "r join s",
    "r join s [A, C]",
    "r join s where C = 'b'",
    "r[B] union s[B]",
    "r[B] minus s[B]",
    "r minus (r where A = B)",
    "s rename C -> A [A] minus r[A]",
)
MODES = ("least", "kleene")


def per_occurrence_domains(env):
    """Each null's pool by the rule the evaluator used to apply cell by
    cell: the enumeration domain of its first column, narrowed by the
    domain of every later column it occurs in, in row-major order."""
    domains = {}
    for relation in env.values():
        attributes = relation.schema.attributes
        for row in relation.rows:
            for attribute, value in zip(attributes, row.values):
                if not is_null(value):
                    continue
                column = relation.enumeration_domain(attribute)
                previous = domains.get(id(value))
                if previous is None:
                    domains[id(value)] = tuple(column)
                else:
                    domains[id(value)] = tuple(
                        constant for constant in previous if constant in column
                    )
    return domains


@st.composite
def environments(draw):
    """``r(A B)`` and ``s(B C)``: ``A`` on {a, b}, ``B`` on {a, b, c} in
    ``r`` and on {b, c} in ``s``, ``C`` unbounded (its pool is its
    constants plus fresh symbols), with fresh nulls and two nulls that
    may recur in any cell of either relation."""
    shared = [null(), null()]
    tokens = ["a", "b", "c", "fresh", "s0", "s1"]

    def cell(token):
        if token == "fresh":
            return null()
        if token.startswith("s"):
            return shared[int(token[1])]
        return token

    def build(attrs, domains):
        n_rows = draw(st.integers(min_value=0, max_value=4))
        rows = [
            [cell(draw(st.sampled_from(tokens))) for _ in range(2)]
            for _ in range(n_rows)
        ]
        return rel(attrs, rows, domains=domains)

    return {
        "r": build("A B", {"A": ["a", "b"], "B": ["a", "b", "c"]}),
        "s": build("B C", {"B": ["b", "c"]}),
    }


def outcome(evaluator, node, mode):
    """A run's answers, or the error it raised (least mode raises on a
    null whose pools intersect to nothing)."""
    try:
        result = evaluator.run(node, mode=mode)
    except Exception as error:  # compared, not swallowed
        return ("raised", type(error).__name__, str(error))
    return (
        result.certain.rows,
        result.maybe.rows,
        result.certain.provenance,
        result.maybe.provenance,
    )


def conditional_rows(crows):
    return [(crow.values, crow.cond, crow.truth) for crow in crows]


@settings(max_examples=80)
@given(env=environments(), query=st.sampled_from(QUERIES))
def test_stats_built_pools_match_the_per_occurrence_rule(env, query):
    scanned = Evaluator(env)
    given_stats = Evaluator(env, stats=collect_stats(env))
    want = list(per_occurrence_domains(env).items())
    assert list(scanned.domains.items()) == want
    assert list(given_stats.domains.items()) == want

    node = parse_query(query)
    attrs, crows = scanned.symbolic(node)
    other_attrs, other_crows = given_stats.symbolic(node)
    assert attrs == other_attrs
    assert conditional_rows(crows) == conditional_rows(other_crows)
    for mode in MODES:
        assert outcome(scanned, node, mode) == outcome(given_stats, node, mode)
    for crow in crows:
        assert crow.truth is kleene(crow.cond), crow


def test_given_stats_are_reused_by_the_planner():
    env = {"r": rel("A B", [["a", null()]], domains={"B": ["b1", "b2"]})}
    stats = collect_stats(env)
    evaluator = Evaluator(env, stats=stats)
    assert evaluator.stats()["r"] is stats["r"]
    evaluator.run(parse_query("r where B = 'b1'"))
    assert "rows<=1" in evaluator.explain(parse_query("r where B = 'b1'"))
    assert evaluator.stats()["r"] is stats["r"]


def test_nothing_refuses_with_or_without_given_stats():
    env = {
        "r": rel("A B", [["a", "b"]]),
        "s": rel("B C", [["b", NOTHING]]),
    }
    for stats in (None, collect_stats(env)):
        with pytest.raises(InconsistentInstanceError, match="'s' contains NOTHING"):
            Evaluator(env, stats=stats)
