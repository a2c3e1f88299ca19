"""Tests for minimal incompleteness, Theorem 4, and the Figure 5 example."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chase.engine import MODE_BASIC, MODE_EXTENDED, STRATEGY_FD_ORDER, chase
from repro.chase.minimal import (
    canonical_form,
    church_rosser_orders,
    is_minimally_incomplete,
    minimally_incomplete,
    weakly_satisfiable,
)
from repro.core.relation import Relation
from repro.core.satisfaction import weakly_satisfied
from repro.core.values import NOTHING, null

from ..helpers import rel, schema_of


class TestFigure5:
    """R(A,B,C), F = {A -> B, C -> B},
    r = {(a1, ⊥, c1), (a1, b1, c2), (a2, b2, c1)}."""

    def _instance(self):
        return rel(
            "A B C",
            [("a1", "-", "c1"), ("a1", "b1", "c2"), ("a2", "b2", "c1")],
        )

    def test_basic_rules_are_order_dependent(self):
        # applying A -> B first substitutes b1; C -> B first substitutes b2
        r_prime = chase(
            self._instance(), ["A -> B", "C -> B"],
            mode=MODE_BASIC, strategy=STRATEGY_FD_ORDER,
        )
        r_double_prime = chase(
            self._instance(), ["C -> B", "A -> B"],
            mode=MODE_BASIC, strategy=STRATEGY_FD_ORDER,
        )
        assert r_prime.relation[0]["B"] == "b1"
        assert r_double_prime.relation[0]["B"] == "b2"
        assert canonical_form(r_prime.relation) != canonical_form(
            r_double_prime.relation
        )

    def test_both_basic_fixpoints_are_minimally_incomplete(self):
        for order in (["A -> B", "C -> B"], ["C -> B", "A -> B"]):
            result = chase(
                self._instance(), order, mode=MODE_BASIC,
                strategy=STRATEGY_FD_ORDER,
            )
            assert is_minimally_incomplete(result.relation, order)

    def test_extended_rules_drive_b_column_to_nothing(self):
        # "resulting in an instance with all values in the B column equal
        #  to nothing", in either order
        for order in (["A -> B", "C -> B"], ["C -> B", "A -> B"]):
            result = chase(
                self._instance(), order, mode=MODE_EXTENDED,
                strategy=STRATEGY_FD_ORDER,
            )
            assert all(row["B"] is NOTHING for row in result.relation)

    def test_extended_rules_unique_fixpoint(self):
        results = church_rosser_orders(
            self._instance(), ["A -> B", "C -> B"], mode=MODE_EXTENDED
        )
        forms = {canonical_form(result.relation) for result in results}
        assert len(forms) == 1

    def test_not_weakly_satisfiable(self):
        # Theorem 4(b): nothing appears, so no completion satisfies F
        assert not weakly_satisfiable(self._instance(), ["A -> B", "C -> B"])
        # ground truth agrees
        assert not weakly_satisfied(["A -> B", "C -> B"], self._instance())


class TestIsMinimallyIncomplete:
    def test_fresh_instance_with_applicable_rule(self):
        r = rel("A B", [("a", "-"), ("a", "b1")])
        assert not is_minimally_incomplete(r, ["A -> B"])

    def test_chase_output_is_minimal(self):
        r = rel("A B", [("a", "-"), ("a", "b1")])
        result = chase(r, ["A -> B"], mode=MODE_BASIC)
        assert is_minimally_incomplete(result.relation, ["A -> B"])

    def test_nec_candidates_count_as_applicable(self):
        r = rel("A B", [("a", "-"), ("a", "-")])
        assert not is_minimally_incomplete(r, ["A -> B"])

    def test_const_conflict_is_minimal_in_basic_mode_only(self):
        r = rel("A B", [("a", "b1"), ("a", "b2")])
        assert is_minimally_incomplete(r, ["A -> B"], mode=MODE_BASIC)
        assert not is_minimally_incomplete(r, ["A -> B"], mode=MODE_EXTENDED)

    def test_total_satisfied_instance_is_minimal(self):
        r = rel("A B", [("a", "b"), ("a2", "b2")])
        assert is_minimally_incomplete(r, ["A -> B"])


class TestWeaklySatisfiable:
    def test_engine_choice_agrees(self):
        """The verdict (vector engine) agrees with the sweep reference."""
        r = rel("A B C", [("a", "-", "c1"), ("a", "-", "c2")])
        fds = ["A -> B", "B -> C"]
        assert weakly_satisfiable(r, fds) is False
        assert chase(r, fds, mode=MODE_EXTENDED, engine="sweep").has_nothing

    def test_satisfiable_instance(self):
        r = rel("A B", [("a", "-"), ("a", "b1"), ("z", "b2")])
        assert weakly_satisfiable(r, ["A -> B"])
        assert weakly_satisfied(["A -> B"], r)

    def test_engine_validation(self):
        """minimally_incomplete forwards to chase(), which validates."""
        r = rel("A", [("a",)])
        with pytest.raises(ValueError):
            minimally_incomplete(r, [], mode="nope")
        with pytest.raises(ValueError):
            minimally_incomplete(r, [], strategy="nope")
        with pytest.raises(TypeError):
            minimally_incomplete(r, [], engine="sweep")
        with pytest.raises(TypeError):
            weakly_satisfiable(r, [], engine="sweep")


class TestCanonicalForm:
    def test_invariant_under_null_renaming(self):
        r1 = rel("A B", [("a", "-"), ("b", "-")])
        r2 = rel("A B", [("a", "-"), ("b", "-")])
        assert canonical_form(r1) == canonical_form(r2)

    def test_detects_nec_pattern(self):
        n = null()
        schema = schema_of("A B")
        shared = Relation(schema, [(n, "x"), (n, "x")])
        separate = rel("A B", [("-", "x"), ("-", "x")])
        assert canonical_form(shared) != canonical_form(separate)

    def test_detects_constant_difference(self):
        assert canonical_form(rel("A", [("x",)])) != canonical_form(
            rel("A", [("y",)])
        )


# ---------------------------------------------------------------------------
# property-based: Theorem 4 on random instances
# ---------------------------------------------------------------------------

_cell = st.sampled_from(["v0", "v1", "v2", None])
_fd_pool = ["A -> B", "B -> C", "A -> C", "C -> B", "A B -> C", "C -> A"]


@st.composite
def instances(draw, max_rows=4):
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [[draw(_cell) for _ in range(3)] for _ in range(n_rows)]
    schema = schema_of("A B C")  # unbounded domains: Theorem 4's setting
    return Relation(
        schema, [[null() if v is None else v for v in row] for row in rows]
    )


@st.composite
def fd_sets(draw):
    return draw(st.lists(st.sampled_from(_fd_pool), min_size=1, max_size=3, unique=True))


@given(instances(), fd_sets())
@settings(max_examples=120, deadline=None)
def test_theorem4a_church_rosser(instance, fds):
    """Extended NS-rules reach one unique fixpoint under any order."""
    results = church_rosser_orders(instance, fds, mode=MODE_EXTENDED, seeds=range(4))
    forms = {canonical_form(result.relation) for result in results}
    assert len(forms) == 1


@given(instances(max_rows=3), fd_sets())
@settings(max_examples=100, deadline=None)
def test_theorem4b_weak_satisfiability(instance, fds):
    """No nothing in the chase fixpoint iff some completion satisfies F.

    Ground truth via effective-domain completion enumeration (domains are
    unbounded, Theorem 4's setting — with exhaustible domains the chase is
    deliberately domain-blind, see the module docstring).
    """
    assume(instance.completion_count() <= 20_000)
    assert weakly_satisfiable(instance, fds) == weakly_satisfied(fds, instance)


@given(instances(), fd_sets())
@settings(max_examples=100, deadline=None)
def test_chase_fixpoints_are_minimal(instance, fds):
    for mode in (MODE_BASIC, MODE_EXTENDED):
        result = chase(instance, fds, mode=mode)
        assert is_minimally_incomplete(result.relation, fds, mode=mode)


@given(instances(), fd_sets())
@settings(max_examples=80, deadline=None)
def test_chase_is_idempotent(instance, fds):
    once = chase(instance, fds, mode=MODE_EXTENDED)
    twice = chase(once.relation, fds, mode=MODE_EXTENDED)
    assert canonical_form(once.relation) == canonical_form(twice.relation)
    assert twice.applications == []
