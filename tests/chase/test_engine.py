"""Tests for the NS-rule fixpoint engine (section 6, Definitions 1-2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase.engine import (
    MODE_BASIC,
    MODE_EXTENDED,
    STRATEGY_FD_ORDER,
    STRATEGY_RANDOM,
    STRATEGY_ROUND_ROBIN,
    chase,
    x_side_substitutions,
)
from repro.core.relation import Relation
from repro.core.values import NOTHING, is_null, null

from ..helpers import rel, schema_of
from ..strategies import assert_field_identical, fd_sets, instances


class TestRuleA_Substitution:
    """Definition 2(a): one null, one constant — substitute."""

    def test_simple_substitution(self):
        r = rel("A B", [("a", "-"), ("a", "b1")])
        result = chase(r, ["A -> B"], mode=MODE_BASIC)
        assert result.relation[0]["B"] == "b1"
        assert len(result.applications) == 1
        assert result.applications[0].action == "substitute"

    def test_substitution_recorded(self):
        r = rel("A B", [("a", "-"), ("a", "b1")])
        result = chase(r, ["A -> B"], mode=MODE_BASIC)
        original_null = r[0]["B"]
        assert result.substitutions[original_null] == "b1"

    def test_substitution_cascades_across_fds(self):
        # A -> B fills B, which enables B -> C to fill C
        r = rel("A B C", [("a", "-", "-"), ("a", "b1", "c1")])
        result = chase(r, ["A -> B", "B -> C"], mode=MODE_BASIC)
        assert result.relation[0]["B"] == "b1"
        assert result.relation[0]["C"] == "c1"

    def test_no_rule_without_x_agreement(self):
        r = rel("A B", [("a", "-"), ("a2", "b1")])
        result = chase(r, ["A -> B"], mode=MODE_BASIC)
        assert is_null(result.relation[0]["B"])
        assert result.applications == []


class TestRuleB_NEC:
    """Definition 2(b): both null — introduce a null equality constraint."""

    def test_nec_merges_nulls(self):
        r = rel("A B", [("a", "-"), ("a", "-")])
        result = chase(r, ["A -> B"], mode=MODE_BASIC)
        # the two result cells hold the SAME null object (one class)
        assert result.relation[0]["B"] is result.relation[1]["B"]
        assert len(result.nec_classes) == 1
        assert len(result.nec_classes[0]) == 2

    def test_nec_then_substitution(self):
        # NEC links the two nulls; a third matching row then grounds both
        r = rel("A B", [("a", "-"), ("a", "-"), ("a", "b9")])
        result = chase(r, ["A -> B"], mode=MODE_BASIC)
        assert result.relation[0]["B"] == "b9"
        assert result.relation[1]["B"] == "b9"
        assert result.nec_classes == []  # grounded classes are substitutions

    def test_nec_transitive_via_chain(self):
        # NECs across FDs: B-nulls equated, making B -> C fire
        r = rel("A B C", [("a", "-", "-"), ("a", "-", "c5")])
        result = chase(r, ["A -> B", "B -> C"], mode=MODE_BASIC)
        assert result.relation[0]["C"] == "c5"


class TestExtendedRules:
    def test_const_conflict_poisons_both(self):
        r = rel("A B", [("a", "b1"), ("a", "b2")])
        result = chase(r, ["A -> B"], mode=MODE_EXTENDED)
        assert result.relation[0]["B"] is NOTHING
        assert result.relation[1]["B"] is NOTHING
        assert result.has_nothing

    def test_poison_propagates_to_equal_constants(self):
        # the third row's b1 is the same constant: it must become nothing too
        r = rel("A B", [("a", "b1"), ("a", "b2"), ("z", "b1")])
        result = chase(r, ["A -> B"], mode=MODE_EXTENDED)
        assert result.relation[2]["B"] is NOTHING

    def test_same_value_other_column_unaffected(self):
        # poisoning is per-column: "b1" in column C survives
        r = rel("A B C", [("a", "b1", "b1"), ("a", "b2", "b1")])
        result = chase(r, ["A -> B"], mode=MODE_EXTENDED)
        assert result.relation[0]["B"] is NOTHING
        assert result.relation[0]["C"] == "b1"

    def test_basic_mode_leaves_conflict_alone(self):
        r = rel("A B", [("a", "b1"), ("a", "b2")])
        result = chase(r, ["A -> B"], mode=MODE_BASIC)
        assert result.relation[0]["B"] == "b1"
        assert result.relation[1]["B"] == "b2"
        assert not result.has_nothing

    def test_null_joining_poisoned_class(self):
        # a null NEC'd into a poisoned class becomes nothing
        r = rel("A B", [("a", "b1"), ("a", "b2"), ("a", "-")])
        result = chase(r, ["A -> B"], mode=MODE_EXTENDED)
        assert result.relation[2]["B"] is NOTHING
        original_null = r[2]["B"]
        assert result.substitutions[original_null] is NOTHING


class TestSection6Example:
    """r = {(a, ⊥, c1), (a, ⊥, c2)}, F = {A -> B, B -> C}."""

    def _instance(self):
        return rel("A B C", [("a", "-", "c1"), ("a", "-", "c2")])

    def test_extended_chase_finds_the_contradiction(self):
        result = chase(self._instance(), ["A -> B", "B -> C"], mode=MODE_EXTENDED)
        assert result.has_nothing  # not weakly satisfiable

    def test_basic_chase_reaches_nec_fixpoint(self):
        result = chase(self._instance(), ["A -> B", "B -> C"], mode=MODE_BASIC)
        assert not result.has_nothing
        assert len(result.nec_classes) == 1  # the two B-nulls are equated

    def test_firing_order_recorded(self):
        result = chase(self._instance(), ["A -> B", "B -> C"], mode=MODE_EXTENDED)
        actions = [a.action for a in result.applications]
        assert "nec" in actions and "nothing" in actions


class TestStrategies:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            chase(rel("A", [("a",)]), [], mode="nope")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            chase(rel("A B", [("a", "b")]), ["A -> B"], strategy="nope")

    def test_total_instance_is_fixpoint_when_satisfied(self):
        r = rel("A B", [("a", "b1"), ("a2", "b2")])
        result = chase(r, ["A -> B"])
        assert result.applications == []
        assert result.relation == r

    def test_shared_input_nulls_form_initial_classes(self):
        n = null()
        schema = schema_of("A B")
        r = Relation(schema, [("a", n), ("a2", n)])
        result = chase(r, ["A -> B"], mode=MODE_BASIC)
        # the shared null stays shared (one class, no rule fired)
        assert result.relation[0]["B"] is result.relation[1]["B"]


# ---------------------------------------------------------------------------
# randomized: Theorem 4's order independence, on the sweep engine itself
# ---------------------------------------------------------------------------


@given(
    instances(max_rows=5),
    fd_sets(),
    st.sampled_from((STRATEGY_FD_ORDER, STRATEGY_RANDOM)),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_extended_sweep_is_strategy_invariant(instance, fds, strategy, seed):
    """Extended mode: every strategy reaches the same fixpoint (Theorem 4),
    field-identically — not just up to canonical form."""
    reference = chase(instance, fds, mode=MODE_EXTENDED, engine="sweep")
    other = chase(
        instance, fds, mode=MODE_EXTENDED, strategy=strategy, seed=seed,
        engine="sweep",
    )
    assert_field_identical(other, reference)


class TestXSideSubstitutions:
    """Section 4's domain-dependent conditions (1) and (2) — reported only."""

    def test_condition_1_unique_agreeing_completion(self):
        r = rel(
            "A B",
            [("-", "y1"), ("a1", "y1"), ("a2", "y2")],
            domains={"A": ["a1", "a2"]},
        )
        subs = x_side_substitutions(r, "A -> B")
        assert len(subs) == 1
        assert subs[0].value == "a1"
        assert subs[0].condition == "unique-agreeing-completion"

    def test_condition_2_missing_domain_value(self):
        r = rel(
            "A B",
            [("-", "y9"), ("a1", "y1"), ("a2", "y2")],
            domains={"A": ["a1", "a2", "a3"]},
        )
        subs = x_side_substitutions(r, "A -> B")
        assert len(subs) == 1
        assert subs[0].value == "a3"
        assert subs[0].condition == "missing-domain-value"

    def test_no_substitution_with_unbounded_domain(self):
        r = rel("A B", [("-", "y1"), ("a1", "y1")])
        assert x_side_substitutions(r, "A -> B") == []

    def test_no_substitution_when_ambiguous(self):
        # two agreeing completions: no forced substitution
        r = rel(
            "A B",
            [("-", "y1"), ("a1", "y1"), ("a2", "y1")],
            domains={"A": ["a1", "a2"]},
        )
        assert x_side_substitutions(r, "A -> B") == []

    def test_chase_never_applies_x_rules(self):
        r = rel(
            "A B",
            [("-", "y1"), ("a1", "y1"), ("a2", "y2")],
            domains={"A": ["a1", "a2"]},
        )
        result = chase(r, ["A -> B"])
        assert is_null(result.relation[0]["A"])
