"""Tests for the three-valued truth domain (repro.core.truth)."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.truth import (
    FALSE,
    TRUE,
    UNKNOWN,
    TruthValue,
    and_,
    from_bool,
    implies_,
    is_definite,
    lub,
    not_,
    or_,
)

ALL = [TRUE, FALSE, UNKNOWN]
truth_values = st.sampled_from(ALL)


class TestBasics:
    def test_three_distinct_values(self):
        assert len(set(ALL)) == 3

    def test_bool_coercion_is_an_error(self):
        with pytest.raises(TypeError):
            bool(TRUE)
        with pytest.raises(TypeError):
            if UNKNOWN:  # pragma: no cover - raises before body
                pass

    def test_from_bool(self):
        assert from_bool(True) is TRUE
        assert from_bool(False) is FALSE

    def test_is_definite(self):
        assert is_definite(TRUE)
        assert is_definite(FALSE)
        assert not is_definite(UNKNOWN)

    def test_str(self):
        assert str(TRUE) == "true"
        assert str(UNKNOWN) == "unknown"


class TestKleeneConnectives:
    def test_negation_table(self):
        assert not_(TRUE) is FALSE
        assert not_(FALSE) is TRUE
        assert not_(UNKNOWN) is UNKNOWN

    def test_conjunction_table(self):
        assert and_(TRUE, TRUE) is TRUE
        assert and_(TRUE, FALSE) is FALSE
        assert and_(FALSE, UNKNOWN) is FALSE
        assert and_(TRUE, UNKNOWN) is UNKNOWN
        assert and_(UNKNOWN, UNKNOWN) is UNKNOWN

    def test_disjunction_table(self):
        assert or_(FALSE, FALSE) is FALSE
        assert or_(TRUE, UNKNOWN) is TRUE
        assert or_(FALSE, UNKNOWN) is UNKNOWN
        assert or_(UNKNOWN, UNKNOWN) is UNKNOWN

    def test_empty_connectives(self):
        assert and_() is TRUE
        assert or_() is FALSE

    def test_nary(self):
        assert and_(TRUE, TRUE, UNKNOWN, TRUE) is UNKNOWN
        assert or_(FALSE, FALSE, TRUE, UNKNOWN) is TRUE

    def test_implication_definition(self):
        # P => Q := not P or Q (section 5)
        for p, q in itertools.product(ALL, ALL):
            assert implies_(p, q) is or_(not_(p), q)

    @given(truth_values, truth_values)
    def test_de_morgan(self, p, q):
        assert not_(and_(p, q)) is or_(not_(p), not_(q))
        assert not_(or_(p, q)) is and_(not_(p), not_(q))

    @given(truth_values, truth_values, truth_values)
    def test_associativity_via_nary(self, p, q, r):
        assert and_(p, q, r) is and_(and_(p, q), r)
        assert or_(p, q, r) is or_(or_(p, q), r)

    @given(truth_values)
    def test_double_negation(self, p):
        assert not_(not_(p)) is p


class TestLub:
    """The knowledge-join of the least-extension rule (section 2)."""

    def test_paper_examples(self):
        # Q("John", null) = lub{yes, no} = unknown
        assert lub([TRUE, FALSE]) is UNKNOWN
        # Q'("John", null) = lub{yes, yes} = yes
        assert lub([TRUE, TRUE]) is TRUE

    def test_uniform_sets(self):
        assert lub([FALSE, FALSE, FALSE]) is FALSE
        assert lub([TRUE]) is TRUE

    def test_unknown_absorbs(self):
        assert lub([TRUE, UNKNOWN]) is UNKNOWN
        assert lub([UNKNOWN]) is UNKNOWN

    def test_empty_is_true(self):
        assert lub([]) is TRUE

    @given(st.lists(truth_values, min_size=1))
    def test_lub_is_unknown_iff_not_uniform_definite(self, values):
        result = lub(values)
        if UNKNOWN in values or len(set(values)) > 1:
            assert result is UNKNOWN
        else:
            assert result is values[0]

    @given(st.lists(truth_values, min_size=1), st.lists(truth_values, min_size=1))
    def test_lub_is_order_insensitive_and_idempotent(self, left, right):
        assert lub(left + right) is lub(right + left)
        assert lub(left + left) is lub(left)


class TestConnectiveTruthTables:
    """``and_``/``or_`` decide by identity with early exits; pin them to
    the order FALSE < UNKNOWN < TRUE on every argument tuple of length
    0 to 3 (the empty tuple included)."""

    RANK = {FALSE: 0, UNKNOWN: 1, TRUE: 2}

    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    def test_and_is_the_minimum(self, arity):
        for values in itertools.product(ALL, repeat=arity):
            expected = min(values, key=self.RANK.__getitem__, default=TRUE)
            assert and_(*values) is expected, values

    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    def test_or_is_the_maximum(self, arity):
        for values in itertools.product(ALL, repeat=arity):
            expected = max(values, key=self.RANK.__getitem__, default=FALSE)
            assert or_(*values) is expected, values

    def test_a_non_truth_value_is_refused(self):
        with pytest.raises(TypeError):
            and_(TRUE, True)
        with pytest.raises(TypeError):
            or_(FALSE, None)
