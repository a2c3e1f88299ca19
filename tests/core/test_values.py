"""Tests for cell values: Null identity, NOTHING, the approximation order."""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.core.values import (
    NOTHING,
    Null,
    approximates,
    constant_key,
    is_constant,
    is_nothing,
    is_null,
    null,
    value_lub,
)


class TestNullIdentity:
    def test_fresh_nulls_are_distinct(self):
        assert null() != null()

    def test_null_equals_itself(self):
        n = null()
        assert n == n
        assert len({n, n}) == 1

    def test_labels_are_unique_by_default(self):
        labels = {null().label for _ in range(100)}
        assert len(labels) == 100

    def test_explicit_label(self):
        assert null("x").label == "x"
        assert repr(null("x")) == "⊥x"

    def test_two_same_label_nulls_still_distinct(self):
        # labels are display-only; identity is what matters
        assert null("x") != null("x")


class TestPredicates:
    def test_classification_is_a_partition(self):
        samples = [null(), NOTHING, "a", 0, 3.5, ("t",)]
        for value in samples:
            kinds = [is_null(value), is_nothing(value), is_constant(value)]
            assert kinds.count(True) == 1

    def test_nothing_is_a_singleton(self):
        from repro.core.values import _Nothing

        assert _Nothing() is NOTHING

    def test_nothing_survives_pickle(self):
        assert pickle.loads(pickle.dumps(NOTHING)) is NOTHING


class TestApproximationOrder:
    def test_null_approximates_everything(self):
        n = null()
        assert approximates(n, "a")
        assert approximates(n, 42)
        assert approximates(n, NOTHING)
        assert approximates(n, n)

    def test_constants_approximate_only_themselves_and_nothing(self):
        assert approximates("a", "a")
        assert not approximates("a", "b")
        assert approximates("a", NOTHING)

    def test_distinct_nulls_both_bottom(self):
        # In the section-2 value lattice there is one bottom element: any
        # null approximates any other null (identity only matters for NECs).
        n, m = null(), null()
        assert approximates(n, m)
        assert approximates(m, n)

    def test_nothing_is_top(self):
        assert approximates(NOTHING, NOTHING)
        assert not approximates(NOTHING, "a")

    def test_reflexive(self):
        for v in [null(), NOTHING, "a", 7]:
            assert approximates(v, v)


class TestValueLub:
    def test_null_joins_to_other(self):
        n = null()
        assert value_lub(n, "a") == "a"
        assert value_lub("a", n) == "a"
        assert value_lub(n, n) is n

    def test_distinct_constants_poison(self):
        assert value_lub("a", "b") is NOTHING

    def test_equal_constants_join(self):
        assert value_lub("a", "a") == "a"

    def test_nothing_absorbs(self):
        assert value_lub(NOTHING, "a") is NOTHING
        assert value_lub(null(), NOTHING) is NOTHING

    @given(st.sampled_from(["a", "b", 1]), st.sampled_from(["a", "b", 1]))
    def test_commutative(self, x, y):
        assert value_lub(x, y) == value_lub(y, x)

    def test_lub_is_an_upper_bound(self):
        n = null()
        for x, y in [(n, "a"), ("a", "a"), ("a", "b"), (n, NOTHING)]:
            j = value_lub(x, y)
            assert approximates(x, j)
            assert approximates(y, j)


class TestConstantKey:
    def test_orders_mixed_types_without_error(self):
        values = ["b", 2, "a", 10, 1.5]
        ordered = sorted(values, key=constant_key)
        assert set(ordered) == set(values)

    def test_groups_by_type(self):
        assert constant_key(1) != constant_key("1")
