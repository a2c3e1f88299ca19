"""Properties of the completion sets AP(t, R) and AP(r, R) (section 4)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relation import Relation
from repro.core.values import is_null, null

from ..helpers import schema_of

_cell = st.sampled_from(["v0", "v1", None])


@st.composite
def instances(draw, shared=True):
    """Up to three rows over A in {v0, v1} and B in a drawn domain that
    may equal, partly overlap or miss A's.  With ``shared`` one null
    object may also sit in an A cell and a B cell, so its choices are
    the intersection of the two domains."""
    n_rows = draw(st.integers(min_value=1, max_value=3))
    rows = [
        [null() if v is None else v for v in (draw(_cell), draw(_cell))]
        for _ in range(n_rows)
    ]
    b_domain = draw(st.sampled_from([["v0", "v1"], ["v1", "v2"], ["v2"]]))
    schema = schema_of("A B", {"A": ["v0", "v1"], "B": b_domain})
    if shared and draw(st.booleans()):
        both = null()
        rows[draw(st.integers(0, n_rows - 1))][0] = both
        rows[draw(st.integers(0, n_rows - 1))][1] = both
    return Relation(schema, rows)


@given(instances())
@settings(max_examples=100, deadline=None)
def test_completion_count_matches_enumeration(instance):
    assert instance.completion_count() == len(list(instance.completions()))


@given(instances())
@settings(max_examples=100, deadline=None)
def test_completions_are_total_and_above(instance):
    for completed in instance.completions():
        assert completed.is_total()
        for original, ground in zip(instance.rows, completed.rows):
            assert original.approximates(ground)


@given(instances())
@settings(max_examples=100, deadline=None)
def test_completions_are_pairwise_distinct(instance):
    seen = set()
    for completed in instance.completions():
        key = tuple(tuple(row.values) for row in completed.rows)
        assert key not in seen
        seen.add(key)


@given(instances(shared=False))
@settings(max_examples=80, deadline=None)
def test_row_completions_factorize_instance_completions(instance):
    """|AP(r)| equals the product of |AP(t)| when no nulls are shared."""
    product = 1
    for row in instance.rows:
        product *= len(list(row.completions()))
    assert instance.completion_count() == product


@given(instances())
@settings(max_examples=60, deadline=None)
def test_null_classes_only_shrink_the_completion_set(instance):
    nulls = instance.nulls()
    if len(nulls) < 2:
        return
    linked = {n: "shared" for n in nulls[:2]}
    assert instance.completion_count(null_classes=linked) <= (
        instance.completion_count()
    )
