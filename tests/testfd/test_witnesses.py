"""Property: every *no* answer carries an honest witness.

A TEST-FDs rejection must point at a pair of rows that genuinely violates
under the convention's comparisons — and, for the weak convention on
minimally incomplete instances, at a pair that semantically blocks every
completion.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import MODE_BASIC, minimally_incomplete
from repro.core.relation import Relation
from repro.core.values import null
from repro.errors import ConventionError
from repro.testfd import (
    CONVENTION_STRONG,
    CONVENTION_WEAK,
    check_fds,
    check_fds_batched,
    check_fds_pairwise,
    check_fds_sortmerge,
    class_function,
    x_equal,
    y_unequal,
)

from ..helpers import schema_of

_cell = st.sampled_from(["v0", "v1", None])
_fd_pool = ["A -> B", "B -> C", "A B -> C", "C -> A"]


@st.composite
def cases(draw):
    n_rows = draw(st.integers(min_value=1, max_value=6))
    rows = [
        [draw(_cell) for _ in range(3)] for _ in range(n_rows)
    ]
    fds = draw(
        st.lists(st.sampled_from(_fd_pool), min_size=1, max_size=3, unique=True)
    )
    schema = schema_of("A B C")
    relation = Relation(
        schema, [[null() if v is None else v for v in row] for row in rows]
    )
    return relation, fds


def _witness_is_honest(relation, outcome, convention):
    if outcome.satisfied:
        return True
    witness = outcome.witness
    class_of = class_function(None)
    first = relation[witness.first_row]
    second = relation[witness.second_row]
    fd = witness.fd
    x_match = all(
        x_equal(convention, first[a], second[a], class_of) for a in fd.lhs
    )
    y_conflict = y_unequal(
        convention,
        first[witness.attribute],
        second[witness.attribute],
        class_of,
    )
    return x_match and y_conflict


@given(cases(), st.sampled_from([CONVENTION_STRONG, CONVENTION_WEAK]))
@settings(max_examples=150, deadline=None)
def test_all_variants_produce_honest_witnesses(case, convention):
    relation, fds = case
    for variant in (
        check_fds_pairwise, check_fds_sortmerge, check_fds_batched, check_fds
    ):
        try:
            outcome = variant(relation, fds, convention)
        except ConventionError:
            continue
        assert _witness_is_honest(relation, outcome, convention)


@given(cases())
@settings(max_examples=100, deadline=None)
def test_weak_witness_on_minimal_instance_is_constant_conflict(case):
    """On a chased instance, a weak-convention witness pins two constants."""
    relation, fds = case
    minimal = minimally_incomplete(relation, fds, mode=MODE_BASIC).relation
    outcome = check_fds_sortmerge(minimal, fds, CONVENTION_WEAK)
    if outcome.satisfied:
        return
    witness = outcome.witness
    from repro.core.values import is_constant

    first = minimal[witness.first_row][witness.attribute]
    second = minimal[witness.second_row][witness.attribute]
    assert is_constant(first) and is_constant(second) and first != second
