"""Tests for the incremental chase: a :class:`ChaseSession` maintains the
fixpoint across a stream of inserts."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import ChaseSession, canonical_form, chase
from repro.core.relation import Relation
from repro.core.values import NOTHING, null

from ..helpers import schema_of


class TestBasics:
    def test_empty_start(self):
        session = ChaseSession(schema_of("A B"), ["A -> B"])
        assert len(session) == 0
        assert not session.has_nothing

    def test_single_insert(self):
        session = ChaseSession(schema_of("A B"), ["A -> B"])
        session.insert(("a", 1))
        assert len(session) == 1
        assert session.result().relation[0]["B"] == 1

    def test_substitution_on_insert(self):
        session = ChaseSession(schema_of("A B"), ["A -> B"])
        session.insert(("a", null()))
        session.insert(("a", "b1"))
        assert session.result().relation[0]["B"] == "b1"

    def test_nec_on_insert(self):
        session = ChaseSession(schema_of("A B"), ["A -> B"])
        session.insert(("a", null()))
        session.insert(("a", null()))
        result = session.result()
        assert result.relation[0]["B"] is result.relation[1]["B"]

    def test_conflict_detection_live(self):
        session = ChaseSession(schema_of("A B"), ["A -> B"])
        session.insert(("a", 1))
        assert not session.has_nothing
        session.insert(("a", 2))
        assert session.has_nothing
        assert session.result().relation[0]["B"] is NOTHING

    def test_cascade_through_earlier_rows(self):
        # a late insert grounds a null from the very first row via a chain
        session = ChaseSession(schema_of("A B C"), ["A -> B", "B -> C"])
        session.insert(("a", null(), null()))
        session.insert(("a", "b1", null()))
        session.insert(("z", "b1", "c9"))
        result = session.result()
        assert result.relation[0]["B"] == "b1"
        assert result.relation[0]["C"] == "c9"

    def test_initial_rows_argument(self):
        session = ChaseSession(
            schema_of("A B"), ["A -> B"], rows=[("a", null()), ("a", 7)]
        )
        assert session.result().relation[0]["B"] == 7


class TestEquivalenceWithBatch:
    def test_figure5_stream(self):
        from repro.workloads.paper import figure_5

        _, fds, relation = figure_5()
        session = ChaseSession(relation.schema, fds)
        for row in relation.rows:
            session.insert(row)
        batch = chase(relation, fds)
        assert canonical_form(session.result().relation) == canonical_form(
            batch.relation
        )
        assert session.has_nothing == batch.has_nothing


# ---------------------------------------------------------------------------
# property-based: a stream of inserts equals the batch chase of the result
# ---------------------------------------------------------------------------

_cell = st.sampled_from(["v0", "v1", "v2", None])
_fd_pool = ["A -> B", "B -> C", "A -> C", "C -> B", "A B -> C"]


@given(
    st.lists(
        st.tuples(_cell, _cell, _cell), min_size=1, max_size=8
    ),
    st.lists(st.sampled_from(_fd_pool), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_incremental_equals_batch(rows, fds):
    schema = schema_of("A B C")
    materialized = [
        [null() if v is None else v for v in row] for row in rows
    ]
    relation = Relation(schema, materialized)

    session = ChaseSession(schema, fds)
    for row in relation.rows:
        session.insert(row)
    batch = chase(relation, fds)
    assert canonical_form(session.result().relation) == canonical_form(
        batch.relation
    )
    assert session.has_nothing == batch.has_nothing


@given(
    st.lists(st.tuples(_cell, _cell, _cell), min_size=2, max_size=6),
    st.lists(st.sampled_from(_fd_pool), min_size=1, max_size=2, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_insertion_order_does_not_matter(rows, fds):
    schema = schema_of("A B C")
    materialized = [
        [null() if v is None else v for v in row] for row in rows
    ]
    forward = ChaseSession(schema, fds)
    for row in Relation(schema, materialized).rows:
        forward.insert(row)
    backward = ChaseSession(schema, fds)
    for row in reversed(Relation(schema, materialized).rows):
        backward.insert(row)
    assert forward.has_nothing == backward.has_nothing
    # canonical_form numbers nulls by first occurrence, so row shapes are
    # comparable as multisets only when no row holds a null
    if not any(cell is None for row in rows for cell in row):
        assert sorted(canonical_form(forward.result().relation)) == sorted(
            canonical_form(backward.result().relation)
        )
