"""Column-bypass differential suite: the spliced result is exact.

In extended mode ``chase()`` runs one vector state over the columns some
FD mentions and splices the other columns back
(``repro/chase/vector.py``).  The acceptance contract is *field identity*
with the sweep engine, the paper's Figure 5 chase over every column — same
row values (null equality as object identity), same NEC classes in the
same order, same substitutions, same NOTHING verdict.  The randomized
suite runs over an FD pool on A..F with G and H FD-free and nulls shared
across both, and again with no null in a bypassed column (where the
splice only interleaves columns).  Directed cases pin the splice (no FD,
pass-through, a bypass occurrence of a null grounded in an FD column, the
global representative order, constants no wire codec could carry, every
column mentioned), the all-columns vector state the benchmarks race
against, and the session's verification path.
"""

import pytest
from hypothesis import given, settings

from repro.chase.engine import ENGINE_AUTO, ENGINE_SWEEP, chase
from repro.chase.session import ChaseSession
from repro.chase.vector import VectorChaseState
from repro.core.fd import as_fd
from repro.core.relation import Relation
from repro.core.values import is_null, null
from repro.errors import ReproError

from ..helpers import rel, schema_of
from ..strategies import assert_field_identical, fd_sets, instances


def sweep_chase(relation, fds):
    """The reference: the strategy-parametric sweep engine, extended mode."""
    return chase(relation, fds, engine=ENGINE_SWEEP)


def all_columns_chase(relation, fds):
    """One vector state over every column, no bypass."""
    state = VectorChaseState(relation, fds)
    state.run_vectorized()
    return state.result("round_robin")


#: FDs over A..F, leaving G H to the bypass
MULTI_FD_POOL = (
    "A -> B",
    "B -> A",
    "A B -> C",
    "C -> B",
    "D -> E",
    "E -> D",
    "F -> D",
    "D E -> F",
)


class TestBypassDifferential:
    """The randomized suite plus the splice's directed cases."""

    @given(
        instances(attributes="A B C D E F G H", max_rows=7, shared_nulls=4),
        fd_sets(pool=MULTI_FD_POOL, min_size=1, max_size=5),
    )
    @settings(max_examples=250, deadline=None)
    def test_bypass_matches_sweep(self, instance, fds):
        """The bypassing chase equals the all-columns reference chase."""
        assert_field_identical(
            chase(instance, fds), sweep_chase(instance, fds)
        )

    @given(
        instances(attributes="A B C D E F G H", max_rows=7, shared_nulls=4),
        fd_sets(pool=MULTI_FD_POOL, min_size=1, max_size=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_bypass_matches_sweep_with_null_free_bypass_columns(
        self, instance, fds
    ):
        """With no null in a bypassed column the splice only interleaves
        columns; the result must still equal the reference."""
        schema = instance.schema
        mentioned = {
            col
            for fd in fds
            for col in schema.positions(as_fd(fd).lhs + as_fd(fd).rhs)
        }
        relation = Relation(
            schema,
            [
                [
                    value if col in mentioned or not is_null(value) else "k"
                    for col, value in enumerate(row.values)
                ]
                for row in instance.rows
            ],
        )
        assert_field_identical(
            chase(relation, fds), sweep_chase(relation, fds)
        )

    def test_no_fds_returns_the_input_as_fixpoint(self):
        r = rel("A B", [("a", "-"), ("b", "-")])
        result = chase(r, [])
        assert [row.values for row in result.relation.rows] == [
            row.values for row in r.rows
        ]
        assert result.nec_classes == []
        assert result.substitutions == {}
        assert not result.has_nothing

    def test_bypass_columns_pass_through_untouched(self):
        shared = null()
        r = rel("A B C", [("a", "b1", shared), ("a", "b2", shared)])
        result = chase(r, ["A -> B"])
        assert_field_identical(result, sweep_chase(r, ["A -> B"]))
        # the C column (bypass) still holds the original null object
        assert result.relation.rows[0].values[2] is shared

    def test_null_grounded_in_an_fd_column_is_ground_in_a_bypass_column(self):
        # the chase grounds the null in B; the splice must rewrite its
        # occurrence in the bypass column C too
        shared = null()
        r = rel("A B C", [("a", shared, shared), ("a", "b", "c")])
        result = chase(r, ["A -> B"])
        assert_field_identical(result, sweep_chase(r, ["A -> B"]))
        assert result.relation.rows[0].values == ("a", "b", "b")

    def test_representative_order_is_global(self):
        # v occurs first in the bypass column C, so it is the all-columns
        # engines' representative of the class {u, v}; the state over A B
        # sees u first and picks u, which the splice must overrule
        u, v = null(), null()
        r = rel("C A B", [(v, "a", u), ("x", "a", v)])
        result = chase(r, ["A -> B"])
        assert_field_identical(result, sweep_chase(r, ["A -> B"]))
        assert result.nec_classes == [(v, u)]
        assert result.relation.rows[0].values == (v, "a", v)

    def test_non_json_scalar_constants(self):
        weird = ("tu", "ple")  # hashable constant no wire codec carries
        r = rel(
            "A B C D E",
            [("a", "b", weird, "d", weird), ("a", "-", weird, "-", "e")],
        )
        fds = ["A -> B", "C -> D"]
        assert_field_identical(chase(r, fds), sweep_chase(r, fds))

    def test_every_column_mentioned_runs_the_plain_state(self):
        # nothing to splice: the result is the all-columns state's own,
        # diagnostics included
        r = rel("A B C", [("a", "-", "-"), ("a", "-", "c5")])
        fds = ["A B C -> A B C", "A -> B", "B -> C"]
        result = chase(r, fds)
        plain = all_columns_chase(r, fds)
        assert_field_identical(result, plain)
        assert result.applications == plain.applications
        assert result.passes == plain.passes


class TestAllColumnsState:
    @given(instances(), fd_sets(min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_all_columns_state_matches_sweep(self, instance, fds):
        """The benchmarks' no-bypass reference equals the sweep chase."""
        assert_field_identical(
            all_columns_chase(instance, fds), sweep_chase(instance, fds)
        )

    def test_engine_auto_selects_the_vector_path(self):
        r = rel("A B C", [("a", "-", "c"), ("a", "b", "-")])
        result = chase(r, ["A -> B"], engine=ENGINE_AUTO)
        assert_field_identical(result, sweep_chase(r, ["A -> B"]))


class TestSessionIntegration:
    def test_session_verify_chases_the_raw_rows(self):
        schema = schema_of("A B C D E")
        session = ChaseSession(schema, ["A -> B", "C -> D"])
        shared = null()
        session.insert(["a", shared, "c", null(), shared])
        session.insert(["a", "b", "c", "d", "e"])
        assert session.verify()

    def test_set_fds_rechases(self):
        schema = schema_of("A B")
        session = ChaseSession(schema, ["A -> B"])
        unknown = null()
        session.insert(["a", unknown])
        session.insert(["a", "b"])
        assert session.result().relation.rows[0].values == ("a", "b")
        session.set_fds([])
        # re-chased under the empty FD set: the null is unknown again
        assert session.result().relation.rows[0].values == ("a", unknown)
        assert session.verify()

    def test_set_fds_refused_on_journalled_sessions(self):
        schema = schema_of("A B")
        session = ChaseSession(schema, ["A -> B"])
        session.on_op = lambda payload: None
        with pytest.raises(ReproError, match="journalled"):
            session.set_fds([])
