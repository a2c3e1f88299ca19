"""Sharded-vs-serial differential suite: the stitched result is exact.

The acceptance contract for the sharded chase
(``repro/chase/sharded.py``) is *field identity* with the unsharded sweep
engine, the paper's Figure 5 chase — same row values (null equality as object identity), same NEC
classes in the same order, same substitutions, same NOTHING verdict.  The
randomized suite runs over a multi-component FD pool with shared nulls
and bypass columns; directed cases pin the stitch (a bypass occurrence of
a null grounded in a shard, the global representative order, constants
no wire codec could carry), the vector engine, and the session's
verification path.
"""

import pytest
from hypothesis import given, settings

from repro.chase.engine import ENGINE_SWEEP, ENGINE_VECTOR, chase
from repro.chase.session import ChaseSession
from repro.chase.sharded import STRATEGY_SHARDED, sharded_chase
from repro.chase.vector import vectorized_chase
from repro.core.values import null
from repro.errors import ReproError

from ..helpers import rel, schema_of
from ..strategies import assert_field_identical, fd_sets, instances

def sweep_chase(relation, fds):
    """The reference: the strategy-parametric sweep engine, extended mode."""
    return chase(relation, fds, engine=ENGINE_SWEEP)


#: FDs over A..F forming several components, leaving G H untouched —
#: the plan exercises multi-shard execution plus bypass splicing
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


class TestInProcessDifferential:
    """The randomized suite plus the stitch's directed cases."""

    @given(
        instances(attributes="A B C D E F G H", max_rows=7, shared_nulls=4),
        fd_sets(pool=MULTI_FD_POOL, min_size=1, max_size=5),
    )
    @settings(max_examples=250, deadline=None)
    def test_sharded_matches_indexed(self, instance, fds):
        """Sharded execution equals the unsharded reference chase."""
        reference = sweep_chase(instance, fds)
        stitched = sharded_chase(instance, fds)
        assert stitched.strategy == STRATEGY_SHARDED
        assert_field_identical(stitched, reference)

    def test_no_fds_returns_the_input_as_fixpoint(self):
        r = rel("A B", [("a", "-"), ("b", "-")])
        result = sharded_chase(r, [])
        assert [row.values for row in result.relation.rows] == [
            row.values for row in r.rows
        ]
        assert result.nec_classes == []
        assert result.substitutions == {}
        assert not result.has_nothing

    def test_bypass_columns_pass_through_untouched(self):
        shared = null()
        r = rel("A B C", [("a", "b1", shared), ("a", "b2", shared)])
        result = sharded_chase(r, ["A -> B"])
        reference = sweep_chase(r, ["A -> B"])
        assert_field_identical(result, reference)
        # the C column (bypass) still holds the original null object
        assert result.relation.rows[0].values[2] is shared

    def test_shared_null_grounded_in_a_shard_is_ground_in_bypass(self):
        # the shard grounds the null; the stitcher must rewrite the
        # bypass occurrence too
        shared = null()
        r = rel("A B C", [("a", shared, shared), ("a", "b", "c")])
        stitched = sharded_chase(r, ["A -> B"])
        assert_field_identical(stitched, sweep_chase(r, ["A -> B"]))
        assert stitched.relation.rows[0].values == ("a", "b", "b")

    def test_cross_shard_representative_order_is_global(self):
        # v occurs first in the bypass column C, so it is the serial
        # engines' representative of the class {u, v}; the shard over
        # A B sees u first and picks u, which the stitch must overrule
        u, v = null(), null()
        r = rel("C A B", [(v, "a", u), ("x", "a", v)])
        stitched = sharded_chase(r, ["A -> B"])
        assert_field_identical(stitched, sweep_chase(r, ["A -> B"]))
        assert stitched.nec_classes == [(v, u)]
        assert stitched.relation.rows[0].values == (v, "a", v)

    def test_non_json_scalar_constants(self):
        weird = ("tu", "ple")  # hashable constant no wire codec carries
        r = rel("A B C D", [("a", "b", weird, "d"), ("a", "-", weird, "-")])
        fds = ["A -> B", "C -> D"]
        assert_field_identical(sharded_chase(r, fds), sweep_chase(r, fds))


class TestVectorEngine:
    @given(instances(), fd_sets(min_size=1, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_vectorized_matches_indexed(self, instance, fds):
        """The vector engine equals the unsharded reference chase."""
        assert_field_identical(
            vectorized_chase(instance, fds), sweep_chase(instance, fds)
        )

    def test_engine_vector_selects_the_vector_path(self):
        r = rel("A B", [("a", "-"), ("a", "b")])
        result = chase(r, ["A -> B"], engine=ENGINE_VECTOR)
        assert_field_identical(result, sweep_chase(r, ["A -> B"]))
        # the standalone entry point labels its results
        assert vectorized_chase(r, ["A -> B"]).strategy == "vector"


class TestSessionIntegration:
    def test_session_verify_runs_the_sharded_chase(self):
        schema = schema_of("A B C D")
        session = ChaseSession(schema, ["A -> B", "C -> D"])
        session.insert(["a", null(), "c", null()])
        session.insert(["a", "b", "c", "d"])
        assert session.verify()
        assert len(session.plan().shards) == 2

    def test_set_fds_replans_and_rechases(self):
        schema = schema_of("A B")
        session = ChaseSession(schema, ["A -> B"])
        unknown = null()
        session.insert(["a", unknown])
        session.insert(["a", "b"])
        assert session.result().relation.rows[0].values == ("a", "b")
        first_plan = session.plan()
        session.set_fds([])
        assert session.plan() is not first_plan
        assert session.plan().shards == ()
        # re-chased under the empty FD set: the null is unknown again
        assert session.result().relation.rows[0].values == ("a", unknown)
        assert session.verify()

    def test_set_fds_refused_on_journalled_sessions(self):
        schema = schema_of("A B")
        session = ChaseSession(schema, ["A -> B"])
        session.on_op = lambda payload: None
        with pytest.raises(ReproError, match="journalled"):
            session.set_fds([])
