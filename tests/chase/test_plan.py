"""Shard-planner tests: components are a true partition of the FD set.

The planner's claim (``repro/chase/plan.py``) is structural: FDs exchange
information only through shared attributes, so connected components of the
attribute graph chase independently.  These tests pin the partition
properties (every FD in exactly one shard, shard columns disjoint, bypass
columns disjoint from every shard), the degenerate shapes (an FD spanning
all columns collapses to one shard; no FDs means everything bypasses), the
row-level fusion rule (a null object bridging two shards' columns fuses
them), and — the acceptance contract — that a singleton plan's execution
matches the unplanned engine byte-for-byte.
"""

from hypothesis import given, settings

from repro.chase.engine import chase
from repro.chase.sharded import sharded_chase
from repro.chase.plan import fuse_for_rows, plan_shards
from repro.core.fd import as_fd
from repro.core.relation import Relation
from repro.core.values import null

from ..helpers import rel, schema_of
from ..strategies import CHASE_FD_POOL, assert_field_identical, fd_sets, instances

#: FDs over A..H with several structural components and untouched columns
WIDE_FD_POOL = (
    "A -> B",
    "B -> A",
    "A B -> C",
    "C -> A",
    "D -> E",
    "E -> D",
    "F -> G",
    "G -> F",
    "D -> F",
)


class TestStructuralPlan:
    def test_every_fd_lands_in_exactly_one_shard(self):
        schema = schema_of("A B C D E F G H")
        fds = ["A -> B", "D -> E", "F -> G"]
        plan = plan_shards(schema, fds)
        owned = [k for shard in plan.shards for k in shard.fd_indices]
        assert sorted(owned) == list(range(len(fds)))
        assert len(owned) == len(set(owned))

    def test_shard_columns_and_bypass_partition_the_schema(self):
        schema = schema_of("A B C D E F G H")
        plan = plan_shards(schema, ["A -> B", "D -> E", "F -> G"])
        seen = [c for shard in plan.shards for c in shard.columns]
        seen += list(plan.bypass)
        assert sorted(seen) == list(range(len(schema.attributes)))
        assert len(seen) == len(set(seen))
        assert plan.bypass == (2, 7)  # C and H are untouched

    def test_fd_spanning_all_columns_degenerates_to_one_shard(self):
        schema = schema_of("A B C D")
        plan = plan_shards(schema, ["A -> B", "C -> D", "A B C -> D"])
        assert len(plan.shards) == 1
        assert plan.shards[0].columns == (0, 1, 2, 3)
        assert plan.shards[0].fd_indices == (0, 1, 2)
        assert plan.bypass == ()

    def test_no_fds_means_everything_bypasses(self):
        schema = schema_of("A B C")
        plan = plan_shards(schema, [])
        assert plan.shards == ()
        assert plan.bypass == (0, 1, 2)

    def test_shards_are_ordered_by_first_column(self):
        schema = schema_of("A B C D")
        plan = plan_shards(schema, ["C -> D", "A -> B"])
        assert [shard.columns for shard in plan.shards] == [(0, 1), (2, 3)]
        # fd_indices keep input order: "C -> D" is FD 0
        assert [shard.fd_indices for shard in plan.shards] == [(1,), (0,)]

    def test_plan_normalizes_fds(self):
        schema = schema_of("A B C")
        plan = plan_shards(schema, ["A -> A B"])
        assert plan.fds == (as_fd("A -> B").normalized(),)

    @given(fd_sets(pool=WIDE_FD_POOL, min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_partition_property_on_random_fd_sets(self, fds):
        schema = schema_of("A B C D E F G H")
        plan = plan_shards(schema, fds)
        # every FD in exactly one shard
        owned = sorted(k for shard in plan.shards for k in shard.fd_indices)
        assert owned == list(range(len(fds)))
        # shard columns pairwise disjoint, and disjoint from bypass
        columns = [c for shard in plan.shards for c in shard.columns]
        assert len(columns) == len(set(columns))
        assert not set(columns) & set(plan.bypass)
        # each FD's attributes are contained in its shard's columns
        for shard in plan.shards:
            shard_cols = set(shard.columns)
            for k in shard.fd_indices:
                fd = plan.fds[k]
                fd_cols = set(schema.positions(fd.lhs) + schema.positions(fd.rhs))
                assert fd_cols <= shard_cols


class TestRowFusion:
    def test_shared_null_fuses_two_shards(self):
        schema = schema_of("A B C D")
        plan = plan_shards(schema, ["A -> B", "C -> D"])
        assert len(plan.shards) == 2
        shared = null()
        rows = Relation(schema, [["a", shared, shared, "d"]]).rows
        fused = fuse_for_rows(plan, rows)
        assert len(fused.shards) == 1
        assert fused.shards[0].columns == (0, 1, 2, 3)
        assert fused.shards[0].fd_indices == (0, 1)

    def test_unshared_nulls_leave_the_plan_untouched(self):
        schema = schema_of("A B C D")
        plan = plan_shards(schema, ["A -> B", "C -> D"])
        rows = Relation(schema, [["a", null(), null(), "d"]]).rows
        assert fuse_for_rows(plan, rows) is plan

    def test_null_shared_with_a_bypass_column_needs_no_fusion(self):
        # the stitcher repairs bypass occurrences from the shard's
        # substitutions, so only shard-to-shard sharing fuses
        schema = schema_of("A B C")
        plan = plan_shards(schema, ["A -> B"])
        shared = null()
        rows = Relation(schema, [["a", shared, shared]]).rows
        assert fuse_for_rows(plan, rows) is plan

    def test_transitive_sharing_fuses_a_chain_of_shards(self):
        schema = schema_of("A B C D E F")
        plan = plan_shards(schema, ["A -> B", "C -> D", "E -> F"])
        assert len(plan.shards) == 3
        u, v = null(), null()
        rows = Relation(schema, [["a", u, u, v, v, "f"]]).rows
        fused = fuse_for_rows(plan, rows)
        assert len(fused.shards) == 1
        assert fused.shards[0].fd_indices == (0, 1, 2)


class TestSingletonPlanMatchesUnplannedEngine:
    """A one-shard plan must execute byte-identically to the unplanned
    ``chase()``."""

    @given(instances(), fd_sets(pool=CHASE_FD_POOL, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_single_component_instances(self, instance, fds):
        # CHASE_FD_POOL spans A..D densely; whatever the component shape,
        # the planned execution must match the unplanned engine exactly
        reference = chase(instance, fds)
        planned = sharded_chase(instance, fds)
        assert_field_identical(planned, reference)

    def test_degenerate_all_columns_shard(self):
        r = rel("A B C", [("a", "-", "-"), ("a", "-", "c5")])
        fds = ["A B C -> A B C", "A -> B", "B -> C"]
        assert_field_identical(
            sharded_chase(r, fds), chase(r, fds)
        )
