"""Cover-pruned chase planning: equivalent FD sets, identical fixpoints.

``prune_fds`` rewrites a plan's FD set to an Armstrong-equivalent cover
(trivials dropped, same-LHS merged, LHSs reduced, implied FDs removed).
Theorem 4 makes the rewrite invisible to the chase *result* — the unique
minimally-incomplete fixpoint depends on the FD set only through its
closure — which the differential suite here checks field by field.
"""

import random

from repro.chase.engine import chase
from repro.chase.sharded import sharded_chase
from repro.chase.plan import fuse_for_rows, plan_shards, prune_fds
from repro.chase.session import ChaseSession
from repro.core.fd import FD
from repro.core.relation import Relation
from repro.core.schema import RelationSchema
from repro.core.tuples import Row
from repro.core.values import null

SCHEMA = RelationSchema("R", "A B C D E")


class TestPruneFds:
    def test_trivial_fds_drop(self):
        kept, dropped = prune_fds(SCHEMA, ["A -> A", "A B -> B"])
        assert kept == ()
        assert len(dropped) == 2

    def test_duplicates_collapse(self):
        kept, _ = prune_fds(SCHEMA, ["A -> B", "A -> B", "B A -> B"])
        assert kept == (FD("A", "B"),)

    def test_same_lhs_merge(self):
        kept, _ = prune_fds(SCHEMA, ["A -> B", "A -> C"])
        assert kept == (FD("A", "B C"),)

    def test_implied_fd_removed(self):
        kept, dropped = prune_fds(SCHEMA, ["A -> B", "B -> C", "A -> C"])
        assert FD("A", "C") not in kept
        assert FD("A", "C") in dropped

    def test_extraneous_lhs_attribute_reduced(self):
        kept, _ = prune_fds(SCHEMA, ["A -> B", "A B -> C"])
        # B is extraneous in AB -> C (closure(A) already holds B)
        assert set(kept) == {FD("A", "B"), FD("A", "C")} or set(kept) == {
            FD("A", "B C")
        }

    def test_pruned_set_is_equivalent(self):
        from repro.armstrong.implication import equivalent

        fds = ["A -> B", "B -> C", "A -> C", "A B -> D", "C -> C"]
        kept, _ = prune_fds(SCHEMA, fds)
        assert equivalent(kept, [FD.parse(f) for f in fds if "->" in f])

    def test_empty_input(self):
        assert prune_fds(SCHEMA, []) == ((), ())


class TestPlanIntegration:
    def test_plan_records_dropped_fds(self):
        plan = plan_shards(SCHEMA, ["A -> B", "A -> B", "E -> E"], prune=True)
        assert plan.fds == (FD("A", "B"),)
        assert len(plan.dropped) == 2
        assert "pruned" in plan.summary()

    def test_unpruned_plan_keeps_every_fd(self):
        plan = plan_shards(SCHEMA, ["A -> B", "A -> B"], prune=False)
        assert len(plan.fds) == 2
        assert plan.dropped == ()

    def test_pruning_can_widen_the_bypass(self):
        # AD -> B is implied by A -> B; dropping it frees column D
        plan = plan_shards(SCHEMA, ["A -> B", "A D -> B"], prune=True)
        d = SCHEMA.position("D")
        assert d in plan.bypass

    def test_fuse_preserves_dropped(self):
        plan = plan_shards(SCHEMA, ["A -> B", "A -> B", "C -> D"], prune=True)
        shared = null()
        rows = [
            Row(SCHEMA, ["a", shared, "c", "d", "e"]),
            Row(SCHEMA, ["x", "y", "c", shared, "e"]),
        ]
        fused = fuse_for_rows(plan, rows)
        assert len(fused.shards) == 1  # the shared null coupled the shards
        assert fused.dropped == plan.dropped

    def test_session_plan_is_pruned(self):
        session = ChaseSession(SCHEMA, ["A -> B", "A -> B", "B -> C"])
        plan = session.plan()
        assert len(plan.fds) < 3
        assert plan.dropped


def random_instance(rng, rows=6):
    pool = [null() for _ in range(4)]
    out = []
    for _ in range(rows):
        values = []
        for _ in range(len(SCHEMA)):
            r = rng.random()
            if r < 0.3:
                values.append(rng.choice(pool))
            else:
                values.append(f"v{rng.randint(0, 3)}")
        out.append(values)
    return Relation(SCHEMA, [Row(SCHEMA, v) for v in out])


def redundant_fd_set(rng):
    base = [FD("A", "B"), FD("B", "C"), FD("C", "D")]
    redundant = [FD("A", "C"), FD("A", "D"), FD("B", "D"), FD("A B", "C")]
    fds = base + rng.sample(redundant, rng.randint(1, len(redundant)))
    rng.shuffle(fds)
    return fds


class TestDifferentialGuard:
    def test_pruned_chase_is_field_identical_to_unpruned(self):
        rng = random.Random(42)
        for trial in range(25):
            fds = redundant_fd_set(rng)
            relation = random_instance(rng)
            pruned_plan = plan_shards(SCHEMA, fds, prune=True)
            unpruned_plan = plan_shards(SCHEMA, fds, prune=False)
            assert len(pruned_plan.fds) < len(unpruned_plan.fds)
            pruned = sharded_chase(relation, fds, plan=pruned_plan)
            unpruned = sharded_chase(relation, fds, plan=unpruned_plan)
            assert [r.values for r in pruned.relation.rows] == [
                r.values for r in unpruned.relation.rows
            ], f"trial {trial}: rows diverge"
            assert pruned.nec_classes == unpruned.nec_classes
            assert {
                id(k): v for k, v in pruned.substitutions.items()
            } == {id(k): v for k, v in unpruned.substitutions.items()}
            assert pruned.has_nothing == unpruned.has_nothing

    def test_pruned_plan_matches_the_serial_engine(self):
        rng = random.Random(7)
        for _ in range(10):
            fds = redundant_fd_set(rng)
            relation = random_instance(rng)
            reference = chase(relation, fds)
            pruned = sharded_chase(relation, fds)
            assert [r.values for r in pruned.relation.rows] == [
                r.values for r in reference.relation.rows
            ]
            assert pruned.has_nothing == reference.has_nothing

    def test_session_verify_holds_under_pruned_plans(self):
        rng = random.Random(13)
        session = ChaseSession(SCHEMA, redundant_fd_set(rng))
        for row in random_instance(rng, rows=5).rows:
            session.insert(row)
        assert session.verify()
