"""Cover-pruned chasing: equivalent FD sets, identical fixpoints.

``ChaseSession.verify()`` chases the raw rows under
:func:`~repro.armstrong.cover.minimal_cover` of the session's FD set
(right-reduced, left-reduced, irredundant; ``tests/armstrong/test_cover.py``
pins the cover itself).  Theorem 4 makes the rewrite invisible to the
chase *result* — the unique minimally-incomplete fixpoint depends on the
FD set only through its closure — which the differential suite here checks
field by field, with nulls shared across FD and FD-free columns.
"""

import random

from repro.armstrong.cover import minimal_cover
from repro.chase.engine import chase
from repro.chase.session import ChaseSession
from repro.core.fd import FD
from repro.core.relation import Relation
from repro.core.schema import RelationSchema
from repro.core.tuples import Row
from repro.core.values import null

SCHEMA = RelationSchema("R", "A B C D E")


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
            cover = minimal_cover(fds)
            assert len(cover) < len(fds)
            pruned = chase(relation, cover)
            unpruned = chase(relation, fds)
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
            reference = chase(relation, fds, engine="sweep")
            pruned = chase(relation, minimal_cover(fds))
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

    def test_verify_with_a_null_in_an_fd_column_and_an_fd_free_column(self):
        # E is FD-free under the cover and the input alike; one null sits
        # in B (grounded by A -> B) and in E, so the reference chase must
        # ground its bypassed occurrence too
        shared = null()
        session = ChaseSession(
            SCHEMA, ["A -> B", "B -> C", "A -> C", "A B -> C", "A -> B"]
        )
        session.insert(["a", shared, null(), "d1", shared])
        session.insert(["a", "b", "c", "d2", "e"])
        assert session.result().relation.rows[0].values == (
            "a", "b", "c", "d1", "b",
        )
        assert session.verify()
