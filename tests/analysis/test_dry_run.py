"""A batch's dry run leaves the session as it found it, cut and counters
included.

Lint decides a batch by running it on the live session and undoing it
(:meth:`~repro.chase.session.ChaseSession.dry_run`).  An undo by a pure
trail pop restores the session's generation, so its
:attr:`~repro.chase.session.ChaseSession.cut` reads as before: a lease
or snapshot taken before the batch stays fast.  And the dry run's op
outcomes never reach :meth:`~repro.chase.session.ChaseSession.stats`,
which counts applied ops only.
"""

from repro.analysis import lint_requests
from repro.chase.session import ChaseSession
from repro.core.schema import RelationSchema
from repro.core.values import null

SCHEMA = RelationSchema("R", "A B C")
FDS = ["A -> B"]


def seeded(n=40):
    rows = [
        (f"a{i % 10}", null() if i % 3 else f"b{i % 10}", f"c{i}") for i in range(n)
    ]
    return ChaseSession(SCHEMA, FDS, rows)


def dry_run(session, requests):
    return lint_requests(SCHEMA, FDS, requests, target=session)


INSERT = [{"do": "insert", "row": ["a1", {"n": None}, "c9"]}]
BAD_INDEX = [{"do": "delete", "index": 999}]


class TestThePreBatchCutSurvives:
    def test_an_admitted_insert_batch_keeps_the_cut(self):
        session = seeded()
        lease = session.lease()
        assert dry_run(session, INSERT) == []
        assert lease.fresh
        assert session.cut == lease.cut

    def test_a_refused_batch_keeps_the_cut(self):
        session = seeded()
        lease = session.lease()
        [finding] = dry_run(session, BAD_INDEX)
        assert finding.code == "E_BAD_INDEX"
        assert lease.fresh

    def test_a_pre_batch_snapshot_still_rolls_back_by_trail_pop(self):
        session = seeded()
        session.snapshot()
        dry_run(session, INSERT)
        session.insert(("a2", "b2", "c2"))
        rebuilds = session.stats()["level_rebuild"]
        session.rollback()
        assert session.stats()["level_rebuild"] == rebuilds
        assert session.verify()

    def test_a_fill_dry_run_leaves_later_deletes_on_the_trail(self):
        # a fill guards the trail below it from rewinds; undone, the
        # guard goes with it, so deleting a recent row still replays
        session = seeded()
        fill = {"do": "fill", "index": 1, "attr": "B", "value": "b1"}
        assert dry_run(session, [fill]) == []
        before = session.stats()
        session.delete(len(session) - 1)
        assert session.stats() == dict(before, trail_replay=before["trail_replay"] + 1)
        assert session.verify()

    def test_a_dry_run_that_rewound_keeps_its_bump(self):
        session = seeded()
        rows = session.rows
        lease = session.lease()
        dry_run(session, [{"do": "delete", "index": len(rows) - 1}])
        assert session.cut[0] > lease.cut[0]
        assert not lease.fresh  # a rebuilt state is never mistaken for the cut
        assert session.rows == rows
        assert session.verify()


class TestDryRunsStayOutOfStats:
    def test_a_one_delete_dry_run_counts_nothing(self):
        session = seeded()
        before = session.stats()
        dry_run(session, [{"do": "delete", "index": len(session) - 1}])
        assert session.stats() == before

    def test_an_old_row_delete_dry_run_counts_nothing(self):
        session = seeded()
        before = session.stats()
        dry_run(
            session,
            [{"do": "delete", "index": 0}, {"do": "update", "index": 1, "set": {"C": "c"}}],
        )
        assert session.stats() == before

    def test_applied_ops_still_count(self):
        session = seeded()
        before = session.stats()["trail_replay"]
        session.delete(len(session) - 1)
        assert session.stats()["trail_replay"] == before + 1
