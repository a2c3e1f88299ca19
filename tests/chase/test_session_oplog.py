"""The session's op-record hook (``ChaseSession.on_op``): the contract the
durable layer builds on.

Three properties:

* **one record per top-level op, none for internal work** — suffix
  replays, level rebuilds, retirement, rollback restoration and compaction
  re-apply rows through private entry points and must not re-emit;
* **validate-then-emit-then-apply** — an op that fails validation emits
  nothing; a hook that raises aborts the op with the state untouched
  (write-ahead: no record, no op);
* **replay fidelity** — feeding the emitted records back into a fresh
  session reproduces a field-identical state.
"""

import pytest

from repro.chase import ChaseSession
from repro.core.values import null
from repro.errors import ReproError, SchemaError

from ..helpers import schema_of
from ..strategies import assert_field_identical

SCHEMA = schema_of("A B C")
FDS = ["A -> B", "B -> C"]


def recording_session(fds=FDS):
    session = ChaseSession(SCHEMA, fds)
    records = []
    session.on_op = records.append
    return session, records


def replay(records, fds=FDS):
    replayed = ChaseSession(SCHEMA, fds)
    for record in records:
        op = record[0]
        if op == "insert":
            replayed.insert(record[1])
        elif op == "delete":
            replayed.delete(record[1])
        elif op == "update":
            replayed.update(record[1], record[2])
        elif op == "replace":
            replayed.replace(record[1], record[2])
        elif op == "fill":
            replayed.fill(record[1], record[2], record[3])
        elif op == "reset":
            replayed.reset(list(record[1]))
        elif op == "adopt":
            replayed.adopt()
        else:  # pragma: no cover
            raise AssertionError(record)
    return replayed


class TestEmission:
    def test_one_record_per_mutator(self):
        session, records = recording_session()
        session.insert(("a", null(), "c"))
        session.insert(("a", "b", "c2"))
        session.update(1, {"C": "c9"})
        session.replace(1, ("d", "e", "f"))
        session.delete(0)
        session.adopt()
        session.reset([("x", "y", "z")])
        assert [record[0] for record in records] == [
            "insert", "insert", "update", "replace", "delete", "adopt", "reset"
        ]

    def test_insert_record_carries_the_values(self):
        session, records = recording_session()
        unknown = null()
        session.insert(("a", unknown, "c"))
        assert records == [("insert", ("a", unknown, "c"))]

    def test_suffix_replay_does_not_reemit(self):
        session, records = recording_session()
        for i in range(6):
            session.insert((f"a{i}", f"b{i}", f"c{i}"))
        session.delete(4)  # recent victim: rewind + replay of row 5
        assert session.stats()["trail_replay"] == 1
        assert [record[0] for record in records] == ["insert"] * 6 + ["delete"]

    def test_rebuild_and_retirement_do_not_reemit(self):
        session, records = recording_session()
        for i in range(16):
            session.insert((f"a{i}", f"b{i}", f"c{i}"))
        session.delete(0)  # old settled victim: retirement
        assert session.stats()["retire_fast"] == 1
        session.compact()  # rebuild: re-inserts every row internally
        kinds = [record[0] for record in records]
        assert kinds == ["insert"] * 16 + ["delete"]  # no compact record

    def test_snapshot_stack_ops_are_records_their_restore_is_not(self):
        session, records = recording_session()
        session.insert(("a", "b", "c"))
        session.snapshot()
        session.insert(("a", "b9", "c9"))
        session.rollback()  # restoration re-applies rows internally
        session.snapshot()
        session.discard_snapshots()
        session.discard_snapshots()  # nothing outstanding: no record
        assert [record[0] for record in records] == [
            "insert", "snapshot", "insert", "rollback", "snapshot", "discard",
        ]

    def test_multi_column_fill_does_not_reemit(self):
        session, records = recording_session(fds=[])
        shared = null()
        session.insert((shared, "b", shared))  # null spans columns A and C
        session.fill(0, "A", "v")  # rewind-to-first-occurrence path
        assert [record[0] for record in records] == ["insert", "fill"]
        assert records[-1] == ("fill", 0, "A", "v")


class TestWriteAheadDiscipline:
    def test_failed_validation_emits_nothing(self):
        session, records = recording_session()
        session.insert(("a", "b", "c"))
        emitted = len(records)
        with pytest.raises(SchemaError):
            session.delete(7)
        with pytest.raises(SchemaError):
            session.insert(("too", "few"))
        with pytest.raises(SchemaError):
            session.update(0, {"Z": "nope"})
        with pytest.raises(ReproError):
            session.fill(0, "A", "x")  # cell is not null
        assert len(records) == emitted

    def test_raising_hook_aborts_before_application(self):
        session = ChaseSession(SCHEMA, FDS)
        session.insert(("a", "b", "c"))

        def veto(record):
            raise RuntimeError("journal unavailable")

        session.on_op = veto
        with pytest.raises(RuntimeError):
            session.insert(("a2", "b2", "c2"))
        with pytest.raises(RuntimeError):
            session.delete(0)
        session.on_op = None
        assert len(session) == 1
        assert [row["A"] for row in session.rows] == ["a"]


class TestReplayFidelity:
    def test_emitted_records_rebuild_the_state(self):
        session, records = recording_session()
        shared = null()
        session.insert(("a", shared, "c1"))
        session.insert(("a", null(), shared))
        session.insert(("a2", "b2", "c2"))
        session.update(2, {"B": null()})
        session.delete(1)
        session.adopt()
        session.insert(("a3", "b3", "c3"))
        replayed = replay(records)
        assert_field_identical(session.result(), replayed.result())
        assert [row.values for row in session.rows] == [
            row.values for row in replayed.rows
        ]

    def test_replay_reproduces_poisoning(self):
        session, records = recording_session()
        session.insert(("a", "b1", "c"))
        session.insert(("a", "b2", "c"))  # A -> B conflict: NOTHING
        assert session.has_nothing
        replayed = replay(records)
        assert replayed.has_nothing
        assert_field_identical(session.result(), replayed.result())
