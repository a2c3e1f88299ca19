"""Database unit coverage: WAL discipline, recovery paths, checkpoints,
catalog management, and every crash window the storage format claims to
survive."""

import json

import pytest

from repro.chase import ChaseSession, chase
from repro.core.values import NOTHING, is_null, null
from repro.db import Database
from repro.db.storage import CHECKPOINT_NAME, MANIFEST_NAME, WAL_NAME
from repro.errors import CodecError, DatabaseError, OpError, ReproError, SchemaError

from ..strategies import assert_recovered_identical

FDS = ["zip -> city"]


@pytest.fixture
def root(tmp_path):
    return tmp_path / "db"


def open_db(root):
    return Database.open(root, sync="flush")


def wal_path(root, name="people"):
    return root / "relations" / name / WAL_NAME


def seed_people(db):
    people = db.create("people", "name zip city", FDS)
    people.insert(("Ada", "10001", "New York"))
    people.insert(("Bob", "10001", null()))
    return people


class TestBasics:
    def test_insert_survives_reopen(self, root):
        db = open_db(root)
        seed_people(db)
        # crash: no close()
        recovered = open_db(root)["people"]
        assert len(recovered) == 2
        assert recovered.result().relation[1]["city"] == "New York"
        assert recovered.verify()
        assert recovered.recovery_info["replayed"] == 2

    def test_wal_is_written_before_the_op_applies(self, root):
        db = open_db(root)
        people = seed_people(db)
        lines = wal_path(root).read_text().splitlines()
        assert [json.loads(line)["op"] for line in lines] == ["insert", "insert"]
        assert [json.loads(line)["seq"] for line in lines] == [1, 2]

    def test_full_vocabulary_round_trips(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.update(0, {"name": "Ada L"})
        people.replace(1, ("Bea", "60601", null()))
        people.fill(1, "city", "Chicago")
        people.insert(("Cid", "60601", null()))
        people.adopt()
        people.delete(0)
        reference = people.session
        recovered = open_db(root)["people"]
        assert_recovered_identical(recovered, reference)

    def test_reset_round_trips(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.reset([("Zed", "11111", null()), ("Yan", "11111", "Metropolis")])
        recovered = open_db(root)["people"]
        assert_recovered_identical(recovered, people.session)

    def test_nothing_state_round_trips(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.insert(("Mal", "10001", "Newark"))
        assert people.has_nothing
        recovered = open_db(root)["people"]
        assert recovered.has_nothing
        assert_recovered_identical(recovered, people.session)

    def test_snapshot_rollback_are_journalled(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.snapshot()
        people.insert(("Mal", "10001", "Newark"))
        assert people.has_nothing
        people.rollback()
        recovered = open_db(root)["people"]
        assert not recovered.has_nothing
        assert_recovered_identical(recovered, people.session)

    def test_rollback_without_snapshot_is_refused_unjournalled(self, root):
        db = open_db(root)
        people = seed_people(db)
        with pytest.raises(OpError):
            people.rollback()
        assert len(wal_path(root).read_text().splitlines()) == 2

    def test_multiple_relations_are_independent(self, root):
        db = open_db(root)
        seed_people(db)
        orders = db.create("orders", "order item", ["order -> item"])
        orders.insert(("o1", "widget"))
        recovered = open_db(root)
        assert recovered.names() == ["orders", "people"]
        assert len(recovered["orders"]) == 1
        assert len(recovered["people"]) == 2

    def test_context_manager_and_idempotent_close(self, root):
        with open_db(root) as db:
            seed_people(db)
        db.close()  # second close is a no-op
        assert len(open_db(root)["people"]) == 2


class TestValidationAndErrors:
    def test_unknown_relation(self, root):
        with pytest.raises(DatabaseError, match="no relation"):
            open_db(root).relation("ghost")

    def test_duplicate_create(self, root):
        db = open_db(root)
        seed_people(db)
        with pytest.raises(DatabaseError, match="already exists"):
            db.create("people", "A B")

    def test_bad_relation_name(self, root):
        db = open_db(root)
        for name in ("../evil", "", ".hidden", "a b"):
            with pytest.raises(DatabaseError):
                db.create(name, "A B")

    def test_bad_sync_mode(self, root):
        with pytest.raises(DatabaseError):
            Database.open(root, sync="wishful")

    def test_path_collision(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("not a directory")
        with pytest.raises(DatabaseError):
            Database.open(target)

    def test_manifest_format_mismatch(self, root):
        open_db(root)
        manifest = root / MANIFEST_NAME
        payload = json.loads(manifest.read_text())
        payload["format"] = 99
        manifest.write_text(json.dumps(payload))
        with pytest.raises(DatabaseError, match="format"):
            open_db(root)

    def test_failed_op_is_not_journalled_and_not_applied(self, root):
        db = open_db(root)
        people = seed_people(db)
        with pytest.raises(SchemaError):
            people.delete(9)
        with pytest.raises(SchemaError):
            people.insert(("only-one",))
        with pytest.raises(ReproError):
            people.fill(0, "city", "x")  # not a null cell
        assert len(wal_path(root).read_text().splitlines()) == 2
        assert len(people) == 2

    def test_unserializable_value_aborts_before_applying(self, root):
        db = open_db(root)
        people = seed_people(db)
        with pytest.raises(CodecError):
            people.insert(("Eve", ("tu", "ple"), "x"))
        assert len(people) == 2
        assert len(wal_path(root).read_text().splitlines()) == 2
        # the session still works and journals afterwards
        people.insert(("Eve", "30303", "Austin"))
        assert open_db(root)["people"].recovery_info["rows"] == 3


class TestCheckpoints:
    def test_checkpoint_truncates_and_recovery_uses_it(self, root):
        db = open_db(root)
        people = seed_people(db)
        absorbed = db.checkpoint()["people"]
        assert absorbed == 2
        assert wal_path(root).read_text() == ""
        people.insert(("Cid", "60601", "Chicago"))
        recovered = open_db(root)["people"]
        info = recovered.recovery_info
        assert info["checkpoint_seq"] == 2
        assert info["replayed"] == 1
        assert_recovered_identical(recovered, people.session)

    def test_checkpoint_preserves_shared_null_identity(self, root):
        db = open_db(root)
        people = db.create("people", "name zip city", FDS)
        shared = null()
        people.insert(("Ada", "10001", shared))
        people.insert(("Bob", "20002", shared))  # one unknown, two cells
        db.checkpoint()
        recovered = open_db(root)["people"]
        rows = recovered.rows
        assert rows[0]["city"] is rows[1]["city"]
        assert_recovered_identical(recovered, people.session)

    def test_null_shared_across_checkpoint_boundary(self, root):
        db = open_db(root)
        people = db.create("people", "name zip city", FDS)
        shared = null()
        people.insert(("Ada", "10001", shared))
        db.checkpoint()
        people.insert(("Bob", "20002", shared))  # WAL references n0
        recovered = open_db(root)["people"]
        rows = recovered.rows
        assert rows[0]["city"] is rows[1]["city"]
        assert_recovered_identical(recovered, people.session)

    def test_crash_between_checkpoint_write_and_log_truncate(self, root):
        db = open_db(root)
        people = seed_people(db)
        stale = wal_path(root).read_text()
        db.checkpoint()
        # simulate the crash window: checkpoint durable, log not truncated
        wal_path(root).write_text(stale)
        recovered = open_db(root)["people"]
        assert recovered.recovery_info["replayed"] == 0  # all skipped by seq
        assert_recovered_identical(recovered, people.session)

    def test_checkpoint_of_one_relation(self, root):
        db = open_db(root)
        seed_people(db)
        orders = db.create("orders", "order item")
        orders.insert(("o1", "widget"))
        assert db.checkpoint("people") == {"people": 2}
        assert wal_path(root, "orders").read_text() != ""


class TestLogDamage:
    def test_torn_final_line_is_dropped(self, root):
        db = open_db(root)
        people = seed_people(db)
        with open(wal_path(root), "a") as handle:
            handle.write('{"seq":3,"op":"ins')  # mid-append crash
        recovered = open_db(root)["people"]
        assert recovered.recovery_info["torn_tail_dropped"]
        assert recovered.recovery_info["replayed"] == 2
        assert_recovered_identical(recovered, people.session)
        # the truncation healed the file: a further reopen is clean
        again = open_db(root)["people"]
        assert not again.recovery_info["torn_tail_dropped"]

    def test_torn_unterminated_valid_json_is_dropped(self, root):
        db = open_db(root)
        people = seed_people(db)
        with open(wal_path(root), "a") as handle:
            handle.write('{"seq":3,"op":"adopt"}')  # no newline: torn
        recovered = open_db(root)["people"]
        assert recovered.recovery_info["torn_tail_dropped"]
        assert recovered.recovery_info["replayed"] == 2

    def test_mid_log_corruption_is_an_error(self, root):
        db = open_db(root)
        seed_people(db)
        blob = wal_path(root).read_text().splitlines()
        blob[0] = blob[0][:10]  # corrupt the first record, keep the second
        wal_path(root).write_text("\n".join(blob) + "\n")
        with pytest.raises(DatabaseError, match="corrupt op log"):
            open_db(root)

    def test_seq_gap_is_an_error(self, root):
        db = open_db(root)
        seed_people(db)
        lines = wal_path(root).read_text().splitlines()
        wal_path(root).write_text(lines[0] + "\n" + lines[1].replace('"seq":2', '"seq":5') + "\n")
        with pytest.raises(DatabaseError, match="gap"):
            open_db(root)


class TestCatalog:
    def test_drop(self, root):
        db = open_db(root)
        seed_people(db)
        db.create("orders", "order item")
        db.drop("orders")
        assert "orders" not in db
        assert open_db(root).names() == ["people"]

    def test_orphan_directory_is_ignored(self, root):
        db = open_db(root)
        seed_people(db)
        (root / "relations" / "halfway").mkdir()  # crash mid-create
        assert open_db(root).names() == ["people"]

    def test_stats_shape(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.delete(0)
        stats = db.stats()["people"]
        assert stats["rows"] == 1
        assert stats["seq"] == 3
        assert stats["wal_ops"] == 3
        assert stats["checkpoint_seq"] == 0
        assert {"retire_fast", "trail_replay", "level_rebuild"} <= set(stats)

    def test_iteration_and_len(self, root):
        db = open_db(root)
        seed_people(db)
        db.create("orders", "order item")
        assert len(db) == 2
        assert {relation.name for relation in db} == {"people", "orders"}


class TestSnapshotCheckpointInterplay:
    """A checkpoint must never absorb a snapshot a later rollback still
    needs — the review found the absorbed-snapshot log was unopenable."""

    def test_checkpoint_refuses_outstanding_snapshots(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.snapshot()
        with pytest.raises(DatabaseError, match="outstanding snapshot"):
            db.checkpoint()
        people.rollback()
        assert db.checkpoint() == {"people": 4}  # 2 inserts + the pair
        # the log that used to brick recovery now round-trips
        recovered = open_db(root)["people"]
        assert_recovered_identical(recovered, people.session)

    def test_discard_snapshots_unblocks_checkpoint(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.snapshot()
        people.insert(("Cid", "60601", "Chicago"))
        assert people.discard_snapshots() == 1
        assert people.discard_snapshots() == 0  # idempotent, unjournalled
        db.checkpoint()
        recovered = open_db(root)["people"]
        assert len(recovered) == 3  # discard kept the post-snapshot insert
        assert_recovered_identical(recovered, people.session)
        with pytest.raises(OpError):
            recovered.rollback()  # the discard emptied the stack durably

    def test_a_snapshot_taken_on_the_session_is_journalled(self, root):
        # one stack, on the session: its own snapshot and rollback pass
        # the journal hook as the relation's do
        db = open_db(root)
        people = seed_people(db)
        assert people.session.snapshot() == 1
        people.insert(("Cid", "60601", "Chicago"))
        assert people.session.rollback() == 1
        wal = wal_path(root).read_text().splitlines()
        ops = [json.loads(line)["op"] for line in wal]
        assert ops == ["insert", "insert", "snapshot", "insert", "rollback"]
        recovered = open_db(root)["people"]
        assert len(recovered) == len(people) == 2
        assert_recovered_identical(recovered, people.session)
        people.session.snapshot()
        with pytest.raises(DatabaseError, match="outstanding snapshot"):
            db.checkpoint()

    def test_outstanding_snapshot_survives_recovery(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.snapshot()
        people.insert(("Mal", "10001", "Newark"))
        assert people.has_nothing
        # crash with the snapshot outstanding; recovery must rebuild the
        # journalled stack so the rollback still works
        recovered = open_db(root)["people"]
        assert recovered.has_nothing
        assert recovered.rollback() == 1
        assert not recovered.has_nothing
        people.rollback()  # bring the reference to the same point
        assert_recovered_identical(recovered, people.session)


class TestCrashedDropAndCreate:
    def test_create_over_crashed_drop_leftovers_starts_clean(self, root):
        db = open_db(root)
        people = seed_people(db)
        db.checkpoint()
        # simulate drop() crashing between its manifest rewrite and its
        # rmtree: the directory (with stale checkpoint + wal) survives
        import shutil as _shutil

        aside = root.parent / "aside"
        _shutil.copytree(root / "relations" / "people", aside)
        db.drop("people")
        _shutil.copytree(aside, root / "relations" / "people")

        fresh_db = open_db(root)
        fresh = fresh_db.create("people", "name zip city", FDS)
        fresh.insert(("Zed", "30303", "Austin"))
        recovered = open_db(root)["people"]
        # neither resurrected checkpoint rows nor a swallowed insert
        assert [row["name"] for row in recovered.rows] == ["Zed"]
        assert recovered.recovery_info["checkpoint_seq"] == 0
        assert recovered.recovery_info["replayed"] == 1


class TestAppendFailure:
    def test_failed_sync_rolls_the_log_back(self, root, monkeypatch):
        db = Database.open(root)  # sync="fsync": append goes through os.fsync
        people = db.create("people", "name zip city", FDS)
        people.insert(("Ada", "10001", "New York"))

        import os as _os

        real_fsync = _os.fsync

        def failing_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr("repro.db.log.os.fsync", failing_fsync)
        with pytest.raises(OSError):
            people.insert(("Bob", "10001", "x"))
        monkeypatch.setattr("repro.db.log.os.fsync", real_fsync)
        assert len(people) == 1  # the op aborted unapplied
        # ...and left no bytes behind: the log stays appendable + scannable
        people.insert(("Cid", "60601", "Chicago"))
        recovered = open_db(root)["people"]
        assert [row["name"] for row in recovered.rows] == ["Ada", "Cid"]
        assert not recovered.recovery_info["torn_tail_dropped"]


class TestOpenCreateFlag:
    def test_create_false_refuses_missing_database(self, tmp_path):
        target = tmp_path / "nope"
        with pytest.raises(DatabaseError, match="no database"):
            Database.open(target, create=False)
        assert not target.exists()  # and nothing was materialized

    def test_cli_read_commands_do_not_materialize(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "typo"
        code = main(["db", "recover", str(target)])
        assert code == 2
        assert "no database" in capsys.readouterr().err
        assert not target.exists()


class TestRecoveredSessionKeepsWorking:
    def test_ops_after_recovery_are_journalled_and_recoverable(self, root):
        db = open_db(root)
        people = seed_people(db)
        db.checkpoint()
        people.insert(("Cid", "60601", null()))
        second = open_db(root)["people"]
        second.insert(("Dee", "60601", "Chicago"))  # grounds Cid's null
        third = open_db(root)["people"]
        assert len(third) == 4
        assert third.result().relation[2]["city"] == "Chicago"
        assert third.verify()

    def test_session_invariant_after_recovery(self, root):
        db = open_db(root)
        people = seed_people(db)
        people.insert(("Cid", "60601", NOTHING))
        recovered = open_db(root)["people"]
        result = recovered.result()
        scratch = chase(recovered.raw_relation(), FDS)
        assert [r.values for r in result.relation.rows] == [
            r.values for r in scratch.relation.rows
        ]
