"""Crash injection for group commit: kill at every batch boundary.

Extends the PR 5 torn-record suite to *batched* records.  The contract
under group commit is stage-before-apply, durable-before-ack:

* recovery yields a **whole-record prefix of the staged order** — never
  a half-applied batch, never a record the committer didn't stage;
* that prefix contains **every client-acknowledged op** (acks resolve
  only after the batch fsync);
* applied-but-unsynced ops may be lost — their clients were never
  acked, so nothing observable is lost.

``crash_writer.py`` (a subprocess — SIGKILL must take the whole
process, WAL handles and all) streams a deterministic multi-client
schedule through a real server and dies at an instrumented point; the
parent recovers the directory and checks it against the instrument
files and a serial replay of the durable records.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.chase import ChaseSession
from repro.core.codec import ValueCodec, fds_from_spec
from repro.core.schema import RelationSchema
from repro.db import Database, OpLog
from repro.db import log as oplog
from repro.db import storage
from repro.db.recovery import replay

from ..strategies import assert_recovered_identical

CHILD = Path(__file__).with_name("crash_writer.py")
ATTRS = "A B C"
FDS = ["A -> B", "B -> C"]


def run_child(tmp_path: Path, label: str, *flags: str) -> subprocess.CompletedProcess:
    import os

    src = str(CHILD.parent.parent.parent / "src")
    root = tmp_path / label
    out = tmp_path / f"{label}.inst"
    process = subprocess.run(
        [sys.executable, str(CHILD), str(root), str(out), *flags],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "REPRO_SRC": src, "PYTHONPATH": src},
    )
    return process


def read_lines(path: Path) -> list:
    if not path.exists():
        return []
    return [line for line in path.read_text().splitlines() if line.strip()]


def durable_records(tmp_path: Path, label: str) -> list:
    return [json.loads(line) for line in read_lines(tmp_path / f"{label}.inst.commits")]


def client_acked_seqs(tmp_path: Path, label: str) -> list:
    return [int(line) for line in read_lines(tmp_path / f"{label}.inst.acks")]


def reference_replay(records: list) -> ChaseSession:
    """The durable records driven through a fresh session serially."""
    session = ChaseSession(RelationSchema("r", ATTRS), fds_from_spec(FDS))
    replay(session, records, ValueCodec(), base_seq=0)
    return session


def assert_recovery_contract(tmp_path: Path, label: str) -> Database:
    """The shared postcondition: recovered state == serial replay of the
    commit log, containing every client-acked seq."""
    records = durable_records(tmp_path, label)
    seqs = [record["seq"] for record in records]
    assert seqs == list(range(1, len(seqs) + 1)), "commit log has a seq gap"

    db = Database.open(tmp_path / label, sync="none", create=False)
    relation = db["r"]
    assert relation.seq == len(records), (
        f"recovered seq {relation.seq} != durable history {len(records)}"
    )
    acked = client_acked_seqs(tmp_path, label)
    if acked:
        assert max(acked) <= relation.seq, "an acked op was lost in recovery"
    assert_recovered_identical(relation, reference_replay(records))
    assert relation.verify()
    return db


def test_kill_at_every_batch_boundary(tmp_path):
    """SIGKILL inside on_commit after batch K, for every K.

    A completion run first discovers how many batch boundaries this
    schedule has on this machine; the sweep then kills at each one
    (capped to keep runtime bounded — the earliest and latest boundaries
    are always included).
    """
    probe = run_child(tmp_path, "probe")
    assert probe.returncode == 0, probe.stderr
    assert "COMPLETED" in probe.stdout
    total_batches = int(probe.stdout.split("batches=")[1].split()[0])
    assert total_batches >= 1
    # the completed run must itself satisfy the contract (kill never fired)
    assert_recovery_contract(tmp_path, "probe").close()

    boundaries = sorted(set(
        [1, 2, total_batches]
        + list(range(3, total_batches, max(1, total_batches // 4)))
    ))
    boundaries = [k for k in boundaries if 1 <= k <= total_batches][:8]
    for k in boundaries:
        label = f"kill{k}"
        process = run_child(tmp_path, label, "--kill-after-batch", str(k))
        assert process.returncode == -signal.SIGKILL, (
            f"child survived kill at batch {k}: {process.stdout} {process.stderr}"
        )
        records = durable_records(tmp_path, label)
        assert records, f"kill at batch {k} left no durable history"
        db = assert_recovery_contract(tmp_path, label)
        db.close()


@pytest.mark.parametrize("tear_at", [1, 2, 4])
def test_torn_batch_append_recovers_staged_prefix(tmp_path, tear_at):
    """Die mid-batch-append: half the batch's bytes land, unsynced flushes
    permitting.  Recovery must keep exactly the durable batches plus a
    whole-record prefix of the torn batch's staged order."""
    label = f"tear{tear_at}"
    process = run_child(tmp_path, label, "--tear-batch", str(tear_at))
    if process.returncode == 0:
        pytest.skip(f"schedule produced fewer than {tear_at} batch appends")
    assert process.returncode == -signal.SIGKILL, process.stderr

    committed = durable_records(tmp_path, label)
    staged = [
        json.loads(line) for line in read_lines(tmp_path / f"{label}.inst.staged")
    ]
    assert staged, "tear point never reached despite SIGKILL exit"

    wal_path = storage.relation_dir(tmp_path / label, "r") / storage.WAL_NAME
    on_disk, good_bytes, torn = oplog.scan(wal_path)
    # the surviving log is the committed batches plus a (possibly empty)
    # whole-record prefix of the torn batch — in staged order
    assert on_disk == committed + staged[: len(on_disk) - len(committed)]
    assert len(on_disk) < len(committed) + len(staged), "nothing was torn"

    db = Database.open(tmp_path / label, sync="none", create=False)
    relation = db["r"]
    assert relation.recovery_info["torn_tail_dropped"] == torn
    assert relation.seq == len(on_disk)
    acked = client_acked_seqs(tmp_path, label)
    if acked:
        assert max(acked) <= relation.seq
    assert_recovered_identical(relation, reference_replay(on_disk))
    assert relation.verify()
    db.close()


def test_torn_batched_records_at_every_offset(tmp_path):
    """In-process sweep: truncate a batched log at every byte offset of
    its final batch; scan must always return the whole-record prefix and
    flag the torn tail (the PR 5 per-record sweep, for append_many)."""
    path = tmp_path / "wal.jsonl"
    wal = OpLog(path, sync="flush")
    batch_one = [{"seq": 1, "op": "insert", "row": ["a", {"n": "n0"}]},
                 {"seq": 2, "op": "insert", "row": ["b", {"n": "n0"}]}]
    batch_two = [{"seq": 3, "op": "delete", "index": 0},
                 {"seq": 4, "op": "insert", "row": ["c", None]},
                 {"seq": 5, "op": "adopt"}]
    wal.append_many(batch_one)
    boundary = path.stat().st_size
    wal.append_many(batch_two)
    wal.close()
    blob = path.read_bytes()

    for cut in range(boundary, len(blob)):
        torn_path = tmp_path / f"cut{cut}.jsonl"
        torn_path.write_bytes(blob[:cut])
        records, good_bytes, torn = oplog.scan(torn_path)
        # every survivor is a whole record, in order, from the front;
        # the first batch (synced as a unit) always survives whole
        assert records == (batch_one + batch_two)[: len(records)]
        assert len(records) >= len(batch_one)
        # a cut on a record boundary is clean; anywhere else leaves a
        # torn tail that scan must flag (recovery truncates at good_bytes)
        at_record_boundary = cut == boundary or blob[:cut].endswith(b"\n")
        assert torn == (not at_record_boundary)
        assert good_bytes == (cut if at_record_boundary else
                              len(blob[:cut].rsplit(b"\n", 1)[0]) + 1)
