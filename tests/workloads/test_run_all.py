"""Smoke test for the benchmark harness: ``run_all.py --quick`` works and
its JSON matches the committed baseline schema.

The committed ``BENCH_PR*.json`` baselines are only useful if later runs
keep emitting the same shape; this guards the format against drift.  The
run is restricted (``--only``) to the two sub-second benchmarks — the
point is the harness and the schema, not the series — but it exercises the
full path: subprocess dispatch, quick-mode environment switch, metric
parsing (E4 prints both a slope and a speedup line), and the JSON writer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
RUN_ALL = REPO_ROOT / "benchmarks" / "run_all.py"


def _run_quick(tmp_path, only=("e1_", "e4")):  # "e1" alone would match e10/e11
    out = tmp_path / "bench.json"
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, str(RUN_ALL), "--quick", "--out", str(out), "--only", *only],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(REPO_ROOT),
        timeout=300,
    )
    return proc, out


def assert_bench_schema(report):
    """The BENCH_PR*.json contract, field by field."""
    assert set(report) == {"quick", "python", "platform", "benchmarks"}
    assert isinstance(report["quick"], bool)
    assert isinstance(report["python"], str)
    assert isinstance(report["platform"], str)
    assert isinstance(report["benchmarks"], dict) and report["benchmarks"]
    for name, entry in report["benchmarks"].items():
        assert name.startswith("bench_")
        assert entry["status"] in ("ok", "error", "timeout")
        assert isinstance(entry["wall_s"], (int, float))
        for metrics_key in ("slopes", "speedups"):
            if metrics_key in entry:
                assert entry[metrics_key], f"{name}: empty {metrics_key}"
                for label, value in entry[metrics_key].items():
                    assert isinstance(label, str)
                    assert isinstance(value, (int, float))
        if "series" in entry:
            assert entry["series"], f"{name}: empty series"
            for label, values in entry["series"].items():
                assert isinstance(label, str)
                assert isinstance(values, list) and values
                assert all(isinstance(v, (int, float)) for v in values)


def test_quick_run_exits_zero_and_emits_schema(tmp_path):
    proc, out = _run_quick(tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert_bench_schema(report)
    assert report["quick"] is True
    assert set(report["benchmarks"]) == {
        "bench_e1_figure1", "bench_e4_testfds_variants"
    }
    for entry in report["benchmarks"].values():
        assert entry["status"] == "ok"
    # E4 prints slope lines and the shared-LHS batching speedup; the
    # parser must have captured both metric kinds
    e4 = report["benchmarks"]["bench_e4_testfds_variants"]
    assert "slopes" in e4
    assert "speedups" in e4


def test_no_benchmarks_matched_is_an_error(tmp_path):
    proc, _ = _run_quick(tmp_path, only=("zzz",))
    assert proc.returncode == 2


def test_committed_baselines_match_schema():
    """The checked-in baselines obey the same contract the harness emits."""
    for name in (
        "BENCH_PR1.json",
        "BENCH_PR2.json",
        "BENCH_PR3.json",
        "BENCH_PR4.json",
        "BENCH_PR5.json",
        "BENCH_PR6.json",
        "BENCH_PR7.json",
        "BENCH_PR8.json",
        "BENCH_PR9.json",
        "BENCH_PR10.json",
        "BENCH_PR16.json",
        "BENCH_PR18.json",
    ):
        path = REPO_ROOT / name
        assert path.exists(), f"{name} missing from the repo root"
        assert_bench_schema(json.loads(path.read_text()))


def test_pr3_baseline_records_mixed_workload_series():
    """BENCH_PR3.json carries the session-vs-re-chase series: bench_a2 is
    discovered by default now, and its mixed-workload speedup line must
    have been captured by the metric parser."""
    report = json.loads((REPO_ROOT / "BENCH_PR3.json").read_text())
    a2 = report["benchmarks"]["bench_a2_incremental"]
    assert a2["status"] == "ok"
    speedups = a2["speedups"]
    key = "session mixed-workload speedup at largest configuration"
    assert key in speedups
    assert speedups[key] >= 3.0  # the PR 3 acceptance floor
    assert any("slope" in label for label in a2.get("slopes", {}))


def test_pr10_baseline_records_planner_series():
    """BENCH_PR10.json carries the Q1c planner series: the bucket
    equi-join's speedup over the nested loop, captured by the metric
    parser, at or above the PR 10 acceptance floor."""
    report = json.loads((REPO_ROOT / "BENCH_PR10.json").read_text())
    q1 = report["benchmarks"]["bench_q1_query"]
    assert q1["status"] == "ok"
    key = "optimized over naive equi-join speedup at largest configuration"
    assert key in q1["speedups"]
    assert q1["speedups"][key] >= 2.0  # the PR 10 acceptance floor
    assert "naive join wall ms by size" in q1["series"]
    assert "optimized join wall ms by size" in q1["series"]


def test_pr16_baseline_records_sharded_series():
    """BENCH_PR16.json carries E5c and A2d under what they measure: the
    in-process sharded chase over the unified chase (>= 1.5x on the
    multi-component E5c workload), sharded verification over an unsharded
    reference chase, and no worker-count labels; cover pruning and the
    session headlines were not traded away."""
    report = json.loads((REPO_ROOT / "BENCH_PR16.json").read_text())
    e5 = report["benchmarks"]["bench_e5_chase_scaling"]
    assert e5["status"] == "ok"
    key = "sharded chase speedup over unified at largest configuration"
    assert e5["speedups"][key] >= 1.5
    assert e5["speedups"]["cover-pruning speedup at largest configuration"] >= 1.2
    assert "unified chase wall s by size" in e5["series"]
    assert "sharded chase wall s by size" in e5["series"]
    a2 = report["benchmarks"]["bench_a2_incremental"]
    assert a2["status"] == "ok"
    assert (
        "sharded verify speedup over unsharded at largest configuration"
        in a2["speedups"]
    )
    assert "unsharded verify wall s by size" in a2["series"]
    assert "sharded verify wall s by size" in a2["series"]
    for entry in (e5, a2):
        assert not any("workers" in label for label in entry["speedups"])
        assert not any("parallel(" in label for label in entry["series"])
    assert (
        a2["speedups"]["session mixed-workload speedup at largest configuration"]
        >= 3.0
    )
    assert (
        a2["speedups"]["old-row retirement speedup at largest configuration"]
        >= 3.0
    )


def test_pr18_baseline_records_one_engine_series():
    """BENCH_PR18.json labels E5, E3 and E4 by the role measured, not by
    an engine: the default extended chase over the sweep (>= 5x), hash
    grouping, and batched over per-FD grouping (>= 2x on E3b); no label
    names a deleted engine or variant, and the sharded, pruning and
    session headlines held."""
    report = json.loads((REPO_ROOT / "BENCH_PR18.json").read_text())
    e5 = report["benchmarks"]["bench_e5_chase_scaling"]
    assert e5["status"] == "ok"
    speedups = e5["speedups"]
    assert (
        speedups["extended chase speedup over sweep at largest configuration"]
        >= 5.0
    )
    assert (
        speedups["sharded chase speedup over unified at largest configuration"]
        >= 1.5
    )
    assert speedups["cover-pruning speedup at largest configuration"] >= 1.2
    assert "extended chase log-log slope in p" in e5["slopes"]
    e3 = report["benchmarks"]["bench_e3_testfds_scaling"]
    assert e3["status"] == "ok"
    assert (
        e3["speedups"]["batched speedup over per-FD grouping at largest n"]
        >= 2.0
    )
    assert "log-log slope, hash grouping" in e3["slopes"]
    e4 = report["benchmarks"]["bench_e4_testfds_variants"]
    assert "hash grouping log-log slope" in e4["slopes"]
    for entry in (e5, e3, e4):
        for label in list(entry["speedups"]) + list(entry["slopes"]):
            assert not any(
                engine in label for engine in ("indexed", "congruence", "bucket")
            ), label
    a2 = report["benchmarks"]["bench_a2_incremental"]
    assert (
        a2["speedups"]["session mixed-workload speedup at largest configuration"]
        >= 3.0
    )


def test_quick_discovery_includes_a2(tmp_path):
    """--quick (no --ablations) runs the mixed-workload series too."""
    proc, out = _run_quick(tmp_path, only=("a2",))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert set(report["benchmarks"]) == {"bench_a2_incremental"}
    entry = report["benchmarks"]["bench_a2_incremental"]
    assert entry["status"] == "ok"
    assert "session mixed-workload speedup at largest configuration" in entry.get(
        "speedups", {}
    )


def test_pr4_baseline_records_retirement_series():
    """BENCH_PR4.json carries the old-row-deletion series, and the
    retirement speedup clears the PR 4 acceptance floor (>= 3x over
    rewind/rebuild at the largest configuration)."""
    report = json.loads((REPO_ROOT / "BENCH_PR4.json").read_text())
    a2 = report["benchmarks"]["bench_a2_incremental"]
    assert a2["status"] == "ok"
    key = "old-row retirement speedup at largest configuration"
    assert a2["speedups"][key] >= 3.0
    assert "retirement delete-stream log-log slope" in a2["slopes"]
    # the mixed-workload headline must not have been traded away for it
    assert (
        a2["speedups"]["session mixed-workload speedup at largest configuration"]
        >= 3.0
    )


def test_pr5_baseline_records_durability_series():
    """BENCH_PR5.json carries bench_a3_durability: the WAL-overhead slopes
    and the checkpoint-recovery speedup, which must clear the PR 5
    acceptance floor (recovery from a checkpoint beats full-log replay by
    >= 3x at the largest configuration)."""
    report = json.loads((REPO_ROOT / "BENCH_PR5.json").read_text())
    a3 = report["benchmarks"]["bench_a3_durability"]
    assert a3["status"] == "ok"
    key = "checkpoint recovery speedup at largest configuration"
    assert a3["speedups"][key] >= 3.0
    assert "full-log recovery log-log slope" in a3["slopes"]
    assert "checkpointed recovery log-log slope" in a3["slopes"]
    assert "wal-flush insert-stream log-log slope" in a3["slopes"]
    # the session headlines must not have been traded away for durability
    a2 = report["benchmarks"]["bench_a2_incremental"]
    assert (
        a2["speedups"]["session mixed-workload speedup at largest configuration"]
        >= 3.0
    )
    assert (
        a2["speedups"]["old-row retirement speedup at largest configuration"]
        >= 3.0
    )


def test_pr8_baseline_records_pruning_series():
    """BENCH_PR8.json carries the E5d cover-pruning series: the pruned
    plan must beat the spelled-out transitive-closure FD set by >= 1.2x
    at the largest configuration (the PR 8 acceptance floor)."""
    report = json.loads((REPO_ROOT / "BENCH_PR8.json").read_text())
    e5 = report["benchmarks"]["bench_e5_chase_scaling"]
    assert e5["status"] == "ok"
    key = "cover-pruning speedup at largest configuration"
    assert e5["speedups"][key] >= 1.2
    assert "unpruned plan chase wall s by width" in e5["series"]
    assert "pruned plan chase wall s by width" in e5["series"]


def test_quick_discovery_includes_a3(tmp_path):
    """--quick (no --ablations) runs the durability series too."""
    proc, out = _run_quick(tmp_path, only=("a3",))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert set(report["benchmarks"]) == {"bench_a3_durability"}
    entry = report["benchmarks"]["bench_a3_durability"]
    assert entry["status"] == "ok"
    assert "checkpoint recovery speedup at largest configuration" in entry.get(
        "speedups", {}
    )


# ---------------------------------------------------------------------------
# the bench-regression guard (benchmarks/compare.py)
# ---------------------------------------------------------------------------

COMPARE = REPO_ROOT / "benchmarks" / "compare.py"


def _run_compare(fresh_path, *extra):
    return subprocess.run(
        [sys.executable, str(COMPARE), "--fresh", str(fresh_path), *extra],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        timeout=60,
    )


#: the latest committed baseline — compare.py's default reference, and the
#: doctoring source for the negative-path tests below
LATEST_BASELINE = "BENCH_PR18.json"


def test_compare_accepts_the_baseline_against_itself():
    proc = _run_compare(REPO_ROOT / LATEST_BASELINE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ok: schema matches" in proc.stdout


def test_compare_rejects_a_regressed_speedup(tmp_path):
    report = json.loads((REPO_ROOT / LATEST_BASELINE).read_text())
    a2 = report["benchmarks"]["bench_a2_incremental"]
    key = "old-row retirement speedup at largest configuration"
    a2["speedups"][key] = 0.5  # below even the cross-mode floor
    doctored = tmp_path / "regressed.json"
    doctored.write_text(json.dumps(report))
    proc = _run_compare(doctored)
    assert proc.returncode == 1
    assert "regressed" in proc.stdout


def test_compare_rejects_a_broken_benchmark(tmp_path):
    report = json.loads((REPO_ROOT / LATEST_BASELINE).read_text())
    report["benchmarks"]["bench_e5_chase_scaling"]["status"] = "timeout"
    doctored = tmp_path / "broken.json"
    doctored.write_text(json.dumps(report))
    proc = _run_compare(doctored)
    assert proc.returncode == 1
    assert "status 'timeout'" in proc.stdout


def test_compare_rejects_schema_drift(tmp_path):
    report = json.loads((REPO_ROOT / LATEST_BASELINE).read_text())
    del report["platform"]
    doctored = tmp_path / "drifted.json"
    doctored.write_text(json.dumps(report))
    proc = _run_compare(doctored)
    assert proc.returncode == 1
    assert "top-level keys" in proc.stdout


def test_compare_rejects_a_vanished_benchmark(tmp_path):
    """A benchmark the baseline promised must still run in the fresh file."""
    report = json.loads((REPO_ROOT / LATEST_BASELINE).read_text())
    del report["benchmarks"]["bench_e5_chase_scaling"]
    doctored = tmp_path / "vanished.json"
    doctored.write_text(json.dumps(report))
    proc = _run_compare(doctored)
    assert proc.returncode == 1
    assert "missing from fresh run" in proc.stdout


def test_compare_tolerates_fresh_only_benchmarks_and_labels(tmp_path):
    """The guard is one-directional: new benchmarks / speedup labels /
    series landing in the current PR (present only in the fresh run) must
    pass — they become guarded once a baseline containing them exists."""
    report = json.loads((REPO_ROOT / LATEST_BASELINE).read_text())
    report["benchmarks"]["bench_e99_brand_new"] = {
        "status": "ok",
        "wall_s": 0.5,
        "speedups": {"new optimization speedup at largest configuration": 9.0},
        "series": {"new wall s by size": [0.1, 0.2]},
    }
    e5 = report["benchmarks"]["bench_e5_chase_scaling"]
    e5.setdefault("speedups", {})["brand-new speedup line"] = 2.0
    doctored = tmp_path / "extended.json"
    doctored.write_text(json.dumps(report))
    proc = _run_compare(doctored)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "fresh-only benchmark(s)" in proc.stdout
    assert "bench_e99_brand_new" in proc.stdout


def test_compare_retires_a_vanished_slope_it_names(tmp_path):
    """A slope label listed in RETIRED_LABELS may vanish: the guard
    prints an info line with the reason instead of failing."""
    report = json.loads((REPO_ROOT / "BENCH_PR16.json").read_text())
    e5 = report["benchmarks"]["bench_e5_chase_scaling"]
    del e5["slopes"]["indexed log-log slope in p"]
    doctored = tmp_path / "retired.json"
    doctored.write_text(json.dumps(report))
    proc = _run_compare(doctored, "--baseline", str(REPO_ROOT / "BENCH_PR16.json"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "retired: bench_e5_chase_scaling: 'indexed log-log slope in p'" in (
        proc.stdout
    )


def test_compare_rejects_an_unretired_vanished_slope(tmp_path):
    report = json.loads((REPO_ROOT / "BENCH_PR16.json").read_text())
    e5 = report["benchmarks"]["bench_e5_chase_scaling"]
    del e5["slopes"]["sweep log-log slope in p"]
    doctored = tmp_path / "vanished_slope.json"
    doctored.write_text(json.dumps(report))
    proc = _run_compare(doctored, "--baseline", str(REPO_ROOT / "BENCH_PR16.json"))
    assert proc.returncode == 1
    assert "slope line 'sweep log-log slope in p' vanished" in proc.stdout


def test_compare_rejects_a_malformed_series(tmp_path):
    report = json.loads((REPO_ROOT / LATEST_BASELINE).read_text())
    report["benchmarks"]["bench_e5_chase_scaling"]["series"] = {"bad": []}
    doctored = tmp_path / "badseries.json"
    doctored.write_text(json.dumps(report))
    proc = _run_compare(doctored)
    assert proc.returncode == 1
    assert "malformed series" in proc.stdout


def test_pr6_baseline_records_parallel_series():
    """BENCH_PR6.json carries the sharded-parallel-chase series: the
    worker-count speedups clear the PR 6 acceptance floor (>= 1.5x at 2+
    workers on the multi-component E5c workload), the per-size wall-time
    series are present for both bench_e5 and bench_a2, and the serial
    headlines were not traded away."""
    report = json.loads((REPO_ROOT / "BENCH_PR6.json").read_text())
    e5 = report["benchmarks"]["bench_e5_chase_scaling"]
    assert e5["status"] == "ok"
    for w in (2, 4):
        key = f"parallel chase speedup at {w} workers at largest configuration"
        assert e5["speedups"][key] >= 1.5
    assert any("parallel(2)" in label for label in e5["series"])
    assert any("unified" in label for label in e5["series"])
    a2 = report["benchmarks"]["bench_a2_incremental"]
    assert a2["status"] == "ok"
    assert (
        a2["speedups"]["parallel verify speedup at 2 workers at largest configuration"]
        >= 1.0
    )
    assert any("verify" in label for label in a2["series"])
    # serial headlines intact
    assert (
        a2["speedups"]["session mixed-workload speedup at largest configuration"]
        >= 3.0
    )
    assert (
        a2["speedups"]["old-row retirement speedup at largest configuration"]
        >= 3.0
    )
    a3 = report["benchmarks"]["bench_a3_durability"]
    assert (
        a3["speedups"]["checkpoint recovery speedup at largest configuration"]
        >= 3.0
    )


def test_pr7_baseline_records_serving_series():
    """BENCH_PR7.json carries bench_s1_server: the group-commit speedup
    at 8 concurrent clients clears the PR 7 acceptance floor (>= 3x over
    per-op-fsync serving), the throughput/latency-by-clients and
    writer-vs-readers series are captured, and the serial headlines (a2
    mixed + retirement, a3 checkpoint recovery, e5 parallel) were not
    traded away for the serving layer."""
    report = json.loads((REPO_ROOT / "BENCH_PR7.json").read_text())
    s1 = report["benchmarks"]["bench_s1_server"]
    assert s1["status"] == "ok"
    key = "group-commit speedup at 8 clients over per-op-fsync serving"
    assert s1["speedups"][key] >= 3.0
    assert "group-commit ops/sec by clients" in s1["series"]
    assert "per-op-fsync ops/sec by clients" in s1["series"]
    assert "group-commit p99 ms by clients" in s1["series"]
    assert "writer ops/sec by reader count" in s1["series"]
    assert "writer max ack gap ms by reader count" in s1["series"]
    # throughput must rise with client count under group commit
    gc = s1["series"]["group-commit ops/sec by clients"]
    assert gc[-1] > gc[0]
    # serial headlines intact
    a2 = report["benchmarks"]["bench_a2_incremental"]
    assert (
        a2["speedups"]["session mixed-workload speedup at largest configuration"]
        >= 3.0
    )
    assert (
        a2["speedups"]["old-row retirement speedup at largest configuration"]
        >= 3.0
    )
    a3 = report["benchmarks"]["bench_a3_durability"]
    assert (
        a3["speedups"]["checkpoint recovery speedup at largest configuration"]
        >= 3.0
    )
    e5 = report["benchmarks"]["bench_e5_chase_scaling"]
    assert any("parallel chase speedup" in k for k in e5["speedups"])


def test_pr9_baseline_records_query_series():
    """BENCH_PR9.json carries bench_q1_query: the least-vs-kleene
    evaluation series over the size ladder, the rows each mode proves
    certain, and the writer ack-gap series under query-verb readers
    (the query layer's no-stall guarantee, measured)."""
    report = json.loads((REPO_ROOT / "BENCH_PR9.json").read_text())
    q1 = report["benchmarks"]["bench_q1_query"]
    assert q1["status"] == "ok"
    series = q1["series"]
    assert "least select wall ms by size" in series
    assert "kleene select wall ms by size" in series
    assert "least join wall ms by size" in series
    # least-extension evaluation pays for exactness: never cheaper than
    # the truth-functional pass on the same instance ladder
    key = "kleene over least evaluation speedup at largest configuration"
    assert q1["speedups"][key] >= 1.0
    # more nulls -> more rows only least evaluation can prove certain
    promoted = series["rows promoted to certain by density"]
    assert promoted[0] == 0 and promoted[-1] > 0
    # the writer kept streaming while query readers hammered the verb
    gaps = series["writer max ack gap ms by query-reader count"]
    assert len(gaps) >= 2
    assert max(gaps) <= max(50.0, 10.0 * gaps[0])
    # serial + serving headlines intact
    a2 = report["benchmarks"]["bench_a2_incremental"]
    assert (
        a2["speedups"]["session mixed-workload speedup at largest configuration"]
        >= 3.0
    )
    a3 = report["benchmarks"]["bench_a3_durability"]
    assert (
        a3["speedups"]["checkpoint recovery speedup at largest configuration"]
        >= 3.0
    )
    s1 = report["benchmarks"]["bench_s1_server"]
    assert (
        "group-commit speedup at 8 clients over per-op-fsync serving"
        in s1["speedups"]
    )


def test_quick_discovery_includes_q1(tmp_path):
    """--quick (no --ablations) runs the query series too."""
    proc, out = _run_quick(tmp_path, only=("q1",))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert set(report["benchmarks"]) == {"bench_q1_query"}
    entry = report["benchmarks"]["bench_q1_query"]
    assert entry["status"] == "ok"
    assert "least select wall ms by size" in entry.get("series", {})
    assert "writer max ack gap ms by query-reader count" in entry["series"]


def test_quick_discovery_includes_s1(tmp_path):
    """--quick (no --ablations) runs the serving series too."""
    proc, out = _run_quick(tmp_path, only=("s1",))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    assert set(report["benchmarks"]) == {"bench_s1_server"}
    entry = report["benchmarks"]["bench_s1_server"]
    assert entry["status"] == "ok"
    assert (
        "group-commit speedup at 8 clients over per-op-fsync serving"
        in entry.get("speedups", {})
    )
