"""Bench-regression guard: diff a fresh run against the committed baseline.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_all.py --quick --out BENCH_QUICK.json
    python benchmarks/compare.py --fresh BENCH_QUICK.json

The baseline is the **latest** committed ``BENCH_PR<N>.json`` at the repo
root (highest ``N``), overridable with ``--baseline``.  Two checks, both
hard failures (nonzero exit) so CI's bench job goes red:

* **schema equality** — both files must carry the BENCH contract
  (top-level ``quick``/``python``/``platform``/``benchmarks``; per-entry
  ``status`` + ``wall_s`` with optional ``slopes``/``speedups``/``series``
  maps), and every benchmark that was ``ok`` in the baseline must still
  run and be ``ok``;
* **ratio tolerance on the headline series** — for every speedup label
  present in both files, the fresh value must be at least
  ``baseline / --speedup-tolerance``; for every slope label in both, the
  fresh value must sit within ``--slope-tolerance`` of the baseline.

Tolerances default loose (3x on speedups, ±1.25 on slopes) because the
fresh run usually happens on a cold shared runner while the baseline
came from a quiet box: the guard is meant to catch "the fast path
stopped firing" and "the scaling curve changed shape", not 10% timing
noise.  Absolute wall times are never compared — they are
machine-relative; the speedup ratios are not (both sides of each ratio
ran on the same machine).

One asymmetry is handled explicitly: a ``--quick`` fresh run halves
every size ladder, so its "at largest configuration" speedups are taken
at a much smaller size than a full baseline's and a fixed ratio would
flag every size-dependent optimization.  When the two files' ``quick``
flags differ, the speedup check therefore degrades to a floor
(``--min-speedup``, default 1.0): the optimization must still *win* at
the quick ladder's top, and the benchmark's own internal assertions
(``session.stats()`` fast-path counts, fixpoint equality) plus the
status check cover the rest.

The guard is deliberately **one-directional**: benchmarks, speedup
labels, or slope labels that exist only in the *fresh* run are new work
being introduced by the current PR and are fine — they become guarded
once a baseline that contains them is committed.  Only what the
baseline promised is held.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

BASELINE_PATTERN = re.compile(r"^BENCH_PR(\d+)\.json$")

#: the BENCH_PR*.json contract (mirrors tests/workloads/test_run_all.py)
TOP_LEVEL_KEYS = {"quick", "python", "platform", "benchmarks"}
ENTRY_STATUSES = ("ok", "error", "timeout")

#: metric labels (speedups and slopes alike) a later PR *deliberately*
#: stopped printing, with the reason — a vanished label normally means
#: "the fast path stopped firing", so retirement must be explicit and
#: explained here.  Keyed by (benchmark stem, label); matching vanishes
#: are reported as info, not regressions.
RETIRED_LABELS = {
    (
        "bench_e5_chase_scaling",
        "sharded chase speedup over unified at largest configuration",
    ): (
        "sharded_chase and its shard planner are deleted: on E5c's shape its "
        "one win was skipping the 48 FD-free columns, and chase() now does "
        "that itself with one vector state over the FD-mentioned columns "
        "(full run, 2-vCPU machine, 4,000 rows: sharded 1.26 s vs unified "
        "1.89 s, 1.5x, before the deletion; BENCH_PR18 recorded 2.4x); the old "
        "'unified' side is now the bypassing chase() itself; superseded by "
        "'column-bypass chase speedup over all-columns chase at largest "
        "configuration' (2.0-2.2x in three full runs; 1.24 s vs 2.43 s in "
        "the first)"
    ),
    (
        "bench_a2_incremental",
        "sharded verify speedup over unsharded at largest configuration",
    ): (
        "verify() chases under the FD set's minimal cover through chase(), "
        "which bypasses the FD-free columns; the sharded reference is "
        "deleted (full run, 2-vCPU machine, 2,000 rows: sharded 0.43 s vs "
        "unsharded 0.62 s, 1.5x, before the deletion; BENCH_PR18 recorded 1.9x); "
        "superseded by 'column-bypass verify speedup over all-columns verify "
        "at largest configuration' (1.8x and 3.0x in two full runs: 0.34 s "
        "vs 0.60 s, 0.19 s vs 0.57 s)"
    ),
    (
        "bench_q1_query",
        "least over kleene evaluation speedup at largest configuration",
    ): (
        "the query rewriter is deleted: its least-mode tautology "
        "elimination dropped Q1a's domain-exhausting select statically "
        "(least 1.49 ms vs kleene 11.56 ms at 800 rows, full run, 2-vCPU "
        "machine); every query is now evaluated as written, so exact "
        "evaluation runs the Kleene pass plus grounding (least 11.58 ms vs "
        "kleene 10.85 ms) and trails it again; superseded by 'kleene over "
        "least evaluation speedup at largest configuration', the label this "
        "ratio was printed under before the rewriter existed"
    ),
    (
        "bench_e5_chase_scaling",
        "parallel chase speedup at 2 workers at largest configuration",
    ): (
        "the chase process pool is deleted: on a 2-vCPU machine a 2-process "
        "pool lost to in-process shards at every size from 1,000 to 16,000 "
        "rows (E5c shape: 1.21-1.35 s vs 0.91-0.98 s at 4,000 rows), and "
        "parallel(1/2/4) walls were 0.44/0.44/0.47 s, so the speedup was "
        "planning, bypass and the vector engine; superseded by 'sharded "
        "chase speedup over unified at largest configuration'"
    ),
    (
        "bench_e5_chase_scaling",
        "parallel chase speedup at 4 workers at largest configuration",
    ): (
        "the chase process pool is deleted (see the 2-worker label): "
        "parallel(4) at 0.47 s never beat in-process parallel(1) at 0.44 s; "
        "superseded by 'sharded chase speedup over unified at largest "
        "configuration'"
    ),
    (
        "bench_a2_incremental",
        "parallel verify speedup at 2 workers at largest configuration",
    ): (
        "verify has one path now, the in-process sharded chase on the "
        "session's cached plan (1.6-2.5x faster than the unsharded verify "
        "at 1,000-4,000 rows on the A2d shape); no worker count is left "
        "to vary; superseded by 'sharded verify speedup over unsharded at "
        "largest configuration'"
    ),
    (
        "bench_e5_chase_scaling",
        "indexed speedup at largest configuration",
    ): (
        "the indexed engine is deleted: chase() runs the vector engine in "
        "extended mode, which was faster on E5a p=32 n=400 (87 vs 144 ms), "
        "E5b n=1600 (91 vs 141 ms) and E5d p=16 (49 vs 200 ms) on a 2-vCPU "
        "machine; BENCH_PR16 recorded 4.5x; superseded by 'extended chase "
        "speedup over sweep at largest configuration'"
    ),
    (
        "bench_e5_chase_scaling",
        "congruence speedup at largest configuration",
    ): (
        "the congruence engine is deleted: it ran the indexed engine's "
        "core with another firing hook (BENCH_PR16: 5.4x vs indexed 4.5x; "
        "E5b n=1600: 122 ms vs vector 91 ms); superseded by 'extended "
        "chase speedup over sweep at largest configuration'"
    ),
    (
        "bench_e5_chase_scaling",
        "indexed log-log slope in p",
    ): (
        "the indexed engine is deleted (BENCH_PR16 slope 1.22); superseded "
        "by 'extended chase log-log slope in p'"
    ),
    (
        "bench_e5_chase_scaling",
        "indexed log-log slope in n",
    ): (
        "the indexed engine is deleted (BENCH_PR16 slope 1.18); superseded "
        "by 'extended chase log-log slope in n'"
    ),
    (
        "bench_e5_chase_scaling",
        "congruence log-log slope in p",
    ): (
        "the congruence engine is deleted (BENCH_PR16 slope 1.47); "
        "superseded by 'extended chase log-log slope in p'"
    ),
    (
        "bench_e5_chase_scaling",
        "congruence log-log slope in n",
    ): (
        "the congruence engine is deleted (BENCH_PR16 slope 1.24); "
        "superseded by 'extended chase log-log slope in n'"
    ),
    (
        "bench_e3_testfds_scaling",
        "log-log slope, bucket",
    ): (
        "check_fds_bucket is deleted: check_fds_batched is the same hash "
        "grouping (E3b, 3,200 rows: bucket 25.0 ms, batched once per FD "
        "22.7 ms) and beat sort-merge at all 16 points measured "
        "(1.3-4.0x); BENCH_PR16 slope 1.01; superseded by 'log-log slope, "
        "hash grouping'"
    ),
    (
        "bench_e3_testfds_scaling",
        "batched speedup over per-FD bucket at largest n",
    ): (
        "check_fds_bucket is deleted; per-FD grouping is now "
        "check_fds_batched called once per FD, the same grouping (E3b, "
        "3,200 rows: 25.0 vs 22.7 ms); BENCH_PR16 recorded 3.2x; "
        "superseded by 'batched speedup over per-FD grouping at largest n'"
    ),
    (
        "bench_e4_testfds_variants",
        "bucket log-log slope",
    ): (
        "check_fds_bucket is deleted (BENCH_PR16 slope 1.14); E4a times "
        "the same hash grouping through check_fds_batched; superseded by "
        "'hash grouping log-log slope'"
    ),
}


def latest_baseline(root: Path) -> Path:
    """The committed ``BENCH_PR<N>.json`` with the highest N."""
    candidates = []
    for path in root.glob("BENCH_PR*.json"):
        matched = BASELINE_PATTERN.match(path.name)
        if matched:
            candidates.append((int(matched.group(1)), path))
    if not candidates:
        raise SystemExit(f"no BENCH_PR*.json baseline found under {root}")
    return max(candidates)[1]


def check_schema(report: dict, label: str, problems: list) -> None:
    """The BENCH contract, field by field; violations are recorded."""
    if set(report) != TOP_LEVEL_KEYS:
        problems.append(
            f"{label}: top-level keys {sorted(report)} != {sorted(TOP_LEVEL_KEYS)}"
        )
        return
    if not isinstance(report["quick"], bool):
        problems.append(f"{label}: 'quick' is not a bool")
    for field in ("python", "platform"):
        if not isinstance(report[field], str):
            problems.append(f"{label}: {field!r} is not a string")
    benchmarks = report["benchmarks"]
    if not isinstance(benchmarks, dict) or not benchmarks:
        problems.append(f"{label}: 'benchmarks' empty or not a mapping")
        return
    for name, entry in benchmarks.items():
        if not name.startswith("bench_"):
            problems.append(f"{label}: unexpected benchmark name {name!r}")
        if entry.get("status") not in ENTRY_STATUSES:
            problems.append(
                f"{label}: {name}: status {entry.get('status')!r} not in "
                f"{ENTRY_STATUSES}"
            )
        if not isinstance(entry.get("wall_s"), (int, float)):
            problems.append(f"{label}: {name}: missing numeric wall_s")
        for metrics_key in ("slopes", "speedups"):
            if metrics_key in entry:
                metrics = entry[metrics_key]
                if not metrics:
                    problems.append(f"{label}: {name}: empty {metrics_key}")
                    continue
                for metric_label, value in metrics.items():
                    if not isinstance(metric_label, str) or not isinstance(
                        value, (int, float)
                    ):
                        problems.append(
                            f"{label}: {name}: malformed {metrics_key} entry "
                            f"{metric_label!r}: {value!r}"
                        )
        if "series" in entry:
            if not entry["series"]:
                problems.append(f"{label}: {name}: empty series")
            for series_label, values in entry["series"].items():
                if (
                    not isinstance(series_label, str)
                    or not isinstance(values, list)
                    or not values
                    or not all(isinstance(v, (int, float)) for v in values)
                ):
                    problems.append(
                        f"{label}: {name}: malformed series entry "
                        f"{series_label!r}: {values!r}"
                    )


def _vanished(name: str, kind: str, label: str, problems: list) -> None:
    """A baseline speedup/slope label the fresh run no longer prints: info
    when :data:`RETIRED_LABELS` retires it, a regression otherwise."""
    reason = RETIRED_LABELS.get((name, label))
    if reason is not None:
        print(f"[compare] retired: {name}: {label!r} ({reason})")
    else:
        problems.append(f"{name}: {kind} line {label!r} vanished")


def compare(
    fresh: dict,
    baseline: dict,
    speedup_tolerance: float,
    slope_tolerance: float,
    min_speedup: float,
) -> list:
    """Regressions of the fresh run relative to the baseline.

    The iteration is over the *baseline's* benchmarks and labels only:
    entries present only in the fresh run (new benchmarks, new speedup or
    slope lines landing in the current PR) are tolerated by construction —
    they start being guarded once a baseline containing them is committed.
    """
    problems: list = []
    same_mode = fresh["quick"] == baseline["quick"]
    fresh_benchmarks = fresh["benchmarks"]
    for name, base_entry in baseline["benchmarks"].items():
        if base_entry["status"] != "ok":
            continue  # the baseline itself was broken there; nothing to hold
        fresh_entry = fresh_benchmarks.get(name)
        if fresh_entry is None:
            problems.append(f"{name}: present in baseline, missing from fresh run")
            continue
        if fresh_entry["status"] != "ok":
            problems.append(
                f"{name}: status {fresh_entry['status']!r} (baseline was ok)"
            )
            continue
        for metric_label, base_value in base_entry.get("speedups", {}).items():
            fresh_value = fresh_entry.get("speedups", {}).get(metric_label)
            floor = (
                base_value / speedup_tolerance if same_mode else min_speedup
            )
            if fresh_value is None:
                _vanished(name, "speedup", metric_label, problems)
            elif fresh_value < floor:
                problems.append(
                    f"{name}: {metric_label!r} regressed: {fresh_value}x vs "
                    f"baseline {base_value}x (floor {floor:.2f}x)"
                )
        for metric_label, base_value in base_entry.get("slopes", {}).items():
            fresh_value = fresh_entry.get("slopes", {}).get(metric_label)
            if fresh_value is None:
                _vanished(name, "slope", metric_label, problems)
            elif abs(fresh_value - base_value) > slope_tolerance:
                problems.append(
                    f"{name}: {metric_label!r} drifted: {fresh_value} vs "
                    f"baseline {base_value} (tolerance ±{slope_tolerance})"
                )
    return problems


def main(argv: list | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fresh",
        default=str(REPO_ROOT / "BENCH_QUICK.json"),
        help="fresh trajectory to judge (default: BENCH_QUICK.json)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON (default: the latest committed BENCH_PR*.json)",
    )
    parser.add_argument(
        "--speedup-tolerance",
        type=float,
        default=3.0,
        help="fresh speedup may be at most this factor below baseline",
    )
    parser.add_argument(
        "--slope-tolerance",
        type=float,
        default=1.25,
        help="fresh log-log slopes may drift at most this far from baseline",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.0,
        help="speedup floor used instead of the ratio tolerance when the "
        "fresh and baseline runs disagree on --quick (different ladders)",
    )
    args = parser.parse_args(argv)

    baseline_path = (
        Path(args.baseline) if args.baseline else latest_baseline(REPO_ROOT)
    )
    fresh_path = Path(args.fresh)
    print(f"[compare] baseline: {baseline_path.name}")
    print(f"[compare] fresh:    {fresh_path}")
    try:
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        print(f"[compare] cannot load reports: {error}", file=sys.stderr)
        return 2

    problems: list = []
    check_schema(baseline, baseline_path.name, problems)
    check_schema(fresh, "fresh", problems)
    if not problems:
        problems = compare(
            fresh,
            baseline,
            args.speedup_tolerance,
            args.slope_tolerance,
            args.min_speedup,
        )
        extras = sorted(set(fresh["benchmarks"]) - set(baseline["benchmarks"]))
        if extras:
            print(
                "[compare] note: fresh-only benchmark(s), not yet guarded: "
                + ", ".join(extras)
            )
    if problems:
        print(f"[compare] REGRESSION ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"[compare]   - {problem}")
        return 1
    print("[compare] ok: schema matches, headline series within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
