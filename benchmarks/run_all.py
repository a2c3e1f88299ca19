"""Run every experiment benchmark and record a machine-readable trajectory.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/run_all.py --quick
    PYTHONPATH=src python benchmarks/run_all.py --only e5 e3 --out BENCH.json

Each ``bench_e*.py`` (and, with ``--ablations``, each ``bench_a*.py``) is
executed as a subprocess; ``--quick`` sets the ``REPRO_BENCH_QUICK``
environment switch that :mod:`repro.bench.report` helpers honor (halved
size ladders, single-repetition timing), so the whole suite doubles as a
fast perf smoke test.  Results land in a JSON file::

    {
      "quick": true,
      "python": "3.11.7",
      "benchmarks": {
        "bench_e5_chase_scaling": {
          "status": "ok",
          "wall_s": 1.93,
          "slopes": {"sweep log-log slope in p": 1.9, ...},
          "speedups": {"extended chase speedup over sweep at largest configuration": 9.0},
          "series": {"sharded chase wall s by size": [0.09, 0.19, 0.4]}
        },
        ...
      }
    }

Per-benchmark wall times plus every printed log-log slope, "...x"
speedup line, and ``series <label>: v1 v2 ...`` per-size series are
captured, giving later PRs a perf trajectory to compare against
(committed baselines: ``BENCH_PR1.json`` … ``BENCH_PR18.json`` — the
latest labels E5, E3 and E4 by the role measured once each algorithm has
one fast engine: the extended chase over the sweep, hash grouping, and
batched over per-FD grouping).
The JSON schema — top-level ``quick`` / ``python`` / ``platform`` /
``benchmarks``, per-benchmark ``status`` + ``wall_s`` with optional
``slopes`` / ``speedups`` / ``series`` — is guarded by
``tests/workloads/test_run_all.py``, and ``benchmarks/compare.py`` diffs
a fresh ``--quick`` run against the latest committed baseline (CI's
bench-regression guard).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent

#: printed lines like "sweep log-log slope in p:      1.90  (expected ~2)"
SLOPE_LINE = re.compile(r"^(?P<label>[^:]*slope[^:]*):\s*(?P<value>-?\d+(?:\.\d+)?)")
#: printed lines like "cover-pruning speedup at largest configuration: 1.5x ..."
SPEEDUP_LINE = re.compile(
    r"^(?P<label>[^:]*speedup[^:]*):\s*(?P<value>-?\d+(?:\.\d+)?)x"
)
#: printed lines like "series sharded chase wall s by size: 0.09 0.19 0.4"
SERIES_LINE = re.compile(
    r"^series\s+(?P<label>[^:]+):\s*"
    r"(?P<values>-?\d+(?:\.\d+)?(?:\s+-?\d+(?:\.\d+)?)*)\s*$"
)


def discover(only: list[str], ablations: bool) -> list[Path]:
    # bench_a2 graduated from optional ablation to default: its mixed
    # insert/delete/update series is the maintained-session perf baseline
    # (BENCH_PR3.json) and runs in --quick too.  bench_a3 (durability:
    # WAL overhead + recovery-vs-checkpoint-cadence) joined it in PR 5,
    # bench_s1 (serving: group commit + snapshot readers) in PR 7, and
    # bench_q1 (querying: certain/maybe evaluation + query readers) in
    # PR 9.
    patterns = [
        "bench_e*.py", "bench_a2*.py", "bench_a3*.py", "bench_s*.py",
        "bench_q*.py",
    ] + (
        ["bench_a*.py"] if ablations else []
    )
    scripts: list[Path] = []
    seen: set[Path] = set()
    for pattern in patterns:
        for script in sorted(BENCH_DIR.glob(pattern)):
            if script not in seen:
                seen.add(script)
                scripts.append(script)
    if only:
        wanted = [token.lower() for token in only]
        scripts = [
            s for s in scripts if any(token in s.stem.lower() for token in wanted)
        ]
    return scripts


def parse_metrics(stdout: str) -> tuple[dict, dict, dict]:
    slopes: dict = {}
    speedups: dict = {}
    series: dict = {}
    for line in stdout.splitlines():
        line = line.strip()
        matched = SERIES_LINE.match(line)
        if matched:
            series[" ".join(matched["label"].split())] = [
                float(token) for token in matched["values"].split()
            ]
            continue
        matched = SLOPE_LINE.match(line)
        if matched:
            slopes[" ".join(matched["label"].split())] = float(matched["value"])
            continue
        matched = SPEEDUP_LINE.match(line)
        if matched:
            speedups[" ".join(matched["label"].split())] = float(matched["value"])
    return slopes, speedups, series


def run_one(script: Path, quick: bool, timeout: float) -> dict:
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    if quick:
        env["REPRO_BENCH_QUICK"] = "1"
    else:
        env.pop("REPRO_BENCH_QUICK", None)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=timeout,
            cwd=str(REPO_ROOT),
        )
    except subprocess.TimeoutExpired:
        return {"status": "timeout", "wall_s": round(time.perf_counter() - start, 3)}
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return {
            "status": "error",
            "wall_s": round(wall, 3),
            "returncode": proc.returncode,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:],
        }
    slopes, speedups, series = parse_metrics(proc.stdout)
    entry: dict = {"status": "ok", "wall_s": round(wall, 3)}
    if slopes:
        entry["slopes"] = slopes
    if speedups:
        entry["speedups"] = speedups
    if series:
        entry["series"] = series
    return entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="set REPRO_BENCH_QUICK=1: halved ladders, single repetitions",
    )
    parser.add_argument(
        "--ablations", action="store_true", help="include bench_a*.py scripts"
    )
    parser.add_argument(
        "--only", nargs="*", default=[],
        help="substring filters on script names (e.g. --only e5 e3)",
    )
    parser.add_argument(
        "--timeout", type=float, default=600.0, help="per-benchmark timeout (s)"
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: BENCH_PR18.json at the repo root "
        "for full runs, BENCH_QUICK.json for --quick runs, so a smoke pass "
        "never overwrites the committed full baseline)",
    )
    args = parser.parse_args(argv)
    if args.out is None:
        args.out = str(
            REPO_ROOT / ("BENCH_QUICK.json" if args.quick else "BENCH_PR18.json")
        )

    scripts = discover(args.only, args.ablations)
    if not scripts:
        print("no benchmarks matched", file=sys.stderr)
        return 2

    report: dict = {
        "quick": args.quick,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benchmarks": {},
    }
    failures = 0
    for script in scripts:
        print(f"[run_all] {script.name} ...", flush=True)
        entry = run_one(script, args.quick, args.timeout)
        report["benchmarks"][script.stem] = entry
        status = entry["status"]
        if status != "ok":
            failures += 1
        print(f"[run_all]   {status} in {entry['wall_s']}s", flush=True)

    out = Path(args.out)
    out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"[run_all] wrote {out} ({len(scripts)} benchmarks, {failures} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
