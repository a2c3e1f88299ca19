"""The benchmark's fast self-test (a few seconds, no server).

Usage (from the repository root)::

    python3 perfbench/selftest.py

Checks that:

* the request streams are seeded: generating a workload twice from one
  seed yields the same stream digests, and another seed other digests;
* ``BENCHMARK.json`` names exactly the workloads, end-to-end metrics and
  per-layer metrics (with units) the benchmark emits;
* every layer wrapper's target exists where the program looks it up,
  and every span the coverage table asserts has a wrapper;
* self time is a span's duration minus what its children cover.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workload as W  # noqa: E402
from layers import COVERAGE, END_TO_END, PER_LAYER, WRAPS  # noqa: E402
from spans import self_times, union_length  # noqa: E402


def stream_digests(workload: str, seed: int) -> dict:
    """Digest the first requests of every stream of one workload."""
    data = W.make_dataset(workload, seed)
    model = W.RowModel(data.r_rows, 0)
    streams = {
        "ingest": lambda: [W.ingest_writes(data, 0, {}), W.ingest_writes(data, 1, {})],
        "churn": lambda: [W.churn_writes(data, model), W.churn_reads(data)],
        "analytic": lambda: [W.analytic_reads(data, 0), W.analytic_reads(data, 1),
                             W.probe_writes(data)],
    }[workload]()
    digests = []
    for stream in streams:
        digest = W.Digest()
        for _ in range(W.DIGEST_PREFIX):
            item = next(stream)
            digest.add(item[0] if isinstance(item, tuple) else item)
        digests.append(digest.hexdigest())
    return {"digests": digests, "preload": json.dumps(data.r_rows, default=repr)}


def check_seeding(problems: list) -> None:
    for workload in W.WORKLOADS:
        first, again, other = (stream_digests(workload, s) for s in (7, 7, 8))
        if first != again:
            problems.append(f"{workload}: one seed gave two different request streams")
        if first["digests"] == other["digests"] or first["preload"] == other["preload"]:
            problems.append(f"{workload}: two seeds gave the same inputs")


def check_schema(problems: list) -> None:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    if not {w["name"] for w in spec["workloads"]} <= set(W.WORKLOADS):
        problems.append("BENCHMARK.json names a workload workload.WORKLOADS lacks")
    for key, emitted in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[key]]
        if declared != list(emitted):
            problems.append(f"BENCHMARK.json {key} differs from layers.{key.upper()}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["bound"] != max(m["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")


def check_wraps(problems: list) -> None:
    import importlib

    for name, (module_name, path) in WRAPS.items():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                problems.append(f"{name}: {module_name}.{path} does not exist")
                break
    for workload, names in COVERAGE.items():
        for name in names:
            if name not in WRAPS and not name.startswith("server.writer."):
                problems.append(f"{workload}: coverage names {name}, which has no wrapper")


def check_self_time(problems: list) -> None:
    spans = [
        (1, "parent", 0.0, 10.0, None, None, 0),
        (2, "child", 1.0, 4.0, 1, None, 0),
        (3, "child", 3.0, 6.0, 1, None, 0),  # overlaps the first child
        (4, "grandchild", 2.0, 3.0, 2, None, 0),
    ]
    selfs = self_times(spans)
    expected = {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
    if any(abs(selfs[k] - v) > 1e-9 for k, v in expected.items()):
        problems.append(f"self times {selfs} != {expected}")
    if union_length([(0, 2), (1, 3), (5, 6)]) != 4:
        problems.append("union_length miscounts overlapping intervals")


def main() -> int:
    problems: list = []
    check_seeding(problems)
    check_schema(problems)
    check_wraps(problems)
    check_self_time(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} failure(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
