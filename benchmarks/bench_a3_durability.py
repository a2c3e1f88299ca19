"""A3 (durability) — the price of the write-ahead log and the payoff of
checkpoints.

Three series over the durable layer (`repro.db`):

* **logged vs unlogged op throughput** — the same insert stream through a
  bare `ChaseSession` and through a `Database` relation at each sync
  level (``none`` / ``flush`` / ``fsync``).  The WAL must cost a bounded
  constant factor, not a complexity class: both slopes are ~1.
* **recovery time vs log length** — an update-heavy op log (old-row
  updates that force level rebuilds) replayed from scratch by
  `Database.open`.  Replay re-pays the original maintenance cost, so the
  curve is superlinear in ops — the motivation for checkpoints.
* **checkpoint cadence** — the same workload with a checkpoint every k
  ops: recovery replays only the tail.  The headline speedup line
  (checkpointed vs full-log recovery at the largest configuration) is the
  captured regression-guard metric; growth with log length is the point.

Every recovered state is verified against the uninterrupted session's
fixpoint (`canonical_form` equality plus the recovered session's own
result-vs-from-scratch-chase invariant); a divergence aborts the run.
"""

import shutil
import tempfile
import time
from pathlib import Path

from repro.bench.report import (
    Table,
    bench_repeat,
    bench_sizes,
    geometric_sizes,
    loglog_slope,
)
from repro.chase import ChaseSession, canonical_form
from repro.core.fd import FDSet
from repro.core.values import null
from repro.db import Database
from repro.workloads.generator import (
    inject_nulls,
    random_satisfiable_instance,
    random_schema,
)

import random

FDS = FDSet(["A1 -> A2", "A2 -> A3", "A1 -> A4"])
ATTRS = ("A1", "A2", "A3", "A4")


def insert_stream(n_rows: int, seed: int = 83):
    rng = random.Random(seed)
    schema = random_schema(4)
    base = random_satisfiable_instance(
        rng, schema, list(FDS), n_rows, pool_size=max(8, n_rows // 6)
    )
    return schema, inject_nulls(rng, base, density=0.25)


def run_unlogged(schema, stream) -> ChaseSession:
    session = ChaseSession(schema, FDS)
    for row in stream.rows:
        session.insert(row)
    return session


def run_logged(schema, stream, sync: str) -> ChaseSession:
    root = Path(tempfile.mkdtemp(prefix="bench_a3_"))
    try:
        with Database.open(root / "db", sync=sync) as database:
            relation = database.create("r", schema, FDS)
            for row in stream.rows:
                relation.insert(row)
            return relation.session
    finally:
        shutil.rmtree(root, ignore_errors=True)


def time_best(fn, repeat: int):
    best = None
    result = None
    for _ in range(bench_repeat(repeat)):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def throughput_series(sizes) -> None:
    table = Table(
        "A3a — logged vs unlogged insert throughput",
        ["inserts", "unlogged (s)", "wal none (s)", "wal flush (s)",
         "wal fsync (s)", "flush overhead", "same fixpoint"],
    )
    unlogged_times, flush_times = [], []
    # one untimed run first: the first ChaseSession pays one-time lazy
    # imports (~40 ms), which would otherwise land on the smallest timed
    # point and bend the quick ladder's two-point slope negative
    run_unlogged(*insert_stream(sizes[0]))
    for n in sizes:
        schema, stream = insert_stream(n)
        bare_time, bare = time_best(lambda: run_unlogged(schema, stream), 3)
        none_time, _ = time_best(lambda: run_logged(schema, stream, "none"), 3)
        flush_time, logged = time_best(
            lambda: run_logged(schema, stream, "flush"), 3
        )
        fsync_time, _ = time_best(lambda: run_logged(schema, stream, "fsync"), 1)
        same = canonical_form(bare.result().relation) == canonical_form(
            logged.result().relation
        )
        if not same:
            raise SystemExit(f"logged/unlogged fixpoints diverged at n={n}")
        unlogged_times.append(bare_time)
        flush_times.append(flush_time)
        table.add_row(
            n, bare_time, none_time, flush_time, fsync_time,
            f"{flush_time / bare_time:.2f}x", same,
        )
    table.show()
    print(
        f"\nunlogged insert-stream log-log slope:    "
        f"{loglog_slope(sizes, unlogged_times):.2f}  (expected ~1)"
    )
    print(
        f"wal-flush insert-stream log-log slope:   "
        f"{loglog_slope(sizes, flush_times):.2f}  (expected ~1: a constant "
        "factor, not a complexity class)"
    )


# ---------------------------------------------------------------------------
# recovery: log length and checkpoint cadence
# ---------------------------------------------------------------------------


def build_update_heavy(root: Path, n_rows: int, checkpoint_every: int = 0):
    """``n_rows`` settled inserts, then ``n_rows // 2`` old-row updates that
    each introduce a fresh null (null-bearing replacements of old rows are
    neither retirable nor rewind-payable: every one level-rebuilds, so
    replaying this log re-pays quadratic maintenance)."""
    rng = random.Random(97)
    database = Database.open(root, sync="none")
    relation = database.create("r", "A1 A2 A3 A4", FDS)
    since = 0

    def maybe_checkpoint():
        nonlocal since
        since += 1
        if checkpoint_every and since >= checkpoint_every:
            database.checkpoint()
            since = 0

    for i in range(n_rows):
        relation.insert((f"k{i}", f"m{i}", f"n{i}", f"p{i}"))
        maybe_checkpoint()
    for _ in range(n_rows // 2):
        victim = rng.randrange(max(1, n_rows // 2))
        relation.update(victim, {"A2": null()})
        maybe_checkpoint()
    reference = canonical_form(relation.result().relation)
    database.close()
    return reference


def time_recovery(root: Path, reference) -> float:
    best = None
    for _ in range(bench_repeat(3)):
        start = time.perf_counter()
        database = Database.open(root, sync="none")
        elapsed = time.perf_counter() - start
        relation = database["r"]
        if canonical_form(relation.result().relation) != reference:
            raise SystemExit(f"recovered fixpoint diverged under {root}")
        if not relation.verify():
            raise SystemExit(f"recovered session invariant failed under {root}")
        database.close()
        best = elapsed if best is None else min(best, elapsed)
    return best


def recovery_series(sizes) -> None:
    table = Table(
        "A3b — recovery time vs log length vs checkpoint cadence",
        ["rows", "ops", "full-log replay (s)", "ckpt n/4 (s)",
         "ckpt every op (s)", "speedup (full vs every-op)"],
    )
    full_times, checkpointed_times = [], []
    scratch = Path(tempfile.mkdtemp(prefix="bench_a3_rec_"))
    try:
        for n in sizes:
            ops = n + n // 2
            cases = {}
            for label, cadence in (
                ("full", 0), ("quarter", max(1, ops // 4)), ("every", 1)
            ):
                root = scratch / f"{label}{n}"
                reference = build_update_heavy(root, n, checkpoint_every=cadence)
                cases[label] = time_recovery(root, reference)
            full_times.append(cases["full"])
            checkpointed_times.append(cases["every"])
            table.add_row(
                n, ops, cases["full"], cases["quarter"], cases["every"],
                f"{cases['full'] / cases['every']:.1f}x",
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    table.show()
    print(
        f"\nfull-log recovery log-log slope:        "
        f"{loglog_slope(sizes, full_times):.2f}  (expected ~2: replay "
        "re-pays the maintenance)"
    )
    print(
        f"checkpointed recovery log-log slope:    "
        f"{loglog_slope(sizes, checkpointed_times):.2f}  (expected ~1)"
    )
    print(
        f"checkpoint recovery speedup at largest configuration: "
        f"{full_times[-1] / checkpointed_times[-1]:.1f}x"
    )


def main() -> None:
    throughput_series(bench_sizes(geometric_sizes(50, 2.0, 5)))
    recovery_series(bench_sizes(geometric_sizes(24, 2.0, 5)))
    print(
        "\nEvery recovered state matched the uninterrupted fixpoint; only"
        "\nthe recovery cost differs."
    )


def bench_logged_stream_200(benchmark) -> None:
    schema, stream = insert_stream(200)
    benchmark(lambda: run_logged(schema, stream, "flush"))


if __name__ == "__main__":
    main()
