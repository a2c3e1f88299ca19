"""S1 (serving) — what group commit buys and what snapshot readers cost.

Two series over the serving layer (`repro.server`):

* **S1a — sustained ops/sec and p99 ack latency vs concurrent clients**,
  three ways to run the same deterministic insert stream at full
  durability (``sync=fsync``):

  - *direct serial*: a plain single-caller `Database` loop — every op
    pays its own fsync, the serialize-everything baseline;
  - *served, per-op fsync*: the server with ``max_batch=1`` — same
    fsync-per-op cost, plus the queueing machinery (its honest price);
  - *served, group commit*: the real configuration — concurrent
    clients' ops latched into one WAL append + fsync per burst.

  The headline (the regression-guard metric) is group commit's
  throughput multiple at 8 clients over the per-op-fsync server.  The
  final fixpoint of every mode must be field-identical to the direct
  baseline's — batching may change *when* records hit disk, never what
  state they build.

* **S1b — snapshot readers never stall the writer**: a writer streams
  inserts while k isolated readers hammer ``result`` reads (each a
  consistent cut, re-chased off the loop).  Writer throughput and the
  writer's largest ack-to-ack gap are reported by reader count; the gap
  must stay bounded (no read ever holds the writer), and every read
  must equal a serial prefix (row count == its ``as_of``).

Every S1a point takes the best of :data:`REPEAT` runs in every mode: a
single quick-mode sample was noisy enough to fall below ``compare.py``'s
1.0x quick floor on the direct-baseline speedup.
"""

import asyncio
import shutil
import tempfile
import time
from pathlib import Path

from repro.bench.report import Table, quick_mode
from repro.chase import canonical_form
from repro.core.values import null
from repro.db import Database
from repro.server import ReproServer

ATTRS = "A B C"
FDS = ["A -> B", "B -> C"]
CLIENT_LADDER = (1, 2, 4, 8)
POOL = 7  # distinct A-keys: FDs fire real merges without contradictions


def build_row(i: int):
    """Deterministic, satisfiable, chase-provoking: B/C are functions of
    A's key so FDs merge rather than contradict; every third row carries
    a fresh null for the chase to fill."""
    key = i % POOL
    return (
        f"a{key}",
        None if i % 3 == 0 else f"b{key}",
        f"c{key}",
    )


def wire_row(i: int):
    row = build_row(i)
    return [cell if cell is not None else {"n": None} for cell in row]


def total_ops() -> int:
    return 96 if quick_mode() else 400


# ---------------------------------------------------------------------------
# S1a — throughput and latency by client count
# ---------------------------------------------------------------------------


def run_direct(n_ops: int):
    """The serial baseline: one caller, one fsync per op."""
    root = Path(tempfile.mkdtemp(prefix="bench_s1_direct_"))
    try:
        latencies = []
        with Database.open(root / "db", sync="fsync") as db:
            relation = db.create("r", ATTRS, FDS)
            start = time.perf_counter()
            for i in range(n_ops):
                row = tuple(
                    null() if cell is None else cell for cell in build_row(i)
                )
                op_start = time.perf_counter()
                relation.insert(row)
                latencies.append(time.perf_counter() - op_start)
            elapsed = time.perf_counter() - start
            reference = canonical_form(relation.result().relation)
        return elapsed, latencies, reference, {}
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_served(n_ops: int, n_clients: int, max_batch: int):
    """The same op stream, partitioned round-robin over ``n_clients``
    concurrent in-process clients, each awaiting its ack before its next
    op (so bursts form exactly as far as real concurrency creates them)."""
    root = Path(tempfile.mkdtemp(prefix="bench_s1_served_"))
    try:

        async def run():
            server = ReproServer(
                root / "db", sync="fsync", create=True, max_batch=max_batch
            )
            await server.start()
            await server.handle(
                {"do": "create", "name": "r", "attrs": ATTRS, "fds": FDS}
            )
            latencies = []

            async def client(c: int) -> None:
                for i in range(c, n_ops, n_clients):
                    op_start = time.perf_counter()
                    reply = await server.handle(
                        {"id": i, "do": "insert", "rel": "r", "row": wire_row(i)}
                    )
                    latencies.append(time.perf_counter() - op_start)
                    assert reply["ok"], reply

            start = time.perf_counter()
            await asyncio.gather(*(client(c) for c in range(n_clients)))
            elapsed = time.perf_counter() - start
            stats = (await server.handle({"do": "stats", "rel": "r"}))["stats"]
            await server.stop()
            return elapsed, latencies, stats

        elapsed, latencies, stats = asyncio.run(run())
        with Database.open(root / "db", sync="none", create=False) as db:
            reference = canonical_form(db["r"].result().relation)
        return elapsed, latencies, reference, stats
    finally:
        shutil.rmtree(root, ignore_errors=True)


#: best-of repetitions per S1a point, quick mode included
REPEAT = 3


def best_of(fn, repeat: int = REPEAT):
    best = None
    for _ in range(repeat):
        outcome = fn()
        if best is None or outcome[0] < best[0]:
            best = outcome
    return best


def p99_ms(latencies) -> float:
    ranked = sorted(latencies)
    return ranked[min(len(ranked) - 1, int(len(ranked) * 0.99))] * 1000.0


def throughput_series() -> None:
    n_ops = total_ops()
    direct_time, direct_lat, direct_ref, _ = best_of(lambda: run_direct(n_ops))
    direct_rate = n_ops / direct_time

    table = Table(
        f"S1a — sustained ops/sec and p99 ack latency, {n_ops} fsync'd inserts",
        ["clients", "direct (ops/s)", "per-op fsync (ops/s)",
         "group commit (ops/s)", "GC p99 (ms)", "per-op p99 (ms)",
         "largest batch", "same fixpoint"],
    )
    perop_rates, gc_rates, gc_p99s, perop_p99s = [], [], [], []
    gc_stats_at_8 = None
    for n_clients in CLIENT_LADDER:
        perop_time, perop_lat, perop_ref, _ = best_of(
            lambda: run_served(n_ops, n_clients, max_batch=1)
        )
        gc_time, gc_lat, gc_ref, gc_stats = best_of(
            lambda: run_served(n_ops, n_clients, max_batch=512)
        )
        same = direct_ref == perop_ref == gc_ref
        if not same:
            raise SystemExit(
                f"served fixpoint diverged from the direct baseline at "
                f"{n_clients} clients"
            )
        perop_rates.append(n_ops / perop_time)
        gc_rates.append(n_ops / gc_time)
        gc_p99s.append(p99_ms(gc_lat))
        perop_p99s.append(p99_ms(perop_lat))
        if n_clients == 8:
            gc_stats_at_8 = gc_stats
        table.add_row(
            n_clients, f"{direct_rate:.0f}", f"{n_ops / perop_time:.0f}",
            f"{n_ops / gc_time:.0f}", f"{p99_ms(gc_lat):.2f}",
            f"{p99_ms(perop_lat):.2f}", gc_stats["largest_batch"], same,
        )
    table.show()

    if gc_stats_at_8["largest_batch"] < 2:
        raise SystemExit(
            f"no batching formed at 8 clients: stats {gc_stats_at_8}"
        )
    print(f"\nseries per-op-fsync ops/sec by clients: "
          + " ".join(f"{rate:.0f}" for rate in perop_rates))
    print(f"series group-commit ops/sec by clients: "
          + " ".join(f"{rate:.0f}" for rate in gc_rates))
    print(f"series group-commit p99 ms by clients: "
          + " ".join(f"{ms:.2f}" for ms in gc_p99s))
    print(f"series per-op-fsync p99 ms by clients: "
          + " ".join(f"{ms:.2f}" for ms in perop_p99s))
    print(
        f"group-commit speedup at 8 clients over per-op-fsync serving: "
        f"{gc_rates[-1] / perop_rates[-1]:.1f}x  (one append+fsync per "
        f"burst, largest batch {gc_stats_at_8['largest_batch']})"
    )
    print(
        f"group-commit speedup at 8 clients over the direct serial baseline: "
        f"{gc_rates[-1] / direct_rate:.1f}x"
    )


# ---------------------------------------------------------------------------
# S1b — snapshot readers vs the writer
# ---------------------------------------------------------------------------


def run_write_storm(n_ops: int, n_readers: int):
    """Writer streams inserts; isolated readers hammer consistent-cut
    ``result`` reads.  Returns (writer elapsed, max ack-to-ack gap,
    reads) where each read is ``(as_of, row count)``."""
    root = Path(tempfile.mkdtemp(prefix="bench_s1_readers_"))
    try:

        async def run():
            server = ReproServer(root / "db", sync="fsync", create=True)
            await server.start()
            await server.handle(
                {"do": "create", "name": "r", "attrs": "A B", "fds": []}
            )
            reads = []
            done = False

            async def writer() -> tuple:
                nonlocal done
                max_gap = 0.0
                start = time.perf_counter()
                last_ack = start
                for i in range(n_ops):
                    reply = await server.handle(
                        {"id": i, "do": "insert", "rel": "r",
                         "row": [f"a{i}", f"b{i}"]}
                    )
                    assert reply["ok"], reply
                    now = time.perf_counter()
                    max_gap = max(max_gap, now - last_ack)
                    last_ack = now
                done = True
                return time.perf_counter() - start, max_gap

            async def reader(c: int) -> None:
                # a polling reader: each poll is a full consistent-cut
                # re-chase off the loop.  The 1ms pacing models watchers,
                # not a saturating read storm — the stall question is
                # whether any single read *holds* the writer, which the
                # ack-gap metric answers.
                while not done:
                    reply = await server.handle(
                        {"id": f"r{c}", "do": "result", "rel": "r",
                         "isolated": True}
                    )
                    assert reply["ok"], reply
                    reads.append((reply["as_of"], len(reply["rows"])))
                    await asyncio.sleep(0.001)

            writer_task = asyncio.create_task(writer())
            reader_tasks = [
                asyncio.create_task(reader(c)) for c in range(n_readers)
            ]
            elapsed, max_gap = await writer_task
            await asyncio.gather(*reader_tasks)
            await server.stop()
            return elapsed, max_gap, reads

        return asyncio.run(run())
    finally:
        shutil.rmtree(root, ignore_errors=True)


def reader_series() -> None:
    n_ops = max(60, total_ops() // 2)
    reader_counts = (0, 2, 4)
    table = Table(
        f"S1b — writer vs isolated snapshot readers, {n_ops} fsync'd inserts",
        ["readers", "writer ops/s", "max ack gap (ms)", "reads served",
         "all prefix-consistent"],
    )
    rates, gaps = [], []
    for n_readers in reader_counts:
        elapsed, max_gap, reads = run_write_storm(n_ops, n_readers)
        consistent = all(n_rows == as_of for as_of, n_rows in reads)
        if not consistent:
            raise SystemExit(
                f"a snapshot read was not a serial prefix: {reads[:5]} ..."
            )
        rates.append(n_ops / elapsed)
        gaps.append(max_gap * 1000.0)
        table.add_row(
            n_readers, f"{n_ops / elapsed:.0f}", f"{max_gap * 1000.0:.2f}",
            len(reads), consistent,
        )
    table.show()

    # the stall guard: a reader-induced writer stall would show up as an
    # ack gap far beyond the no-reader run's (fsync-bound) worst gap
    stall_budget_ms = max(50.0, 10.0 * gaps[0])
    if max(gaps) > stall_budget_ms:
        raise SystemExit(
            f"writer stalled under readers: max ack gap {max(gaps):.1f}ms "
            f"exceeds the {stall_budget_ms:.1f}ms budget (no-reader worst "
            f"gap {gaps[0]:.2f}ms)"
        )
    print(f"\nseries writer ops/sec by reader count: "
          + " ".join(f"{rate:.0f}" for rate in rates))
    print(f"series writer max ack gap ms by reader count: "
          + " ".join(f"{gap:.2f}" for gap in gaps))
    print(
        f"writer max ack gap under {reader_counts[-1]} readers: "
        f"{gaps[-1]:.2f} ms (budget {stall_budget_ms:.1f} ms) — zero stalls"
    )


def main() -> None:
    throughput_series()
    reader_series()
    print(
        "\nEvery served fixpoint matched the direct serial baseline and every"
        "\nsnapshot read equaled a serial prefix; only the fsync schedule"
        "\ndiffers."
    )


def bench_served_group_commit_96(benchmark) -> None:
    benchmark(lambda: run_served(96, 8, max_batch=512))


if __name__ == "__main__":
    main()
