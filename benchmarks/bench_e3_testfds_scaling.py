"""E3 — Figure 3's complexity claim: TEST-FDs is O(|F| · n log n).

Paper artifact: "The algorithm runs in O(|F|·n·logn) time ... Each FD is
tested in time n·logn, the time to sort the relation", against the
footnote's unsorted O(|F|·n²) variant.

Reproduced series: wall time of sort-merge vs pairwise vs hash grouping
(the "Additional Assumptions" refinement: dictionary grouping on X-keys,
``O(|F|·n·p)``, as ``check_fds_batched`` — the production path behind
``check_fds(method="auto")``) over a geometric ladder of n, with log-log
slopes.  Expected shape: sort-merge and hash-grouping slopes ≈ 1 (n log n
reads just above linear), pairwise slope ≈ 2, and the gap widens with n —
who wins and by how much is the point, not absolute seconds.

E3b isolates what batching buys on a shared-LHS FD set: the same grouping
called once per FD (per-FD grouping) against one call over the whole set.
"""

import random

from repro.bench.report import (
    Table,
    bench_repeat,
    bench_sizes,
    geometric_sizes,
    loglog_slope,
    time_call,
)
from repro.core.fd import FDSet
from repro.testfd import (
    CONVENTION_WEAK,
    check_fds_batched,
    check_fds_pairwise,
    check_fds_sortmerge,
)
from repro.workloads.generator import (
    inject_nulls,
    random_satisfiable_instance,
    random_schema,
)

FDS = FDSet(["A1 -> A2", "A2 A3 -> A4", "A1 -> A5"])

#: canonical-cover shape: one determined attribute per FD, one shared key —
#: the workload where per-FD grouping repeats all of its X-key work
SHARED_LHS_FDS = FDSet(["A1 -> A2", "A1 -> A3", "A1 -> A4", "A1 -> A5"])


def check_fds_per_fd(r, fds, convention):
    """Per-FD grouping: one hash grouping per dependency, in input order."""
    for fd in fds:
        outcome = check_fds_batched(r, [fd], convention)
        if not outcome.satisfied:
            return outcome
    return outcome


def workload(n_rows: int, seed: int = 11):
    rng = random.Random(seed)
    schema = random_schema(5)
    total = random_satisfiable_instance(
        rng, schema, list(FDS), n_rows, pool_size=max(8, n_rows // 4)
    )
    return inject_nulls(rng, total, density=0.15)


def shared_lhs_workload(n_rows: int, seed: int = 17):
    """Satisfiable for SHARED_LHS_FDS: every variant scans every row, so
    the series measures grouping cost, not early-exit luck."""
    rng = random.Random(seed)
    schema = random_schema(5)
    total = random_satisfiable_instance(
        rng, schema, list(SHARED_LHS_FDS), n_rows, pool_size=max(8, n_rows // 4)
    )
    return inject_nulls(rng, total, density=0.15)


def main() -> None:
    sizes = bench_sizes(geometric_sizes(200, 2.0, 5))
    table = Table(
        "E3 — TEST-FDs scaling (weak convention, satisfiable workload)",
        [
            "n", "sortmerge (s)", "hash grouping (s)", "pairwise (s)",
            "pairwise/sortmerge", "pairwise/hash",
        ],
    )
    sort_times, hash_times, pair_times = [], [], []
    for n in sizes:
        r = workload(n)
        sort_time = time_call(
            lambda: check_fds_sortmerge(r, FDS, CONVENTION_WEAK),
            repeat=bench_repeat(3),
        )
        hash_time = time_call(
            lambda: check_fds_batched(r, FDS, CONVENTION_WEAK),
            repeat=bench_repeat(3),
        )
        pair_time = time_call(
            lambda: check_fds_pairwise(r, FDS, CONVENTION_WEAK), repeat=1
        )
        sort_times.append(sort_time)
        hash_times.append(hash_time)
        pair_times.append(pair_time)
        table.add_row(
            n, sort_time, hash_time, pair_time,
            f"{pair_time / sort_time:.1f}x",
            f"{pair_time / hash_time:.1f}x",
        )
    table.show()

    sort_slope = loglog_slope(sizes, sort_times)
    hash_slope = loglog_slope(sizes, hash_times)
    pair_slope = loglog_slope(sizes, pair_times)
    print(f"\nlog-log slope, sort-merge:    {sort_slope:.2f}  (paper: ~1, n log n)")
    print(f"log-log slope, hash grouping: {hash_slope:.2f}  (paper: ~1, n·p)")
    print(f"log-log slope, pairwise:      {pair_slope:.2f}  (paper: ~2, n²)")
    print(
        "shape holds" if pair_slope - sort_slope > 0.5 else "SHAPE DEVIATION"
    )

    # E3b — shared-LHS FD set: per-FD grouping re-keys every row once
    # per FD; batched TEST-FDs keys each row once per DISTINCT lhs
    table = Table(
        "E3b — shared-LHS FD set (one key, |F| determined attributes)",
        ["n", "per-FD (s)", "batched (s)", "per-FD/batched"],
    )
    per_fd_times, batched_times = [], []
    for n in sizes:
        r = shared_lhs_workload(n)
        per_fd_time = time_call(
            lambda: check_fds_per_fd(r, SHARED_LHS_FDS, CONVENTION_WEAK),
            repeat=bench_repeat(3),
        )
        batched_time = time_call(
            lambda: check_fds_batched(r, SHARED_LHS_FDS, CONVENTION_WEAK),
            repeat=bench_repeat(3),
        )
        per_fd_times.append(per_fd_time)
        batched_times.append(batched_time)
        table.add_row(
            n, per_fd_time, batched_time,
            f"{per_fd_time / batched_time:.2f}x",
        )
    table.show()
    print(
        f"\nlog-log slope, batched:    {loglog_slope(sizes, batched_times):.2f}"
        "  (expected ~1, n·p per distinct lhs)"
    )
    print(
        "batched speedup over per-FD grouping at largest n: "
        f"{per_fd_times[-1] / batched_times[-1]:.1f}x "
        f"(|F| = {len(list(SHARED_LHS_FDS))} FDs, 1 distinct lhs)"
    )


def bench_sortmerge_2000_rows(benchmark) -> None:
    r = workload(2000)
    outcome = benchmark(lambda: check_fds_sortmerge(r, FDS, CONVENTION_WEAK))
    assert outcome.satisfied


def bench_pairwise_2000_rows(benchmark) -> None:
    r = workload(2000)
    outcome = benchmark(lambda: check_fds_pairwise(r, FDS, CONVENTION_WEAK))
    assert outcome.satisfied


if __name__ == "__main__":
    main()
