"""E4 — Figure 3's "Additional Assumptions": bucket sort and the presorted
linear case.

Paper artifact: "If bucket sort is used, sorting takes time O(n·p) where p
is the number of attributes in X ... if there is only one dependency (e.g.
BCNF with one key), and the relation is already sorted, the test requires
linear time on the relation size."

Reproduced series: (a) hash grouping on X-keys (bucket sort's realization
on equality keys, ``check_fds_batched``) vs comparison-sort TEST-FDs over
n; (c) the payoff of batching a shared-LHS set over per-FD grouping; (b)
the presorted single-FD test vs re-sorting, over n.  Expected shape: hash
grouping ≤ sort-merge with the gap growing slowly (log n), presorted
beating sortmerge by the sort factor.
"""

import random

from repro.bench.report import (
    Table,
    bench_sizes,
    geometric_sizes,
    loglog_slope,
    time_call,
)
from repro.core.fd import FD, FDSet
from repro.core.relation import Relation
from repro.core.values import constant_key, is_null
from repro.testfd import (
    CONVENTION_WEAK,
    check_fds_batched,
    check_fds_sortmerge,
    check_single_fd_presorted,
)
from repro.workloads.generator import (
    inject_nulls,
    random_satisfiable_instance,
    random_schema,
)

FDS = FDSet(["A1 A2 -> A3", "A2 -> A4"])
SINGLE = "A1 -> A2 A3"


def workload(n_rows: int, seed: int = 23):
    rng = random.Random(seed)
    schema = random_schema(4)
    total = random_satisfiable_instance(
        rng, schema, list(FDS), n_rows, pool_size=max(8, n_rows // 4)
    )
    return inject_nulls(rng, total, density=0.1)


def shared_lhs_set(width: int):
    """``A1 -> A2, ..., A1 -> A(width)``: one key, width-1 determined
    attributes — the BCNF-with-one-key shape the paper's linear special
    case singles out, listed as a canonical cover."""
    return [FD("A1", f"A{i}") for i in range(2, width + 1)]


def shared_lhs_workload(width: int, n_rows: int, seed: int = 31):
    rng = random.Random(seed)
    schema = random_schema(width)
    total = random_satisfiable_instance(
        rng, schema, shared_lhs_set(width), n_rows,
        pool_size=max(8, n_rows // 4),
    )
    return inject_nulls(rng, total, density=0.1)


def check_fds_per_fd(r, fds, convention):
    """Per-FD grouping: one hash grouping per dependency, in input order."""
    for fd in fds:
        outcome = check_fds_batched(r, [fd], convention)
        if not outcome.satisfied:
            return outcome
    return outcome


def sorted_single_fd_workload(n_rows: int, seed: int = 29):
    rng = random.Random(seed)
    schema = random_schema(3)
    from repro.core.fd import FD

    total = random_satisfiable_instance(
        rng, schema, [FD.parse(SINGLE)], n_rows, pool_size=max(8, n_rows // 4)
    )
    punched = inject_nulls(rng, total, density=0.1, attributes=["A2", "A3"])
    ordinals: dict = {}

    def key(row):
        v = row["A1"]
        if is_null(v):
            return (1, ordinals.setdefault(id(v), len(ordinals)))
        return (0,) + constant_key(v)

    return Relation(punched.schema, sorted(punched.rows, key=key))


def main() -> None:
    sizes = geometric_sizes(250, 2.0, 4)

    table = Table(
        "E4a — hash grouping vs comparison sort (weak convention)",
        ["n", "sortmerge (s)", "hash grouping (s)", "sortmerge/hash"],
    )
    hash_times = []
    for n in sizes:
        r = workload(n)
        sm = time_call(lambda: check_fds_sortmerge(r, FDS, CONVENTION_WEAK))
        hg = time_call(lambda: check_fds_batched(r, FDS, CONVENTION_WEAK))
        hash_times.append(hg)
        table.add_row(n, sm, hg, f"{sm / hg:.2f}x")
    table.show()
    print(
        f"\nhash grouping log-log slope: {loglog_slope(sizes, hash_times):.2f}"
        " (paper: ~1, n·p)"
    )

    # E4c — the batching payoff grows with the number of FDs sharing a
    # left-hand side: per-FD grouping re-keys every row once per FD, the
    # batched variant once per distinct LHS (here: once, total)
    fixed_n = 2000
    table = Table(
        f"E4c — shared-LHS batching vs per-FD grouping (n = {fixed_n})",
        ["|F| (one lhs)", "per-FD (s)", "batched (s)", "per-FD/batched"],
    )
    last_ratio = 0.0
    for count in bench_sizes((2, 4, 8, 16)):
        fds = shared_lhs_set(count + 1)
        r = shared_lhs_workload(count + 1, fixed_n)
        pf = time_call(lambda: check_fds_per_fd(r, fds, CONVENTION_WEAK))
        bt = time_call(lambda: check_fds_batched(r, fds, CONVENTION_WEAK))
        last_ratio = pf / bt
        table.add_row(count, pf, bt, f"{last_ratio:.2f}x")
    table.show()
    print(
        f"\nbatched speedup at widest shared-LHS set: {last_ratio:.1f}x"
        " (one grouping decides the whole set)"
    )

    table = Table(
        "E4b — single FD, presorted input: linear scan vs full sort-merge",
        ["n", "sortmerge (s)", "presorted (s)", "sortmerge/presorted"],
    )
    presorted_times = []
    for n in sizes:
        r = sorted_single_fd_workload(n)
        sm = time_call(lambda: check_fds_sortmerge(r, [SINGLE], CONVENTION_WEAK))
        ps = time_call(lambda: check_single_fd_presorted(r, SINGLE))
        presorted_times.append(ps)
        table.add_row(n, sm, ps, f"{sm / ps:.2f}x")
    table.show()
    print(
        f"\npresorted log-log slope: {loglog_slope(sizes, presorted_times):.2f}"
        " (paper: linear)"
    )


def bench_hash_grouping_2000_rows(benchmark) -> None:
    r = workload(2000)
    outcome = benchmark(lambda: check_fds_batched(r, FDS, CONVENTION_WEAK))
    assert outcome.satisfied


def bench_presorted_2000_rows(benchmark) -> None:
    r = sorted_single_fd_workload(2000)
    outcome = benchmark(lambda: check_single_fd_presorted(r, SINGLE))
    assert outcome.satisfied


if __name__ == "__main__":
    main()
