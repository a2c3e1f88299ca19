"""A2 (ablation) — maintained fixpoints vs re-chasing, on insert streams
and mixed update workloads.

A guarded relation (the §7 modification programme, `repro.updates`) must
re-establish the minimally incomplete instance after every accepted
change.  Two strategies:

* **re-chase** — run the batch chase from scratch after each operation
  (the seed's `GuardedRelation` behavior; simple, stateless);
* **session** — maintain the chase state (`repro.chase.ChaseSession`):
  inserts sign only the new tuple's application terms; deletes and
  updates rewind the backtrackable trail to the victim row's mark and
  replay the surviving suffix (falling back to a level rebuild for old
  rows).

Two series:

* **insert stream** (the original A2): n insertions; re-chase pays Θ(n)
  chases of growing instances (≈ quadratic total), the session stays
  near-linear.
* **mixed workload** (PR 3): a heavy-traffic shape — half inserts, half
  deletes/updates — with churn concentrated on recent rows (the common
  OLTP skew: fresh data gets corrected, old data settles).  Re-chase pays
  a full chase per op regardless of which row changed; the session pays
  for the suffix behind the touched row only.
* **old-row deletions** (PR 4): the shape the trail is worst at — a long
  settled prefix (ground rows, unique keys: no NS-rule ever fired on
  them) under a merge-heavy recent tail, then a stream of deletes at the
  *oldest* end.  The rewind/replay discipline must either unwind the
  whole trail or level-rebuild per delete (O(instance) each); since an
  old victim's rewind never pays, its side is timed as one level
  rebuild per delete, `session.reset(session.rows[1:])`.  In-place
  retirement (what `session.delete(0)` takes) excises each victim from
  the occurrence index and bucket member lists in O(its own cells).
  `session.stats()` is asserted, not inferred: every delete must be
  served by the `retire_fast` counter with zero rebuilds.
* **verification**: `session.verify()` re-chases the raw rows with
  `chase()`, which bypasses the columns no FD mentions; the series races
  it against the same field comparison over one all-columns vector state,
  on a two-chain workload with a wide FD-free payload.

Both strategies must agree on every final fixpoint (`canonical_form`
compared per size; a divergence aborts the benchmark with a non-zero
exit, which `run_all.py` records as an error).
"""

import random
import time

from repro.bench.report import (
    Table,
    bench_repeat,
    bench_sizes,
    geometric_sizes,
    loglog_slope,
    time_call,
)
from repro.armstrong.cover import minimal_cover
from repro.chase import ChaseSession, VectorChaseState, canonical_form, chase
from repro.core.fd import FDSet
from repro.core.relation import Relation
from repro.core.values import null
from repro.workloads.generator import (
    inject_nulls,
    random_satisfiable_instance,
    random_schema,
)

FDS = FDSet(["A1 -> A2", "A2 -> A3", "A1 -> A4"])
ATTRS = ("A1", "A2", "A3", "A4")


def insert_stream(n_rows: int, seed: int = 61):
    rng = random.Random(seed)
    schema = random_schema(4)
    base = random_satisfiable_instance(
        rng, schema, list(FDS), n_rows, pool_size=max(8, n_rows // 6)
    )
    return schema, inject_nulls(rng, base, density=0.25)


def run_rechase(schema, stream) -> Relation:
    rows = []
    result = None
    for row in stream.rows:
        rows.append(row)
        result = chase(Relation(schema, rows), FDS)
    return result.relation


def run_incremental(schema, stream) -> Relation:
    session = ChaseSession(schema, FDS)
    for row in stream.rows:
        session.insert(row)
    return session.result().relation


# ---------------------------------------------------------------------------
# mixed workload: insert / delete / update with recency-skewed churn
# ---------------------------------------------------------------------------


def mixed_ops(n_ops: int, seed: int = 67):
    """A scripted op sequence: ~1/2 inserts, ~1/4 updates, ~1/4 deletes.

    Update/delete targets are drawn from the most recent eighth of the
    live rows.  The script is materialized up front (op kind, payload,
    *relative* index from the end) so both strategies replay the exact
    same workload.
    """
    rng = random.Random(seed)
    schema, stream = insert_stream(max(8, n_ops), seed=seed)
    fresh_rows = iter(stream.rows)
    ops = []
    live = 0
    for _ in range(n_ops):
        kind = rng.choice(("insert", "insert", "update", "delete"))
        if live < 4 or kind == "insert":
            ops.append(("insert", next(fresh_rows), 0))
            live += 1
            continue
        back = rng.randrange(1, max(2, live // 8))
        if kind == "delete":
            ops.append(("delete", None, back))
            live -= 1
        else:
            attr = rng.choice(ATTRS)
            value = (
                null()
                if rng.random() < 0.2
                else f"u{rng.randrange(max(4, n_ops // 8))}"
            )
            ops.append(("update", (attr, value), back))
    return schema, ops


def run_mixed_rechase(schema, ops) -> Relation:
    rows = []
    result = chase(Relation(schema, ()), FDS)
    for kind, payload, back in ops:
        if kind == "insert":
            rows.append(payload)
        elif kind == "delete":
            rows.pop(len(rows) - back)
        else:
            attr, value = payload
            index = len(rows) - back
            mapping = rows[index].as_dict()
            mapping[attr] = value
            rows[index] = rows[index].from_mapping(schema, mapping)
        result = chase(Relation(schema, rows), FDS)
    return result.relation


def run_mixed_session(schema, ops) -> Relation:
    session = ChaseSession(schema, FDS)
    for kind, payload, back in ops:
        if kind == "insert":
            session.insert(payload)
        elif kind == "delete":
            session.delete(len(session) - back)
        else:
            attr, value = payload
            session.update(len(session) - back, {attr: value})
    return session.result().relation


# ---------------------------------------------------------------------------
# verification: session.verify() vs an all-columns reference chase
# ---------------------------------------------------------------------------

#: two independent FD chains over A1..A8, leaving the trailing payload
#: columns to chase()'s bypass
PAR_FDS = FDSet(
    ["A3 -> A4", "A2 -> A3", "A1 -> A2", "A7 -> A8", "A6 -> A7", "A5 -> A6"]
)
PAR_PAYLOAD = 24


def verification_session(n_rows: int) -> ChaseSession:
    """A session holding full/holey row pairs over two FD chains plus
    ``PAR_PAYLOAD`` constant columns no FD mentions."""
    schema = random_schema(8 + PAR_PAYLOAD)
    session = ChaseSession(schema, PAR_FDS)
    for j in range(n_rows // 2):
        full, holey = [], []
        for c in range(2):
            full += [f"k{c}_{j}"] + [f"v{c}_{j}_{i}" for i in range(3)]
            holey += [f"k{c}_{j}"] + [null() for _ in range(3)]
        full += [f"p{j}_{i}" for i in range(PAR_PAYLOAD)]
        holey += [f"q{j}_{i}" for i in range(PAR_PAYLOAD)]
        session.insert(full)
        session.insert(holey)
    return session


def all_columns_verify(session: ChaseSession) -> bool:
    """``session.verify()``'s field comparison against one all-columns
    vector state over the raw rows, under the same minimal cover."""
    mine = session.result()
    state = VectorChaseState(session.raw_relation(), minimal_cover(session.fds))
    state.run_vectorized()
    reference = state.result("round_robin")
    return (
        [row.values for row in mine.relation.rows]
        == [row.values for row in reference.relation.rows]
        and mine.nec_classes == reference.nec_classes
        and {id(k): v for k, v in mine.substitutions.items()}
        == {id(k): v for k, v in reference.substitutions.items()}
        and mine.has_nothing == reference.has_nothing
    )


def run_verification_series(sizes):
    table = Table(
        "A2d — verification: session.verify() (column bypass) vs an "
        "all-columns reference chase",
        ["rows", "all-columns (s)", "bypass (s)", "speedup"],
    )
    all_columns_times, bypass_times = [], []
    for n in sizes:
        session = verification_session(n)
        if not (all_columns_verify(session) and session.verify()):
            raise SystemExit(f"verification failed at n={n}")
        repeat = bench_repeat(2)
        all_columns_times.append(
            time_call(lambda: all_columns_verify(session), repeat=repeat)
        )
        bypass_times.append(time_call(session.verify, repeat=repeat))
        table.add_row(
            n,
            all_columns_times[-1],
            bypass_times[-1],
            f"{all_columns_times[-1] / bypass_times[-1]:.1f}x",
        )
    table.show()
    print()
    print(
        "series all-columns verify wall s by size: "
        + " ".join(f"{t:.4f}" for t in all_columns_times)
    )
    print(
        "series column-bypass verify wall s by size: "
        + " ".join(f"{t:.4f}" for t in bypass_times)
    )
    print(
        "column-bypass verify speedup over all-columns verify at largest "
        f"configuration: {all_columns_times[-1] / bypass_times[-1]:.1f}x"
    )


# ---------------------------------------------------------------------------
# old-row deletions: in-place retirement vs trail rewind / level rebuild
# ---------------------------------------------------------------------------


def retirement_workload(n_rows: int, seed: int = 71):
    """``n_rows`` settled ground rows + a merge-heavy recent tail.

    The settled prefix has unique values in every column, so no NS-rule
    ever fires on those rows — they are exactly the retirable shape.  The
    tail re-uses keys and carries nulls, so the trail above the prefix is
    deep and full of merges (the worst case for suffix replay).
    """
    rng = random.Random(seed)
    schema = random_schema(4)
    rows = [
        (f"k{i}", f"m{i}", f"n{i}", f"p{i}") for i in range(n_rows)
    ]
    tail = max(8, n_rows // 8)
    for i in range(tail):
        key = f"hot{rng.randrange(max(2, tail // 4))}"
        rows.append(
            (
                key,
                null() if rng.random() < 0.5 else f"tm{i}",
                null() if rng.random() < 0.5 else f"tn{i}",
                f"tp{rng.randrange(4)}",
            )
        )
    return schema, rows


def _build_session(schema, rows) -> ChaseSession:
    session = ChaseSession(schema, FDS)
    for row in rows:
        session.insert(row)
    return session


def _rebuild_delete(session: ChaseSession) -> None:
    """Delete row 0 by a level rebuild over the survivors."""
    session.reset(session.rows[1:])


def time_old_row_deletes(schema, rows, deletes: int, delete_oldest):
    """Best-of-repeats wall time of ``deletes`` calls of
    ``delete_oldest(session)`` alone (build excluded), plus the last
    run's session for result/stats checks."""
    best = None
    session = None
    for _ in range(bench_repeat(3)):
        session = _build_session(schema, rows)
        start = time.perf_counter()
        for _ in range(deletes):
            delete_oldest(session)
        elapsed = time.perf_counter() - start
        best = elapsed if best is None else min(best, elapsed)
    return best, session


def run_retirement_series(sizes):
    table = Table(
        "A2c — deleting old rows: in-place retirement vs rewind/rebuild",
        [
            "rows",
            "deletes",
            "rewind/rebuild (s)",
            "retirement (s)",
            "ratio",
            "same fixpoint",
        ],
    )
    slow_times, fast_times = [], []
    for n in sizes:
        schema, rows = retirement_workload(n)
        deletes = n // 2
        slow_time, slow_session = time_old_row_deletes(
            schema, rows, deletes, _rebuild_delete
        )
        fast_time, fast_session = time_old_row_deletes(
            schema, rows, deletes, lambda session: session.delete(0)
        )
        stats = fast_session.stats()
        if stats["retire_fast"] != deletes or stats["level_rebuild"]:
            raise SystemExit(
                f"retirement fast path did not serve every old-row delete "
                f"at n={n}: {stats}"
            )
        same = canonical_form(slow_session.result().relation) == canonical_form(
            fast_session.result().relation
        ) and canonical_form(fast_session.result().relation) == canonical_form(
            chase(fast_session.raw_relation(), FDS).relation
        )
        if not same:
            raise SystemExit(f"old-row-deletion fixpoints diverged at n={n}")
        slow_times.append(slow_time)
        fast_times.append(fast_time)
        table.add_row(
            n, deletes, slow_time, fast_time,
            f"{slow_time / fast_time:.1f}x", same,
        )
    table.show()
    print(
        f"\nrewind/rebuild delete-stream log-log slope: "
        f"{loglog_slope(sizes, slow_times):.2f}  (expected ~2)"
    )
    print(
        f"retirement delete-stream log-log slope:     "
        f"{loglog_slope(sizes, fast_times):.2f}  (expected ~1)"
    )
    print(
        f"old-row retirement speedup at largest configuration: "
        f"{slow_times[-1] / fast_times[-1]:.1f}x"
    )


def main() -> None:
    sizes = bench_sizes(geometric_sizes(50, 2.0, 5))
    table = Table(
        "A2 — maintaining the fixpoint over an insert stream",
        ["inserts", "re-chase total (s)", "incremental total (s)", "ratio", "same fixpoint"],
    )
    re_times, inc_times = [], []
    for n in sizes:
        schema, stream = insert_stream(n)
        re_result = run_rechase(schema, stream)
        inc_result = run_incremental(schema, stream)
        same = canonical_form(re_result) == canonical_form(inc_result)
        if not same:
            raise SystemExit(f"insert-stream fixpoints diverged at n={n}")
        re_time = time_call(lambda: run_rechase(schema, stream), repeat=1)
        inc_time = time_call(lambda: run_incremental(schema, stream), repeat=1)
        re_times.append(re_time)
        inc_times.append(inc_time)
        table.add_row(n, re_time, inc_time, f"{re_time / inc_time:.1f}x", same)
    table.show()
    print(f"\nre-chase log-log slope:    {loglog_slope(sizes, re_times):.2f}  (expected ~2)")
    print(f"incremental log-log slope: {loglog_slope(sizes, inc_times):.2f}  (expected ~1)")

    mixed = Table(
        "A2b — mixed insert/delete/update workload (recency-skewed churn)",
        ["ops", "re-chase total (s)", "session total (s)", "ratio", "same fixpoint"],
    )
    mixed_re, mixed_inc = [], []
    for n in sizes:
        schema, ops = mixed_ops(n)
        re_result = run_mixed_rechase(schema, ops)
        session_result = run_mixed_session(schema, ops)
        same = canonical_form(re_result) == canonical_form(session_result)
        if not same:
            raise SystemExit(f"mixed-workload fixpoints diverged at n={n}")
        re_time = time_call(lambda: run_mixed_rechase(schema, ops), repeat=1)
        inc_time = time_call(lambda: run_mixed_session(schema, ops), repeat=1)
        mixed_re.append(re_time)
        mixed_inc.append(inc_time)
        mixed.add_row(n, re_time, inc_time, f"{re_time / inc_time:.1f}x", same)
    mixed.show()
    print(f"\nmixed re-chase log-log slope: {loglog_slope(sizes, mixed_re):.2f}  (expected ~2)")
    print(f"mixed session log-log slope:  {loglog_slope(sizes, mixed_inc):.2f}  (expected ~1)")
    print(
        f"session mixed-workload speedup at largest configuration: "
        f"{mixed_re[-1] / mixed_inc[-1]:.1f}x"
    )

    run_retirement_series(sizes)
    run_verification_series(bench_sizes(geometric_sizes(500, 2.0, 3)))
    print(
        "\nBoth strategies agree on every fixpoint; only the maintenance"
        "\ncost differs."
    )


def bench_rechase_stream_200(benchmark) -> None:
    schema, stream = insert_stream(200)
    benchmark(lambda: run_rechase(schema, stream))


def bench_incremental_stream_200(benchmark) -> None:
    schema, stream = insert_stream(200)
    benchmark(lambda: run_incremental(schema, stream))


def bench_mixed_session_200(benchmark) -> None:
    schema, ops = mixed_ops(200)
    benchmark(lambda: run_mixed_session(schema, ops))


def bench_retirement_deletes_200(benchmark) -> None:
    schema, rows = retirement_workload(200)

    def run() -> None:
        session = _build_session(schema, rows)
        for _ in range(100):
            session.delete(0)

    benchmark(run)


if __name__ == "__main__":
    main()
