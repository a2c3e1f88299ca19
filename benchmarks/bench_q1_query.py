"""Q1 (querying) — what certain/maybe evaluation costs, and what query
readers cost the writer.

Two series over the query layer (`repro.query`):

* **Q1a — evaluation wall time over a size × null-density ladder**, the
  two modes side by side on the same instances:

  - *kleene*: truth-functional condition evaluation — linear in the
    conditional table, under-informative (domain-exhausting disjunctions
    stay "maybe");
  - *least*: the paper's least-extension semantics — each surviving
    condition is grounded over its nulls' consistent domains, so the
    certain set is exact.

  The workload is a disjunctive select that exhausts the declared
  domain (every null-bearing row is *certainly* in the answer — but
  only least evaluation can tell) plus a natural join with shared
  attributes.  In-bench asserts pin the mode ladder on every rung:
  kleene-certain ⊆ least-certain and least-possible ⊆ kleene-possible,
  with the promoted rows exactly the null-density share.

* **Q1c — the bucket equi-join vs the naive nested loop**: the same
  instances joined twice, once through the default evaluator (the
  shared-attribute join routed through signature buckets, nulls
  bucketed by identity) and once with hash joins disabled (pure nested
  loop).  Field-identity asserts compare both
  answers null-by-identity on every rung; at the largest configuration
  the bucket join must clear 2x.

* **Q1b — query readers never stall the writer**: a writer streams
  fsync'd inserts while k clients hammer the server's ``query`` verb
  (full scans, least mode — each a leased consistent cut, evaluated off
  the loop when the writer is busy).  Writer throughput and largest
  ack-to-ack gap by reader count; the gap must stay within the same
  stall budget bench_s1's snapshot readers are held to, and every
  answer must equal a serial prefix (certain-row count == its
  ``as_of`` cut).
"""

import asyncio
import shutil
import tempfile
import time
from pathlib import Path

from repro import Domain, Relation, RelationSchema, null
from repro.bench.report import Table, bench_repeat, bench_sizes, quick_mode
from repro.query import MODE_KLEENE, MODE_LEAST, Evaluator, parse_query
from repro.server import ReproServer

B_DOMAIN = ["b0", "b1", "b2"]
EXHAUSTIVE = "r where B = 'b0' or B = 'b1' or B = 'b2'"
JOIN = "r join s"


def build_env(n_rows: int, density: float):
    """r(A B C) with ``density`` of B-cells null over a 3-value domain,
    plus s(C D) joining on C; nulls in C are shared across both."""
    r_schema = RelationSchema(
        "r", "A B C", domains={"B": Domain(B_DOMAIN, name="B")}
    )
    s_schema = RelationSchema("s", "C D")
    shared = [null() for _ in range(max(1, n_rows // 10))]
    r_rows = []
    for i in range(n_rows):
        is_null_cell = (i * 7919) % 1000 < density * 1000
        r_rows.append(
            [
                f"a{i}",
                null() if is_null_cell else B_DOMAIN[i % 3],
                shared[i % len(shared)] if i % 5 == 0 else f"c{i % 7}",
            ]
        )
    # unique D values keep merged join conditions small: deduplication
    # only unions conditions of value-identical rows
    s_rows = [
        [shared[j % len(shared)] if j % 3 == 0 else f"c{j % 7}", f"d{j}"]
        for j in range(max(4, n_rows // 4))
    ]
    return {
        "r": Relation(r_schema, r_rows),
        "s": Relation(s_schema, s_rows),
    }


def eval_once(env, query, mode):
    evaluator = Evaluator(env)
    node = parse_query(query)
    start = time.perf_counter()
    result = evaluator.run(node, mode=mode)
    return time.perf_counter() - start, result


def row_keys(answer):
    return {
        tuple(
            ("n", id(v)) if hasattr(v, "label") else ("c", v) for v in row
        )
        for row in answer.rows
    }


def evaluation_ladder() -> None:
    sizes = bench_sizes((100, 200, 400, 800))
    densities = (0.0, 0.25, 0.5)
    repeat = bench_repeat(3)

    table = Table(
        "Q1a — certain/maybe evaluation, disjunctive select + natural join",
        ["rows", "null density", "least (ms)", "kleene (ms)",
         "least certain", "kleene certain", "join least (ms)", "ladder holds"],
    )
    least_by_size, kleene_by_size = [], []
    join_by_size = []
    promoted_by_density = []
    for density in densities:
        promoted_at_largest = 0
        for n_rows in sizes:
            env = build_env(n_rows, density)
            best = {}
            for mode in (MODE_LEAST, MODE_KLEENE):
                timing, result = min(
                    (eval_once(env, EXHAUSTIVE, mode) for _ in range(repeat)),
                    key=lambda pair: pair[0],
                )
                best[mode] = (timing, result)
            least_t, least_r = best[MODE_LEAST]
            kleene_t, kleene_r = best[MODE_KLEENE]
            join_t, _ = eval_once(env, JOIN, MODE_LEAST)

            k_certain = row_keys(kleene_r.certain)
            l_certain = row_keys(least_r.certain)
            k_possible = k_certain | row_keys(kleene_r.maybe)
            l_possible = l_certain | row_keys(least_r.maybe)
            ladder = k_certain <= l_certain and l_possible <= k_possible
            if not ladder:
                raise SystemExit(
                    f"mode ladder violated at {n_rows} rows, "
                    f"density {density}"
                )
            # the disjunction exhausts B's domain: every row is certain
            # under least evaluation, only the ground ones under kleene
            if len(least_r.certain) != n_rows:
                raise SystemExit(
                    f"least evaluation missed a certain row: "
                    f"{len(least_r.certain)} of {n_rows}"
                )
            if density == densities[1]:
                least_by_size.append(least_t * 1000.0)
                kleene_by_size.append(kleene_t * 1000.0)
                join_by_size.append(join_t * 1000.0)
            if n_rows == sizes[-1]:
                promoted_at_largest = len(least_r.certain) - len(
                    kleene_r.certain
                )
            table.add_row(
                n_rows, f"{density:.2f}", f"{least_t * 1000.0:.2f}",
                f"{kleene_t * 1000.0:.2f}", len(least_r.certain),
                len(kleene_r.certain), f"{join_t * 1000.0:.2f}", ladder,
            )
        promoted_by_density.append(promoted_at_largest)
    table.show()

    print(f"\nseries least select wall ms by size: "
          + " ".join(f"{ms:.2f}" for ms in least_by_size))
    print(f"series kleene select wall ms by size: "
          + " ".join(f"{ms:.2f}" for ms in kleene_by_size))
    print(f"series least join wall ms by size: "
          + " ".join(f"{ms:.2f}" for ms in join_by_size))
    print(f"series rows promoted to certain by density: "
          + " ".join(str(count) for count in promoted_by_density))
    # exact evaluation trails the truth-functional pass: it runs the
    # same Kleene pass, then grounds every surviving disjunction (the
    # tree is evaluated as written, so no select is dropped statically)
    print(
        f"kleene over least evaluation speedup at largest configuration: "
        f"{least_by_size[-1] / kleene_by_size[-1]:.1f}x"
    )
    print(
        f"least-extension promoted {promoted_by_density[-1]} maybe-rows to "
        f"certain at {sizes[-1]} rows, density {densities[-1]:.2f} "
        f"(kleene cannot see domain exhaustion)"
    )


# ---------------------------------------------------------------------------
# Q1c — bucket equi-join vs the naive nested loop
# ---------------------------------------------------------------------------


def build_selective_env(n_rows: int):
    """r(A C) joined to s(C D) on an almost-key C: every C value is
    unique bar a handful of shared nulls, so bucket probing touches
    about one right row per left row while the nested loop still
    enumerates all n² pairs.  The nulls (shared across both sides, by
    identity) keep the wildcard path honest: a null join cell can never
    be refuted by a constant mismatch, so it must see every row."""
    r_schema = RelationSchema("r", "A C")
    s_schema = RelationSchema("s", "C D")
    shared = [null() for _ in range(4)]
    r_rows = [
        [f"a{i}", shared[i] if i < len(shared) else f"c{i}"]
        for i in range(n_rows)
    ]
    s_rows = [
        [shared[j] if j < len(shared) else f"c{j}", f"d{j}"]
        for j in range(n_rows)
    ]
    return {
        "r": Relation(r_schema, r_rows),
        "s": Relation(s_schema, s_rows),
    }


def join_once(env, hash_joins: bool):
    """One join evaluation, bucketed or naive.  Kleene tagging keeps the
    measurement on the join itself (least-mode grounding cost is Q1a's
    subject, and the bucket-vs-nested-loop identity in BOTH modes is
    pinned by tests/query/test_optimize.py)."""
    evaluator = Evaluator(env, hash_joins=hash_joins)
    node = parse_query(JOIN)
    start = time.perf_counter()
    result = evaluator.run(node, mode=MODE_KLEENE)
    return time.perf_counter() - start, result


def join_ladder() -> None:
    sizes = bench_sizes((100, 200, 400, 800))
    repeat = bench_repeat(3)

    table = Table(
        "Q1c — equi-join: bucket strategy vs nested loop",
        ["rows", "naive (ms)", "optimized (ms)", "speedup",
         "certain", "maybe", "answers identical"],
    )
    naive_by_size, optimized_by_size = [], []
    for n_rows in sizes:
        env = build_selective_env(n_rows)
        plan_text = Evaluator(env).explain(parse_query(JOIN))
        if "strategy=bucket(C)" not in plan_text:
            raise SystemExit(
                f"EXPLAIN does not show the equi-join routed through buckets:\n"
                f"{plan_text}"
            )
        naive_t, naive_r = min(
            (join_once(env, hash_joins=False) for _ in range(repeat)),
            key=lambda pair: pair[0],
        )
        optimized_t, optimized_r = min(
            (join_once(env, hash_joins=True) for _ in range(repeat)),
            key=lambda pair: pair[0],
        )
        # field identity, nulls by identity: bucketing is an equivalence
        identical = all(
            row_keys(getattr(optimized_r, side))
            == row_keys(getattr(naive_r, side))
            for side in ("certain", "maybe")
        )
        if not identical:
            raise SystemExit(
                f"optimized join answer diverged from naive evaluation "
                f"at {n_rows} rows"
            )
        naive_by_size.append(naive_t * 1000.0)
        optimized_by_size.append(optimized_t * 1000.0)
        table.add_row(
            n_rows, f"{naive_t * 1000.0:.2f}", f"{optimized_t * 1000.0:.2f}",
            f"{naive_t / optimized_t:.1f}x", len(optimized_r.certain),
            len(optimized_r.maybe), identical,
        )
    table.show()

    speedup = naive_by_size[-1] / optimized_by_size[-1]
    print(f"\nseries naive join wall ms by size: "
          + " ".join(f"{ms:.2f}" for ms in naive_by_size))
    print(f"series optimized join wall ms by size: "
          + " ".join(f"{ms:.2f}" for ms in optimized_by_size))
    print(
        f"optimized over naive equi-join speedup at largest configuration: "
        f"{speedup:.1f}x"
    )
    if speedup < 2.0:
        raise SystemExit(
            f"bucket equi-join under 2x at {sizes[-1]} rows: {speedup:.2f}x"
        )
    print(
        f"the bucket join answered {sizes[-1]} rows field-identically to "
        f"the nested loop, {speedup:.1f}x faster"
    )


# ---------------------------------------------------------------------------
# Q1b — query readers vs the writer
# ---------------------------------------------------------------------------


def run_query_storm(n_ops: int, n_readers: int):
    """Writer streams inserts; readers hammer the ``query`` verb.

    Returns (writer elapsed, max ack-to-ack gap, answers) where each
    answer is ``(as_of, certain-row count)``.
    """
    root = Path(tempfile.mkdtemp(prefix="bench_q1_readers_"))
    try:

        async def run():
            server = ReproServer(root / "db", sync="fsync", create=True)
            await server.start()
            await server.handle(
                {"do": "create", "name": "r", "attrs": "A B", "fds": []}
            )
            answers = []
            done = False

            async def writer() -> tuple:
                nonlocal done
                max_gap = 0.0
                start = time.perf_counter()
                last_ack = start
                for i in range(n_ops):
                    reply = await server.handle(
                        {"id": i, "do": "insert", "rel": "r",
                         "row": [f"a{i}", f"b{i % 5}"]}
                    )
                    assert reply["ok"], reply
                    now = time.perf_counter()
                    max_gap = max(max_gap, now - last_ack)
                    last_ack = now
                done = True
                return time.perf_counter() - start, max_gap

            async def reader(c: int) -> None:
                # full-scan queries in least mode: every poll leases a
                # cut, evaluates off the loop when the writer is busy
                while not done:
                    reply = await server.handle(
                        {"id": f"q{c}", "do": "query", "q": "r",
                         "mode": "least", "isolated": True}
                    )
                    assert reply["ok"], reply
                    answers.append(
                        (
                            reply["certain"]["as_of"],
                            len(reply["certain"]["rows"]),
                        )
                    )
                    await asyncio.sleep(0.001)

            writer_task = asyncio.create_task(writer())
            reader_tasks = [
                asyncio.create_task(reader(c)) for c in range(n_readers)
            ]
            elapsed, max_gap = await writer_task
            await asyncio.gather(*reader_tasks)
            await server.stop()
            return elapsed, max_gap, answers

        return asyncio.run(run())
    finally:
        shutil.rmtree(root, ignore_errors=True)


def reader_series() -> None:
    n_ops = 60 if quick_mode() else 200
    reader_counts = (0, 2, 4)
    table = Table(
        f"Q1b — writer vs query readers, {n_ops} fsync'd inserts",
        ["query readers", "writer ops/s", "max ack gap (ms)",
         "answers served", "all prefix-consistent"],
    )
    rates, gaps = [], []
    for n_readers in reader_counts:
        elapsed, max_gap, answers = run_query_storm(n_ops, n_readers)
        consistent = all(count == as_of for as_of, count in answers)
        if not consistent:
            raise SystemExit(
                f"a query answer was not a serial prefix: {answers[:5]} ..."
            )
        rates.append(n_ops / elapsed)
        gaps.append(max_gap * 1000.0)
        table.add_row(
            n_readers, f"{n_ops / elapsed:.0f}", f"{max_gap * 1000.0:.2f}",
            len(answers), consistent,
        )
    table.show()

    # the same stall guard bench_s1 holds snapshot readers to: a
    # query-induced writer stall would blow the ack gap far past the
    # no-reader (fsync-bound) worst case
    stall_budget_ms = max(50.0, 10.0 * gaps[0])
    if max(gaps) > stall_budget_ms:
        raise SystemExit(
            f"writer stalled under query readers: max ack gap "
            f"{max(gaps):.1f}ms exceeds the {stall_budget_ms:.1f}ms budget "
            f"(no-reader worst gap {gaps[0]:.2f}ms)"
        )
    print(f"\nseries writer ops/sec by query-reader count: "
          + " ".join(f"{rate:.0f}" for rate in rates))
    print(f"series writer max ack gap ms by query-reader count: "
          + " ".join(f"{gap:.2f}" for gap in gaps))
    print(
        f"writer max ack gap under {reader_counts[-1]} query readers: "
        f"{gaps[-1]:.2f} ms (budget {stall_budget_ms:.1f} ms) — zero stalls"
    )


def main() -> None:
    evaluation_ladder()
    join_ladder()
    reader_series()
    print(
        "\nLeast-extension evaluation recovered every domain-exhausted"
        "\ncertain answer Kleene evaluation left as maybe, the bucket"
        "\njoin matched the nested loop field for field, and query"
        "\nreaders never held the writer."
    )


if __name__ == "__main__":
    main()
