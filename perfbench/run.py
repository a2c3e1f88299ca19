"""The served benchmark: one command, three workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest|churn|analytic \\
        --seed N --seconds S --trace 0|1

Builds the workload's preloaded database from ``--seed``, starts the
real server (``repro.server.ReproServer``, via ``serve.py``) in its own
process, drives it over TCP from this process (two connections, no
threads) for ``--seconds``, then checks every answer and the recovered
database.  It prints a human-readable report and, as its last line, one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of
``layers.END_TO_END``; with ``--trace 1`` the run measures the workload
twice — untraced, then with the layer wrappers installed — and reports
the per-layer metrics of ``layers.PER_LAYER`` plus the tracing overhead.
``failed`` counts every error, lint refusal and timeout; ``failed /
attempted`` is the run's failed fraction.

Exits non-zero, without a result line, when the program's source
(``src/repro``) is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workload as W  # noqa: E402
from layers import END_TO_END, PER_LAYER  # noqa: E402
from loadgen import Conn, Recorder, Sample, closed_loop, open_loop  # noqa: E402

#: server launches per run; setup_s is their median
SETUP_LAUNCHES = 3
#: WAL ops replayed by every reopen: the epilogue checkpoints, then
#: sends exactly this many inserts, so recovery work is the same per run
RECOVERY_TAIL = 1000
#: bound on waiting for stragglers after the measured window
DRAIN_S = 30.0
#: bound on a server shutdown (drain, reopen, verify)
PROCESS_S = 60.0
#: bound on the whole run
RUN_LIMIT_S = 170.0
#: where the run's databases and reports live (inside the checkout)
WORK = ROOT / ".perfbench_work"


#: with two or more CPUs the server runs on the first and the load
#: generator on the last, so the scheduler never stacks them on one core
SERVER_CPU = 0


def pin(pid: int, cpu: int) -> None:
    """Bind process ``pid`` (0: this one) to ``cpu`` when there are
    CPUs to spare; a no-op on one CPU or where affinity is unsupported."""
    cpus = os.cpu_count() or 1
    if cpus > 1 and hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(pid, {cpu % cpus})


class RunError(Exception):
    """The run could not produce a result."""


class Context:
    """One invocation's settings and generated inputs."""

    def __init__(self, args, work: Path) -> None:
        self.workload: str = args.workload
        self.seed: int = args.seed
        self.seconds: float = float(args.seconds)
        self.trace = bool(args.trace)
        self.work = work
        self.data = W.make_dataset(self.workload, self.seed)
        self.base_seq = 0
        self.sent_ops: Dict[str, List[tuple]] = {}


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class Server:
    """One launch of ``serve.py`` over a database directory."""

    def __init__(self, db: Path, out: Path, workload: str, trace: bool, reopen: bool) -> None:
        self.out = out
        argv = [
            sys.executable, str(HERE / "serve.py"),
            "--db", str(db), "--out", str(out), "--workload", workload,
            "--checkpoint-wal-ops", str(W.CHECKPOINT_WAL_OPS[workload]),
        ]
        if trace:
            argv.append("--trace")
        if reopen:
            argv.append("--reopen")
        env = dict(os.environ, PYTHONHASHSEED="0")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=str(ROOT)
        )
        pin(self.proc.pid, SERVER_CPU)
        line =self.proc.stdout.readline().decode().split()
        if len(line) != 2 or line[0] != "PORT":
            self.kill()
            raise RunError(f"server did not start (said {line!r})")
        self.port = int(line[1])

    def stop(self) -> dict:
        """Ask the server to stop; wait for it and read its report."""
        try:
            self.proc.stdin.write(b"stop\n")
            self.proc.stdin.close()
            code = self.proc.wait(timeout=PROCESS_S)
        except (subprocess.TimeoutExpired, BrokenPipeError) as error:
            self.kill()
            raise RunError(f"server did not stop: {error}") from None
        self.proc.stdout.close()
        if code != 0:
            raise RunError(f"server exited with code {code}")
        return json.loads(self.out.read_text(encoding="utf-8"))

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None and not stream.closed:
                stream.close()


async def first_ping(server: Server) -> float:
    """Open a connection and ping; returns launch → first answered ping."""
    conn = await Conn.open("127.0.0.1", server.port)
    sample = await conn.call({"id": "ping", "do": "ping"})
    elapsed = time.perf_counter() - server.started
    await conn.close()
    if sample.error:
        raise RunError(f"ping failed: {sample.error}")
    return elapsed


# ---------------------------------------------------------------------------
# one measured pass
# ---------------------------------------------------------------------------


class Pass:
    """Everything one measured pass produced."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.window = Recorder()
        self.epilogue: List[Sample] = []
        self.start = 0.0
        self.deadline = 0.0
        self.setup_s = 0.0
        self.report: dict = {}
        self.stats: dict = {}
        self.model: Optional[W.RowModel] = None
        self.digests: Dict[str, W.Digest] = {}


def digested(stream, digest: W.Digest):
    """``stream`` as ``(request, ops)`` pairs, each request digested."""
    for item in stream:
        request, ops = item if isinstance(item, tuple) else (item, 0)
        digest.add(request)
        yield request, ops


async def run_pass(ctx: Context, db: Path, traced: bool) -> Pass:
    result = Pass(traced)
    out = ctx.work / f"report-{'traced' if traced else 'plain'}.json"
    server = Server(db, out, ctx.workload, traced, reopen=True)
    try:
        result.setup_s = await first_ping(server)
        c0 = await Conn.open("127.0.0.1", server.port)
        c1 = await Conn.open("127.0.0.1", server.port)
        await c0.call({"id": "mark:window-start", "do": "ping"})
        # the generator's own garbage collections (it keeps every sample)
        # would stall its sends and replies for tens of milliseconds
        gc.collect()
        gc.disable()
        start = result.start = time.perf_counter()
        result.deadline = start + ctx.seconds
        try:
            await asyncio.wait_for(
                traffic(ctx, result, c0, c1, start), ctx.seconds + DRAIN_S
            )
        except asyncio.TimeoutError:
            pass
        finally:
            gc.enable()
        for sample in result.window.samples:
            if not sample.done:
                sample.error = "timed out"
        await c0.call({"id": "mark:window-end", "do": "ping"})
        stats = await c0.call({"id": "stats", "do": "stats", "rel": "r"})
        result.stats = (stats.response or {}).get("stats", {})
        try:
            await asyncio.wait_for(epilogue(ctx, result, c0), DRAIN_S)
        except asyncio.TimeoutError:
            raise RunError("the server stopped answering after the window") from None
        await c0.close()
        await c1.close()
        result.report = server.stop()
    except BaseException:
        server.kill()
        raise
    return result


async def traffic(ctx: Context, result: Pass, c0: Conn, c1: Conn, start: float) -> None:
    data, rec, deadline = ctx.data, result.window, result.deadline
    d = result.digests = {name: W.Digest() for name in ("c0", "c1", "probe")}
    if ctx.workload == "ingest":
        jobs = [
            closed_loop(c0, digested(W.ingest_writes(data, 0, ctx.sent_ops), d["c0"]),
                        W.INGEST_WINDOW, deadline, "write", rec),
            closed_loop(c1, digested(W.ingest_writes(data, 1, ctx.sent_ops), d["c1"]),
                        W.INGEST_WINDOW, deadline, "write", rec),
            open_loop(c1, digested(W.probe_reads(), d["probe"]),
                      W.INGEST_PROBE_RATE, start, deadline, "read", rec),
        ]
    elif ctx.workload == "churn":
        result.model = W.RowModel(data.r_rows, ctx.base_seq)
        jobs = [
            closed_loop(c0, digested(W.churn_writes(data, result.model), d["c0"]),
                        W.CHURN_WINDOW, deadline, "write", rec),
            open_loop(c1, digested(W.churn_reads(data), d["c1"]),
                      W.CHURN_READ_RATE, start, deadline, "read", rec),
        ]
    else:
        jobs = [
            closed_loop(c0, digested(W.analytic_reads(data, 0), d["c0"]), 1, deadline, "read", rec),
            closed_loop(c1, digested(W.analytic_reads(data, 1), d["c1"]), 1, deadline, "read", rec),
            open_loop(c1, digested(W.probe_writes(data), d["probe"]),
                      W.ANALYTIC_PROBE_RATE, start, deadline, "write", rec),
        ]
    await asyncio.gather(*jobs)


async def epilogue(ctx: Context, result: Pass, conn: Conn) -> None:
    """A fixed tail after the window, the same on every workload: one
    request per layer (so every per-layer span fires in every traced
    run), checkpoints, then exactly :data:`RECOVERY_TAIL` inserts — the
    WAL tail every reopen replays."""
    model = result.model or acked_model(ctx, result)
    result.model = model
    for request, ops in W.epilogue_script(ctx.data, model, reset=ctx.workload == "ingest"):
        sample = await conn.call(request, kind="epilogue")
        result.epilogue.append(sample)
        if not sample.error:
            for op in ops:
                model.apply(op)
    pending = []
    for request, row in W.recovery_tail(ctx.data, RECOVERY_TAIL):
        now = time.perf_counter()
        sample = Sample("epilogue", request, 1, now, now)
        result.epilogue.append(sample)
        pending.append(conn.send(sample))
        model.apply(("insert", row))
        if len(pending) >= W.INGEST_WINDOW:
            await asyncio.gather(*pending)
            pending = []
    await asyncio.gather(*pending)


def acked_model(ctx: Context, result: Pass) -> W.RowModel:
    """The rows of ``r`` after ingest (or analytic, which never writes
    ``r``), rebuilt from the acks: every acked op at the journal seq its
    ack reported — two connections interleave, so send order is not
    apply order.  A gap in the seqs stops the rebuild, and the
    comparison with the recovered rows then reports it."""
    by_seq: Dict[int, tuple] = {}
    for sample in result.window.samples:
        if sample.kind != "write" or sample.error or sample.request.get("rel") != "r":
            continue
        ops = ctx.sent_ops.get(sample.request["id"], [])
        if sample.request["do"] == "batch":
            seqs = [outcome.get("seq") for outcome in sample.response["results"]]
        else:
            seqs = [sample.response.get("seq")]
        by_seq.update(zip(seqs, ops))
    model = W.RowModel(ctx.data.r_rows, ctx.base_seq)
    for seq in sorted(by_seq):
        if seq != model.seq + 1:
            break
        model.apply(by_seq[seq])
    return model


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def is_null_token(token) -> bool:
    return isinstance(token, dict) and isinstance(token.get("n"), str)


def compare_raw(expected: List[list], tokens: List[list], where: str) -> List[str]:
    """Recovered raw rows against the model: constants equal, nulls where
    the model has nulls, one server null per model null and vice versa."""
    if len(expected) != len(tokens):
        return [f"{where}: {len(tokens)} rows, expected {len(expected)}"]
    problems: List[str] = []
    ids: Dict[str, str] = {}
    for i, (row, got) in enumerate(zip(expected, tokens)):
        for cell, token in zip(row, got):
            if isinstance(cell, W.NullRef):
                if not is_null_token(token):
                    problems.append(f"{where}: row {i} holds {token!r} where a null belongs")
                elif ids.setdefault(cell.key, token["n"]) != token["n"]:
                    problems.append(f"{where}: row {i}: one null came back as two")
            elif token != cell:
                problems.append(f"{where}: row {i} holds {token!r}, expected {cell!r}")
    if len(set(ids.values())) != len(ids):
        problems.append(f"{where}: distinct nulls came back merged")
    return problems[:5]


def check_fixpoint(expected: List[list], tokens: List[list], where: str) -> List[str]:
    """A served fixpoint against the prefix model: a raw constant stays,
    a raw null stays null or is grounded to the value it stands for."""
    if len(expected) != len(tokens):
        return [f"{where}: {len(tokens)} rows at its cut, expected {len(expected)}"]
    for i, (row, got) in enumerate(zip(expected, tokens)):
        for cell, token in zip(row, got):
            if isinstance(cell, W.NullRef):
                if not is_null_token(token) and token != cell.truth:
                    return [f"{where}: row {i} grounded {token!r}, truth is {cell.truth!r}"]
            elif token != cell:
                return [f"{where}: row {i} holds {token!r}, expected {cell!r}"]
    return []


def r_cut(as_of) -> int:
    return as_of["r"] if isinstance(as_of, dict) else as_of


class TruthEvaluator:
    """Queries over the ground truth of a prefix: the one completion the
    generator knows, which bounds every certain/maybe answer."""

    def __init__(self, data: W.Dataset) -> None:
        from repro import Domain, Relation, RelationSchema

        domain = {"B": Domain(W.B_DOMAIN, name="B")}
        self.r_schema = RelationSchema("r", W.R_ATTRS, domains=domain)
        self.s = Relation(
            RelationSchema("s", W.S_ATTRS, domains=domain),
            [[W.truth_of(c) for c in row] for row in data.s_rows],
        )
        self.relation = Relation

    def answer(self, rows: List[list], query: str) -> set:
        from repro.query import parse_query
        from repro.query.evaluate import Evaluator

        r = self.relation(self.r_schema, [[W.truth_of(c) for c in row] for row in rows])
        result = Evaluator({"r": r, "s": self.s}).run(parse_query(query), mode="kleene")
        return {tuple(row) for row in result.certain.rows}


#: attributes a selection constant may compare for the possible answers
#: to be complete: the key (never null) and ``B`` (a declared finite
#: domain).  A null in an unbounded column is enumerated over the
#: column's own constants only, so a selection constant absent from the
#: column drops rows that are possible (see NOTES.md).
COMPLETE_SELECTIONS = {"K", "B"}


def check_query_bounds(truth: set, query: str, response: dict, where: str) -> List[str]:
    """Certain ground rows hold in the truth; where the selections allow
    it, every true row is possible."""
    certain = response["certain"]["rows"]
    possible = certain + response["maybe"]["rows"]
    for row in certain:
        if not any(is_null_token(t) for t in row) and tuple(row) not in truth:
            return [f"{where}: certain row {row!r} is false in the ground truth"]
    if not set(re.findall(r"(\w+) !?= '", query)) <= COMPLETE_SELECTIONS:
        return []
    for row in truth:
        if not any(
            all(is_null_token(t) or t == v for t, v in zip(got, row)) for got in possible
        ):
            return [f"{where}: true row {row!r} is not even possible"]
    return []


def check_churn_reads(ctx: Context, result: Pass) -> List[str]:
    model = result.model
    reads = [
        s for s in result.window.samples
        if s.kind == "read" and not s.error and s.request["do"] in ("result", "query")
    ]
    cuts = [r_cut(s.response["as_of"]) for s in reads]
    if any(not (model.base_seq <= c <= model.seq) for c in cuts):
        return [f"churn: a read's cut lies outside [{model.base_seq}, {model.seq}]"]
    prefixes = model.prefixes(cuts)
    truth = TruthEvaluator(ctx.data)
    problems: List[str] = []
    for sample, cut in zip(reads, cuts):
        where = f"read {sample.request['id']} at seq {cut}"
        if sample.request["do"] == "result":
            problems += check_fixpoint(prefixes[cut], sample.response["rows"], where)
        else:
            query = sample.request["q"]
            expected = truth.answer(prefixes[cut], query)
            problems += check_query_bounds(expected, query, sample.response, where)
    for sample in result.window.samples:
        if sample.request["do"] == "check" and sample.response and not sample.error:
            if sample.response.get("satisfied") is not True:
                problems.append(f"check {sample.request['id']}: FDs reported violated")
    return problems[:5]


async def check_analytic_reads(ctx: Context, result: Pass, oracle_db: Path) -> List[str]:
    """Every analytic read against the same query evaluated in-process
    over an untouched copy of the preload: ``r`` and ``s`` are never
    written, so every read's cut is the preload itself."""
    from repro.server import ReproServer

    oracle = ReproServer(oracle_db, sync="none", create=False)
    await oracle.start()
    expected: Dict[tuple, dict] = {}
    problems: List[str] = []
    try:
        for sample in result.window.samples:
            if sample.kind != "read" or sample.error:
                continue
            key = (sample.request["q"], sample.request["mode"])
            if key not in expected:
                expected[key] = await oracle.handle({"do": "query", "q": key[0], "mode": key[1]})
            want, got = expected[key], sample.response
            for tag in ("certain", "maybe"):
                if sorted(map(json.dumps, want[tag]["rows"])) != sorted(
                    map(json.dumps, got[tag]["rows"])
                ):
                    problems.append(f"read {sample.request['id']}: {tag} rows differ for {key}")
            if want["as_of"] != got["as_of"]:
                problems.append(f"read {sample.request['id']}: cut {got['as_of']} != {want['as_of']}")
    finally:
        await oracle.stop()
    return problems[:5]


async def check_pass(ctx: Context, result: Pass, oracle_db: Optional[Path]) -> List[str]:
    label = "traced" if result.traced else "plain"
    report = result.report
    problems = [f"{label}: {name} fixpoint differs from a from-scratch chase"
                for name, ok in report["verified"].items() if not ok]
    problems += compare_raw(result.model.rows, report["r_rows"], f"{label}: recovered r")
    if ctx.workload == "churn":
        problems += check_churn_reads(ctx, result)
    elif ctx.workload == "analytic" and oracle_db is not None:
        problems += await check_analytic_reads(ctx, result, oracle_db)
    layers = report.get("layers")
    if layers and layers["missing_spans"]:
        problems.append(f"{label}: spans never fired: {', '.join(layers['missing_spans'])}")
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def answered(samples: List[Sample], kind: str) -> List[Sample]:
    return [s for s in samples if s.kind == kind and not s.error]


def end_to_end(ctx: Context, result: Pass, setup_s: float) -> Dict[str, float]:
    samples = result.window.samples
    writes, reads = answered(samples, "write"), answered(samples, "read")

    def rate(done: List[Sample]) -> float:
        """Ops answered in the window per second from its start to the
        last of those answers."""
        inside = [s for s in done if s.done <= result.deadline]
        if not inside:
            return 0.0
        span = max(s.done for s in inside) - result.start
        return sum(max(s.ops, 1) for s in inside) / span

    def pct(done: List[Sample], q: float) -> float:
        return 1000.0 * percentile([s.latency for s in done], q)

    return {
        "write_ops_s": rate(writes),
        "write_p50_ms": pct(writes, 0.50),
        "write_p99_ms": pct(writes, 0.99),
        "read_ops_s": rate(reads),
        "read_p50_ms": pct(reads, 0.50),
        "read_p90_ms": pct(reads, 0.90),
        "setup_s": setup_s,
        "recover_s": result.report["recover_s"],
        "peak_rss_mb": result.report["peak_rss_mb"],
    }


def read_shares(result: Pass) -> Dict[str, float]:
    """Live vs detached share of the window's answers that carry ``live``."""
    flags = [
        s.response["live"] for s in answered(result.window.samples, "read")
        if "live" in s.response
    ]
    live = sum(1 for flag in flags if flag) / len(flags) if flags else 0.0
    return {"live": live, "detached": 1.0 - live if flags else 0.0, "answers": len(flags)}


def per_layer(plain: Pass, traced: Pass, plain_e2e: dict, traced_e2e: dict) -> Dict[str, float]:
    figures = dict(traced.report["layers"]["figures"])
    stats = traced.stats
    outcomes = sum(stats.get(k, 0) for k in ("retire_fast", "trail_replay", "level_rebuild"))
    figures["chase.session.fast_delete_share"] = (
        stats.get("retire_fast", 0) / outcomes if outcomes else 0.0
    )
    figures["chase.session.live_read_share"] = read_shares(traced)["live"]
    figures["db.log.largest_batch"] = stats.get("largest_batch", 0)
    figures["loadgen.lateness_p99_ms"] = 1000.0 * percentile(traced.window.lateness, 0.99)
    # untraced: the traced reopen pays for its replay spans
    figures["recover_s"] = plain_e2e["recover_s"]
    figures["trace.write_p50_overhead_ms"] = traced_e2e["write_p50_ms"] - plain_e2e["write_p50_ms"]
    figures["trace.read_p50_overhead_ms"] = traced_e2e["read_p50_ms"] - plain_e2e["read_p50_ms"]
    return figures


def facts(ctx: Context, result: Pass) -> dict:
    """Machine and run facts, each with the reason it is recorded."""
    shares = read_shares(result)
    return {
        "nproc": {
            "value": os.cpu_count(),
            "why": "the server is one process; with 2 CPUs the load generator and "
                   "executor threads (fsync, detached re-chases) share the cores",
        },
        "python": {
            "value": platform.python_version(),
            "why": "the program is pure Python: interpreter speed sets every figure",
        },
        "sync": {
            "value": "fsync",
            "why": "acks wait for fsync, so WAL batching decides write latency",
        },
        "largest_wal_batch": {
            "value": result.stats.get("largest_batch"),
            "why": "records per group commit at the burst peak: how far fsync amortizes",
        },
        "live_read_share": {
            "value": shares["live"],
            "why": "live reads answer from the writer's session; detached ones re-chase "
                   f"a frozen cut first ({shares['answers']} answers carried the flag)",
        },
        "generator_lateness_p99_ms": {
            "value": 1000.0 * percentile(result.window.lateness, 0.99),
            "why": "open-loop sends that ran late would hide server stalls",
        },
        "requests": {
            "value": {name: d.count for name, d in result.digests.items()},
            "why": "requests sent per stream in the window",
        },
        "stream_digest": {
            "value": {name: d.hexdigest() for name, d in result.digests.items()},
            "why": f"SHA-256 of each stream's first {W.DIGEST_PREFIX} requests: "
                   "two runs with one seed sent the same traffic",
        },
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def copy_db(template: Path, name: str, work: Path) -> Path:
    target = work / name
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(template, target)
    return target


async def run(ctx: Context) -> dict:
    from preload import build_database

    template = ctx.work / "template"
    ctx.base_seq = build_database(ctx.data, template)
    launches: List[float] = []
    if not ctx.trace:
        for i in range(SETUP_LAUNCHES - 1):
            server = Server(template, ctx.work / f"launch-{i}.json", ctx.workload,
                            trace=False, reopen=False)
            try:
                launches.append(await first_ping(server))
            except BaseException:
                server.kill()
                raise
            server.stop()
    plain = await run_pass(ctx, copy_db(template, "db-plain", ctx.work), traced=False)
    launches.append(plain.setup_s)
    passes = [plain]
    if ctx.trace:
        ctx.sent_ops = {}
        passes.append(await run_pass(ctx, copy_db(template, "db-traced", ctx.work), traced=True))
    problems: List[str] = []
    attempted = failed = 0
    for result in passes:
        everything = result.window.samples + result.epilogue
        attempted += len(everything)
        failures = [s for s in everything if s.error]
        failed += len(failures)
        problems += [f"{s.request['id']} failed: {s.error}" for s in failures[:3]]
        oracle = copy_db(template, "db-oracle", ctx.work) if ctx.workload == "analytic" else None
        problems += await check_pass(ctx, result, oracle)
    e2e = end_to_end(ctx, plain, statistics.median(launches))
    if ctx.trace:
        traced = passes[1]
        traced_e2e = end_to_end(ctx, traced, 0.0)
        figures = per_layer(plain, traced, e2e, traced_e2e)
        metrics = {name: {"value": figures[name], "unit": unit} for name, unit in PER_LAYER}
        shown = traced
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        shown = plain
    print(f"perfbench {ctx.workload} seed={ctx.seed} seconds={ctx.seconds:g} "
          f"trace={int(ctx.trace)}")
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:14.4f} {metric['unit']}")
    print(f"  {'failed_frac':36s} {failed / attempted if attempted else 0.0:14.4f} ratio")
    if ctx.trace:
        layers = traced.report["layers"]
        print(f"  tracing: {layers['spans']} spans; loop busy {layers['busy_ms']:.1f} ms, "
              f"{layers['uncovered_busy_ms']:.1f} ms of it in no layer span")
    print("facts " + json.dumps(facts(ctx, shown), sort_keys=True))
    for problem in problems[:10]:
        print(f"PROBLEM {problem}")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Served ingest/churn/analytic benchmark.")
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin(0, (os.cpu_count() or 1) - 1)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = asyncio.run(asyncio.wait_for(run(Context(args, work)), RUN_LIMIT_S))
    except asyncio.TimeoutError:
        print(f"perfbench: the run took over {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(outcome, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
