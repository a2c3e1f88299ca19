"""The benchmark's server launcher: one ``ReproServer`` in its own process.

Usage (from the repository root; ``run.py`` drives it)::

    python3 perfbench/serve.py --db DIR --out FILE [--trace] [--reopen]
                               [--checkpoint-wal-ops N]

Starts the server over the preloaded database at ``DIR`` (``fsync``
sync, auto-checkpoint every ``N`` WAL ops), prints ``PORT <n>`` once it
listens, and serves until a line arrives on stdin (or stdin closes).
Then it stops the server (every queued op drains and becomes durable)
and writes ``FILE``: peak RSS and, with ``--reopen``, the time to reopen
the database (checkpoint load + WAL-tail replay), whether each
recovered fixpoint equals a from-scratch chase of its raw rows
(``ManagedRelation.verify``), and the recovered raw rows of ``r``.

With ``--trace`` the layer wrappers of :mod:`layers` are installed
before the server starts, an event-loop lag probe runs next to it, and
``FILE`` also carries the per-layer figures and the span coverage; the
raw spans go to ``FILE.spans.jsonl``.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from layers import COVERAGE, OUTSIDE_WINDOW, WRAPS  # noqa: E402
from spans import WAITING, LayerStats, Tracer, union_length  # noqa: E402

#: spans silenced inside a fold (served mutators; see :mod:`spans`)
QUIETABLE = ("chase.session.insert", "chase.session.delete",
             "chase.session.update", "chase.session.fill")
#: spans whose callees' mutator spans are folded into them
FOLDING = ("db.database.open", "db.recovery.replay")
#: lag probe period
PROBE_S = 0.005
#: reopens after the run; recover_s is their median
REOPENS = 5


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def install(tracer: Tracer) -> None:
    """Patch every name in :data:`layers.WRAPS` with a recording wrapper."""

    def count_bytes(args, result):
        tracer.count("dump_bytes", len(result) + 1)

    def count_records(args, result):
        tracer.count("append_records", len(args[1]))

    def count_replayed(args, result):
        tracer.count("replayed", result - args[3])

    def count_rows(args, result):
        evaluator, node = args[0], args[1]
        from repro.query import relation_names

        tracer.count(
            "eval_input_rows",
            sum(len(evaluator.env[n]) for n in set(relation_names(node)) if n in evaluator.env),
        )
        tracer.count("eval_answer_rows", len(result.certain) + len(result.maybe))

    after = {
        "db.log.dump_json": count_bytes,
        "db.log.append_many": count_records,
        "db.recovery.replay": count_replayed,
        "query.evaluate.run": count_rows,
    }
    for name, (module_name, path) in WRAPS.items():
        owner, attr = _resolve(module_name, path)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if name == "server.app.handle":
            wrapped = tracer.wrap_handle(raw)
        elif name in ("server.writer.submit", "server.writer.submit_many"):
            wrapped = tracer.wrap_submit(raw, many=name.endswith("many"))
        elif name == "db.database.open":
            wrapped = classmethod(tracer.wrap(name, raw.__func__, fold=True))
        elif name == "chase.session.lease_rechase":
            wrapped = _rechase_wrapper(tracer, raw)
        else:
            wrapped = tracer.wrap(
                name, raw,
                fold=name in FOLDING,
                quietable=name in QUIETABLE,
                after=after.get(name),
            )
        setattr(owner, attr, wrapped)


def _rechase_wrapper(tracer: Tracer, instance):
    """Span only the ``ReadLease.instance`` calls that build a private
    session (a from-scratch chase of the lease's frozen rows)."""

    def count(args, result):
        tracer.count("rechase_rows", len(args[0].rows))

    building = tracer.wrap("chase.session.lease_rechase", instance, fold=True, after=count)

    def traced(lease, detached=False):
        if lease._detached is None and (detached or not lease.fresh):
            return building(lease, detached)
        return instance(lease, detached)

    return traced


class LoopProbe:
    """Event-loop lag (a sleep's overshoot) and idle time (time blocked
    in the selector), sampled next to the server."""

    def __init__(self) -> None:
        self.lags = []
        self.idle = []
        self._task = None

    def start(self, loop) -> None:
        selector = loop._selector
        select = selector.select
        idle = self.idle

        def timed_select(timeout=None):
            start = time.perf_counter()
            try:
                return select(timeout)
            finally:
                idle.append((start, time.perf_counter()))

        selector.select = timed_select
        self._task = loop.create_task(self._run())

    async def _run(self) -> None:
        while True:
            start = time.perf_counter()
            await asyncio.sleep(PROBE_S)
            now = time.perf_counter()
            self.lags.append((now, now - start - PROBE_S))

    async def stop(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_report(tracer: Tracer, probe: LoopProbe, workload: str) -> dict:
    """Per-layer figures from the spans, plus the coverage verdict."""
    marks = tracer.marks
    start, end = marks.get("window-start"), marks.get("window-end")
    if start is None or end is None:
        raise RuntimeError(f"window marks missing: {sorted(marks)}")
    reopen = marks.get("reopen", float("inf"))
    spans = tracer.spans
    serving = [s for s in spans if s[2] >= start and s[2] < reopen]
    window = [s for s in spans if start <= s[2] <= end]
    stats = LayerStats(serving)
    opened = [s for s in spans if s[1] == "db.database.open"]
    replays = [s for s in spans if s[1] == "db.recovery.replay" and s[2] >= reopen]
    counts = tracer.counts

    def ratio(a, b):
        return counts.get(a, 0) / counts[b] if counts.get(b) else 0.0

    def per_call(count, span):
        calls = stats.calls.get(span, 0)
        return counts.get(count, 0) / calls if calls else 0.0

    # api: self time of both payload encoders per outermost call
    encoders = [s for s in serving if s[1].startswith("api.encode_")]
    resultset_ids = {s[0] for s in encoders if s[1] == "api.encode_resultset"}
    outermost = sum(1 for s in encoders if s[4] not in resultset_ids)
    api_self = stats.self_s.get("api.encode_resultset", 0.0) + stats.self_s.get(
        "api.encode_answer", 0.0
    )
    lint_calls = stats.calls.get("analysis.lint_query", 0) + stats.calls.get(
        "analysis.lint_batch", 0
    )
    lint_self = stats.self_s.get("analysis.lint_query", 0.0) + stats.self_s.get(
        "analysis.lint_batch", 0.0
    )
    encode_calls = stats.calls.get("db.log.encode_op", 0)
    # loop busy time inside the window, and the part no layer span covers
    loop_thread = next((s[6] for s in window if s[1] == "server.app.handle"), None)
    idle = union_length(
        (max(a, start), min(b, end)) for a, b in probe.idle if b > start and a < end
    )
    busy = max(0.0, (end - start) - idle)
    computing = [
        (s[2], s[3]) for s in window if s[6] == loop_thread and s[1] not in WAITING
    ]
    covered = union_length(computing)
    figures = {
        "server.protocol.decode_ms": stats.mean_self_ms("server.protocol.decode"),
        "server.protocol.encode_ms": stats.mean_self_ms("server.protocol.encode"),
        "server.writer.queue_wait_ms": stats.mean_total_ms("server.writer.queue_wait"),
        "server.writer.ack_wait_ms": stats.mean_total_ms("server.writer.ack_wait"),
        "server.app.loop_lag_p99_ms": 1000.0
        * _percentile([lag for t, lag in probe.lags if start <= t <= end], 0.99),
        "server.app.loop_busy_share": busy / (end - start),
        "db.log.encode_ms": (
            1000.0
            * (stats.self_s.get("db.log.encode_op", 0.0) + stats.self_s.get("db.log.dump_json", 0.0))
            / encode_calls
            if encode_calls
            else 0.0
        ),
        "db.log.append_ms": stats.mean_self_ms("db.log.append_many"),
        "db.log.records_per_batch": per_call("append_records", "db.log.append_many"),
        "db.log.bytes_per_op": ratio("dump_bytes", "append_records"),
        "db.database.checkpoint_ms": stats.mean_self_ms("db.database.checkpoint"),
        "db.database.checkpoints": stats.calls.get("db.database.checkpoint", 0),
        "db.database.open_ms": 1000.0 * (opened[0][3] - opened[0][2]) if opened else 0.0,
        "db.recovery.replay_ms": 1000.0 * sum(s[3] - s[2] for s in replays) / REOPENS,
        "db.recovery.replayed_records": counts.get("replayed_per_reopen", 0),
        "chase.session.insert_ms": stats.mean_self_ms("chase.session.insert"),
        "chase.session.delete_ms": stats.mean_self_ms("chase.session.delete"),
        "chase.session.update_ms": stats.mean_self_ms("chase.session.update"),
        "chase.session.fill_ms": stats.mean_self_ms("chase.session.fill"),
        "chase.session.lease_rechase_ms": stats.mean_total_ms("chase.session.lease_rechase"),
        "chase.session.lease_rechases": stats.calls.get("chase.session.lease_rechase", 0),
        "chase.session.lease_rechase_rows": per_call("rechase_rows", "chase.session.lease_rechase"),
        "chase.session.result_ms": stats.mean_self_ms("chase.session.result"),
        "testfd.check_ms": stats.mean_self_ms("testfd.check"),
        "analysis.lint_ms": 1000.0 * lint_self / lint_calls if lint_calls else 0.0,
        "query.optimize.stats_ms": stats.mean_self_ms("query.optimize.stats"),
        "query.optimize.plan_ms": stats.mean_self_ms("query.optimize.plan"),
        "query.parser.parse_ms": stats.mean_self_ms("query.parser.parse"),
        "query.evaluate.env_ms": stats.mean_self_ms("query.evaluate.env"),
        "query.evaluate.run_ms": stats.mean_self_ms("query.evaluate.run"),
        "query.evaluate.rows_per_answer": ratio("eval_input_rows", "eval_answer_rows"),
        "api.encode_ms": 1000.0 * api_self / outermost if outermost else 0.0,
        "trace.uncovered_busy_share": max(0.0, busy - covered) / busy if busy else 0.0,
    }
    # the workload's own layers must fire in the window; every other
    # layer at least once in the run (the epilogue sends one of each)
    fired = {s[1] for s in window} | {s[1] for s in spans if s[1] in OUTSIDE_WINDOW}
    missing = [name for name in COVERAGE[workload] if name not in fired]
    anywhere = {s[1] for s in spans}
    missing += sorted(
        {name for names in COVERAGE.values() for name in names} - anywhere - set(missing)
    )
    return {
        "figures": figures,
        "missing_spans": missing,
        "spans": len(spans),
        "uncovered_busy_ms": 1000.0 * max(0.0, busy - covered),
        "busy_ms": 1000.0 * busy,
    }


async def serve(args) -> dict:
    from repro.server import ReproServer

    tracer = probe = None
    if args.trace:
        tracer = Tracer()
        install(tracer)
        probe = LoopProbe()
    server = ReproServer(
        args.db,
        sync="fsync",
        create=False,
        checkpoint_wal_ops=args.checkpoint_wal_ops,
    )
    await server.start()
    host, port = await server.listen("127.0.0.1", 0)
    loop = asyncio.get_running_loop()
    if probe is not None:
        probe.start(loop)
    stop = asyncio.Event()
    stdin = sys.stdin.fileno()

    def on_stdin() -> None:
        import os

        os.read(stdin, 4096)
        stop.set()

    loop.add_reader(stdin, on_stdin)
    print(f"PORT {port}", flush=True)
    await stop.wait()
    loop.remove_reader(stdin)
    if probe is not None:
        await probe.stop()
    await server.stop()
    report: dict = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if args.reopen:
        report.update(reopen(args.db, tracer))
    if tracer is not None:
        report["layers"] = layer_report(tracer, probe, args.workload)
        with open(f"{args.out}.spans.jsonl", "w", encoding="utf-8") as handle:
            for span in tracer.spans:
                handle.write(json.dumps(span) + "\n")
    return report


def reopen(path: Path, tracer) -> dict:
    """Time :data:`REOPENS` reopens (checkpoint load + WAL-tail replay;
    the median is ``recover_s``), then check the recovered state: each
    fixpoint against a from-scratch chase."""
    from repro.db import Database

    if tracer is not None:
        tracer.marks["reopen"] = time.perf_counter()
        replayed_before = tracer.counts.get("replayed", 0)
    times = []
    for attempt in range(REOPENS):
        gc.collect()  # start each reopen from the same heap state
        start = time.perf_counter()
        db = Database.open(path, sync="fsync", create=False)
        times.append(time.perf_counter() - start)
        if attempt < REOPENS - 1:
            db.close()
    recover_s = statistics.median(times)
    if tracer is not None:
        replayed = tracer.counts.get("replayed", 0) - replayed_before
        tracer.counts["replayed_per_reopen"] = replayed / REOPENS
        tracer.enabled = False
    try:
        verified = {relation.name: relation.verify() for relation in db}
        r = db.relation("r")
        rows = [[r.encode_value(v) for v in row.values] for row in r.rows]
        info = {name: db.relation(name).recovery_info for name in db.names()}
    finally:
        db.close()
    return {"recover_s": recover_s, "verified": verified, "r_rows": rows, "recovery": info}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--db", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--reopen", action="store_true")
    parser.add_argument("--checkpoint-wal-ops", type=int, default=None)
    args = parser.parse_args()
    report = asyncio.run(serve(args))
    args.out.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
