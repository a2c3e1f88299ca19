"""The metric schema and the layer table.

``END_TO_END`` and ``PER_LAYER`` are the names and units every run
prints (``--trace 0`` and ``--trace 1`` respectively); ``BENCHMARK.json``
lists the same names, and the self-test holds the two in step.

``WRAPS`` is the layer table: which public function of the program each
span is recorded around, patched at the name the program looks it up
by.  ``COVERAGE`` lists, per workload, the spans the traced run must see
fire inside the measured window — a wrapper bound at the wrong import
site never fires, and this catches it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

END_TO_END: List[Tuple[str, str]] = [
    ("write_ops_s", "ops/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
    ("read_ops_s", "ops/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]

PER_LAYER: List[Tuple[str, str]] = [
    ("server.protocol.decode_ms", "ms"),
    ("server.protocol.encode_ms", "ms"),
    ("server.writer.queue_wait_ms", "ms"),
    ("server.writer.ack_wait_ms", "ms"),
    ("server.app.loop_lag_p99_ms", "ms"),
    ("server.app.loop_busy_share", "ratio"),
    ("db.log.encode_ms", "ms"),
    ("db.log.append_ms", "ms"),
    ("db.log.records_per_batch", "count"),
    ("db.log.bytes_per_op", "B"),
    ("db.log.largest_batch", "count"),
    ("db.database.checkpoint_ms", "ms"),
    ("db.database.checkpoints", "count"),
    ("db.database.open_ms", "ms"),
    ("db.recovery.replay_ms", "ms"),
    ("db.recovery.replayed_records", "count"),
    ("recover_s", "s"),
    ("chase.session.insert_ms", "ms"),
    ("chase.session.delete_ms", "ms"),
    ("chase.session.update_ms", "ms"),
    ("chase.session.fill_ms", "ms"),
    ("chase.session.fast_delete_share", "ratio"),
    ("chase.session.lease_rechase_ms", "ms"),
    ("chase.session.lease_rechases", "count"),
    ("chase.session.lease_rechase_rows", "rows"),
    ("chase.session.live_read_share", "ratio"),
    ("chase.session.result_ms", "ms"),
    ("testfd.check_ms", "ms"),
    ("analysis.lint_ms", "ms"),
    ("query.optimize.stats_ms", "ms"),
    ("query.optimize.plan_ms", "ms"),
    ("query.parser.parse_ms", "ms"),
    ("query.evaluate.env_ms", "ms"),
    ("query.evaluate.run_ms", "ms"),
    ("query.evaluate.rows_per_answer", "rows"),
    ("api.encode_ms", "ms"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("trace.uncovered_busy_share", "ratio"),
    ("trace.write_p50_overhead_ms", "ms"),
    ("trace.read_p50_overhead_ms", "ms"),
]

#: span name → (module path, attribute path) it is recorded around
WRAPS: Dict[str, Tuple[str, str]] = {
    "server.app.handle": ("repro.server.app", "ReproServer.handle"),
    "server.protocol.decode": ("repro.server.protocol", "mutation"),
    "server.protocol.encode": ("repro.server.protocol", "encode_line"),
    "server.writer.submit": ("repro.server.writer", "RelationWriter.submit"),
    "server.writer.submit_many": ("repro.server.writer", "RelationWriter.submit_many"),
    "db.log.encode_op": ("repro.db.log", "encode_op"),
    "db.log.dump_json": ("repro.db.log", "dump_json"),
    "db.log.append_many": ("repro.db.log", "OpLog.append_many"),
    "db.database.journal": ("repro.db.database", "ManagedRelation._journal"),
    "db.database.checkpoint": ("repro.db.database", "ManagedRelation.checkpoint"),
    "db.database.open": ("repro.db.database", "Database.open"),
    "db.recovery.replay": ("repro.db.database", "replay"),
    "chase.session.insert": ("repro.chase.session", "ChaseSession.insert"),
    "chase.session.delete": ("repro.chase.session", "ChaseSession.delete"),
    "chase.session.update": ("repro.chase.session", "ChaseSession.update"),
    "chase.session.fill": ("repro.chase.session", "ChaseSession.fill"),
    "chase.session.lease_rechase": ("repro.chase.session", "ReadLease.instance"),
    "chase.session.result": ("repro.chase.session", "ChaseSession.result"),
    "testfd.check": ("repro.testfd", "check_fds"),
    "analysis.lint_query": ("repro.analysis", "lint_query_request"),
    "analysis.lint_batch": ("repro.analysis", "lint_requests"),
    "query.optimize.stats": ("repro.query.optimize", "relation_stats"),
    "query.optimize.plan": ("repro.query.optimize", "optimize_tree"),
    "query.parser.parse": ("repro.server.app", "parse_query"),
    "query.evaluate.env": ("repro.server.app", "Evaluator"),
    "query.evaluate.run": ("repro.query.evaluate", "Evaluator.run"),
    "api.encode_resultset": ("repro.api", "ResultSet.to_payload"),
    "api.encode_answer": ("repro.api", "Answer.to_payload"),
}

#: spans that fire outside the measured window (server start, reopen)
OUTSIDE_WINDOW = frozenset({"db.database.open", "db.recovery.replay"})

#: per workload, the spans its traffic must fire (the layer table's
#: "on" column); the traced run asserts each fired at least once
COVERAGE: Dict[str, Tuple[str, ...]] = {
    "ingest": (
        "server.protocol.decode",
        "server.writer.ack_wait",
        "db.log.encode_op",
        "db.log.dump_json",
        "db.log.append_many",
        "db.database.checkpoint",
        "db.recovery.replay",
        "analysis.lint_batch",
    ),
    "churn": (
        "server.writer.queue_wait",
        "chase.session.insert",
        "chase.session.delete",
        "chase.session.update",
        "chase.session.fill",
        "chase.session.lease_rechase",
        "testfd.check",
        "query.optimize.stats",
    ),
    "analytic": (
        "server.protocol.encode",
        "db.database.open",
        "chase.session.result",
        "analysis.lint_query",
        "query.optimize.plan",
        "query.parser.parse",
        "query.evaluate.env",
        "query.evaluate.run",
        "api.encode_resultset",
    ),
}
