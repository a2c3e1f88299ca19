"""Command-line interface: FD tools over CSV files and durable databases.

Usage (also via ``python -m repro``)::

    repro check  --data t.csv --fds "zip -> city state" [--convention weak]
                 [--method auto|sortmerge|pairwise|batched]
    repro chase  --data t.csv --fds "zip -> city state" [--mode extended]
                 [--engine auto|sweep|vector]
    repro session --data t.csv --fds "zip -> city state" --script ops.txt
    repro db init PATH --name R --attrs "A B C" --fds "A -> B"
    repro db ingest PATH --name R [--data t.csv] [--script ops.txt]
    repro db check PATH --name R [--convention weak]
    repro db checkpoint PATH [--name R]
    repro db recover PATH
    repro db stats PATH [--name R]
    repro serve PATH [--port 7407] [--window-ms 2] [--checkpoint-wal-ops N]
    repro keys       --attrs "A B C" --fds "A -> B"
    repro closure    --attrs "A B C" --fds "A -> B; B -> C" --of "A"
    repro normalize  --attrs "A B C" --fds "A -> B; B -> C" [--method bcnf]

Data files are ordinary CSV with a header row naming the attributes; an
empty cell or a ``-`` cell is read as a fresh null.  Finite domains may be
declared with ``--domain A=a1,a2,a3`` (repeatable); attributes without a
declaration get unbounded domains.

``repro session`` drives a long-lived :class:`repro.ChaseSession` — and
``repro db ingest`` a durable :class:`repro.Database` relation — through
the same op-record vocabulary (one op per line, ``#`` comments; ``-``
reads the script from stdin)::

    insert a1, b1, c1        # cells comma-separated; empty or - is a null
    update 0 B=b2, C=c9      # attribute assignments on row 0
    replace 0 a9, b9, c9     # swap the whole tuple at row 0
    fill 1 C c3              # ground a null with a constant
    delete 0
    adopt                    # commit forced substitutions into the rows
    snapshot                 # push a checkpoint
    rollback                 # pop + restore the latest checkpoint
    checkpoint               # db scripts only: snapshot rows, truncate log
    check weak               # TEST-FDs against the maintained instance
    stats                    # print the session's op-outcome counters
    show                     # print the maintained instance
    explain                  # narrate the maintained chase

A failing op aborts the script with its line number and op text (exit
status 2).  Otherwise the final maintained instance is printed on exit;
the exit status is 1 when it is inconsistent (contains *nothing*), 0
otherwise.  With ``--stats`` the session's op-outcome counters — how many
deletes/updates were served by in-place retirement (``retire_fast``) vs
trail rewind + replay (``trail_replay``) vs a full level rebuild
(``level_rebuild``) — are printed before the final instance.

The ``repro db`` family operates on a durable database directory: every
ingest op is journalled to a write-ahead log *before* it is applied, so a
crash at any instant (including mid-append) recovers to the last
completed op on the next ``repro db`` invocation — ``repro db recover``
makes the replay explicit and verifies the recovered fixpoint against a
from-scratch chase of the recovered rows.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Dict, List, Optional, Sequence

from .armstrong import attribute_closure, candidate_keys, minimal_cover
from .chase import (
    ENGINE_AUTO,
    ENGINE_SWEEP,
    ENGINE_VECTOR,
    MODE_BASIC,
    MODE_EXTENDED,
    ChaseSession,
    chase,
)
from .core.attributes import parse_attrs
from .core.domain import Domain
from .core.fd import FDSet
from .core.relation import Relation
from .core.schema import RelationSchema
from .db import SYNC_FSYNC, SYNC_MODES, Database
from .errors import ReproError, ScriptError
from .explain import explain_chase, explain_outcome
from .normalization import bcnf_decompose, synthesize_3nf
from .opschema import (
    MUTATION_VERBS,
    SessionTarget,
    apply_op,
    parse_cell,
    parse_op,
    require_durable,
)
from .testfd import CONVENTION_STRONG, CONVENTION_WEAK, TESTFD_METHODS, check_fds


def load_relation(
    path: str, domains: Optional[Dict[str, Domain]] = None, name: str = "R"
) -> Relation:
    """Read a CSV file into a relation; empty/``-`` cells become nulls."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ReproError(f"{path}: empty file") from None
        schema = RelationSchema(
            name, [h.strip() for h in header], domains=domains
        )
        rows: List[List] = []
        for lineno, record in enumerate(reader, start=2):
            if not record or all(not cell.strip() for cell in record):
                continue
            if len(record) != len(schema.attributes):
                raise ReproError(
                    f"{path}:{lineno}: expected {len(schema.attributes)} "
                    f"cells, got {len(record)}"
                )
            rows.append([parse_cell(cell) for cell in record])
    return Relation(schema, rows)


def parse_domains(specs: Optional[Sequence[str]]) -> Dict[str, Domain]:
    domains: Dict[str, Domain] = {}
    for spec in specs or ():
        if "=" not in spec:
            raise ReproError(f"bad --domain {spec!r}; expected ATTR=v1,v2,...")
        attr, _, values = spec.partition("=")
        domains[attr.strip()] = Domain(
            [v.strip() for v in values.split(",") if v.strip()], name=attr
        )
    return domains


def _cmd_check(args: argparse.Namespace) -> int:
    relation = load_relation(args.data, parse_domains(args.domain))
    fds = FDSet.parse(args.fds)
    outcome = check_fds(
        relation,
        fds,
        convention=args.convention,
        method=args.method,
        ensure_minimal=(args.convention == CONVENTION_WEAK),
    )
    print(
        f"{args.convention} satisfiability of {fds!r}: "
        f"{'yes' if outcome.satisfied else 'no'}"
    )
    if not outcome.satisfied:
        print(explain_outcome(outcome, relation))
    return 0 if outcome.satisfied else 1


def _cmd_chase(args: argparse.Namespace) -> int:
    relation = load_relation(args.data, parse_domains(args.domain))
    fds = FDSet.parse(args.fds)
    result = chase(relation, fds, mode=args.mode, engine=args.engine)
    print(result.relation.to_text())
    print()
    print(explain_chase(result))
    return 1 if result.has_nothing else 0


#: the line ``run_script`` prints per mutation: the op record's fields by
#: position, the ack's by name
_ECHO = {
    "insert": "insert -> row {index}",
    "delete": "delete row {1}",
    "update": "update row {1} with {2}",
    "replace": "replace row {1}",
    "fill": "fill row {1}.{2} := {3!r}",
    "adopt": "adopt: {committed} substitution(s) committed",
    "snapshot": "snapshot #{depth}",
    "rollback": "rollback to snapshot #{depth}",
}


def run_script(target, lines: Sequence[str]) -> None:
    """Execute an op script against a session-shaped target.

    ``target`` is a :class:`~repro.opschema.SessionTarget` or a durable
    :class:`repro.db.ManagedRelation`.  Each line is parsed by
    :func:`repro.opschema.parse_op` — the parser ``repro lint`` uses —
    and each mutation applied by :func:`repro.opschema.apply_op`.  A
    failing op raises :class:`~repro.errors.ScriptError` carrying the
    1-based line number and the op text as written.
    """
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            record = parse_op(line)
            op = record[0]
            if op in MUTATION_VERBS:
                ack = apply_op(target, record)
                print(f"[{lineno}] " + _ECHO[op].format(*record, **ack))
            elif op == "checkpoint":
                require_durable(hasattr(target, "checkpoint"))
                absorbed = target.checkpoint()
                print(f"[{lineno}] checkpoint: {absorbed} op(s) absorbed")
            elif op == "check":
                convention = record[1]
                outcome = target.check(convention=convention)
                verdict = "satisfied" if outcome.satisfied else "violated"
                print(f"[{lineno}] check {convention}: {verdict}")
                if not outcome.satisfied:
                    print(explain_outcome(outcome, target.result().relation))
            elif op == "stats":
                print(f"[{lineno}] " + _format_stats(target))
            elif op == "show":
                print(target.result().relation.to_text())
            else:
                print(target.explain())
        except ReproError as error:
            raise ScriptError(lineno, line, error) from error
        if target.has_nothing:
            print(f"[{lineno}] state is now INCONSISTENT (nothing present)")


def _read_script(path: str) -> List[str]:
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path) as handle:
        return handle.read().splitlines()


def _finish_script(target, status: int, show_stats: bool) -> int:
    """The common epilogue: counters (optional), instance, summary, exit."""
    print()
    if show_stats:
        print(_format_stats(target))
    print(target.result().relation.to_text())
    print()
    print(target.result().summary())
    if status:
        return status
    return 1 if target.has_nothing else 0


def _cmd_session(args: argparse.Namespace) -> int:
    fds = FDSet.parse(args.fds)
    if args.data:
        relation = load_relation(args.data, parse_domains(args.domain))
        session = ChaseSession(relation, fds)
    elif args.attrs:
        schema = RelationSchema(
            "R", args.attrs, domains=parse_domains(args.domain) or None
        )
        session = ChaseSession(schema, fds)
    else:
        raise ReproError("session needs --data or --attrs")

    target = SessionTarget(session)
    status = 0
    try:
        run_script(target, _read_script(args.script))
    except ScriptError as error:
        print(f"error: {error.diagnostic().render()}", file=sys.stderr)
        status = 2
    return _finish_script(target, status, args.stats)


def _lint_query_catalog(args: argparse.Namespace):
    """The relation catalog (and instance stats) ``lint --query`` checks
    against.

    ``--data`` contributes more than a scheme: the loaded instance's
    null counts and verified value pools power the plan linter's
    null-flow and grounding-space findings.
    """
    from .query.optimize import relation_stats

    domains = parse_domains(args.domain) or {}
    catalog: Dict[str, RelationSchema] = {}
    stats = {}
    for spec in args.rel or []:
        name, _, attrs = spec.partition("=")
        if not name or not attrs.strip():
            raise ReproError(f'--rel needs NAME="A B C", got {spec!r}')
        schema = RelationSchema(name, attrs)
        scoped = {a: d for a, d in domains.items() if a in schema.attributes}
        catalog[name] = RelationSchema(name, attrs, domains=scoped or None)
    if args.data:
        relation = load_relation(args.data, domains)
        catalog.setdefault(relation.schema.name, relation.schema)
        stats[relation.schema.name] = relation_stats(relation)
    elif args.attrs:
        scoped = {
            a: d
            for a, d in domains.items()
            if a in RelationSchema("R", args.attrs).attributes
        }
        catalog.setdefault(
            "R", RelationSchema("R", args.attrs, domains=scoped or None)
        )
    if not catalog:
        raise ReproError("lint --query needs --rel, --data or --attrs")
    return catalog, (stats or None)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis import lint_query_script, lint_script, render_report

    if args.query:
        catalog, stats = _lint_query_catalog(args)
        diagnostics = lint_query_script(
            catalog, _read_script(args.script), stats=stats
        )
    else:
        if not args.fds:
            raise ReproError("lint needs --fds (unless linting --query)")
        fds = FDSet.parse(args.fds)
        rows = None
        if args.data:
            relation = load_relation(args.data, parse_domains(args.domain))
            schema, rows = relation.schema, relation.rows
        elif args.attrs:
            schema = RelationSchema(
                "R", args.attrs, domains=parse_domains(args.domain) or None
            )
        else:
            raise ReproError("lint needs --data or --attrs")
        diagnostics = lint_script(
            schema, fds, _read_script(args.script), rows=rows, durable=args.db
        )
    if not diagnostics:
        print("clean: no diagnostics")
        return 0
    print(render_report(diagnostics))
    errors = sum(1 for d in diagnostics if d.severity == "error")
    warnings = len(diagnostics) - errors
    print(f"{errors} error(s), {warnings} warning(s)")
    return 2 if errors else 1


def _cmd_query(args: argparse.Namespace) -> int:
    from .query.evaluate import Evaluator
    from .query.parser import parse_query
    from .query.repl import QueryRepl, render_result, run_repl

    env: Dict[str, Relation] = {}
    fds: Dict[str, tuple] = {}
    db: Optional[Database] = None
    try:
        if args.db:
            db = Database.open(args.db, create=False)
            for managed in db:
                # queries run over the maintained fixpoint, the same
                # instance every other durable read surface answers from
                env[managed.name] = managed.result().relation
                fds[managed.name] = tuple(managed.session.fds)
        for spec in args.csv or []:
            name, _, path = spec.partition("=")
            if not name or not path:
                raise ReproError(f"--csv needs NAME=PATH, got {spec!r}")
            env[name] = load_relation(
                path, parse_domains(args.domain), name=name
            )
        if not env:
            raise ReproError("query needs a source: --db DIR and/or --csv")
        if args.expr:
            evaluator = Evaluator(env, fds=fds or None)
            node = parse_query(args.expr)
            if args.explain:
                print(evaluator.explain(node, mode=args.mode))
                return 0
            result = evaluator.run(node, mode=args.mode)
            print(render_result(result))
            return 0
        if args.explain:
            raise ReproError(
                "--explain needs -e EXPR (in the shell, use `explain Q`)"
            )
        if args.script:
            repl = QueryRepl(env, mode=args.mode, fds=fds or None)
            failed = False
            for line in _read_script(args.script):
                block = repl.execute(line)
                if block:
                    print(block)
                    failed = failed or block.startswith(
                        ("error:", "domain error:")
                    )
            return 1 if failed else 0
        if args.repl or sys.stdin.isatty():
            print("repro query shell — .help for help, .quit to leave")
            run_repl(env, sys.stdin, sys.stdout, mode=args.mode,
                     prompt="query> ", fds=fds or None)
            print()
            return 0
        raise ReproError("query needs -e EXPR, --script FILE, or --repl")
    finally:
        if db is not None:
            db.close()


def _format_stats(target) -> str:
    counters = ", ".join(
        f"{name}={value}" for name, value in target.stats().items()
    )
    return f"session stats: {counters}"


# ---------------------------------------------------------------------------
# the durable-database commands (repro db ...)
# ---------------------------------------------------------------------------


def _open_db(args: argparse.Namespace, create: bool = False) -> Database:
    # only `db init` materializes a missing directory; every other
    # subcommand treats a path with no database as the error it is
    return Database.open(args.path, sync=args.sync, create=create)


def _cmd_db_init(args: argparse.Namespace) -> int:
    with _open_db(args, create=True) as db:
        fds = FDSet.parse(args.fds) if args.fds else FDSet()
        db.create(
            args.name,
            args.attrs,
            fds,
            domains=parse_domains(args.domain) or None,
        )
        print(
            f"created relation {args.name!r} ({args.attrs}) with "
            f"{len(list(fds))} FD(s) in {db.path}"
        )
    return 0


def _cmd_db_ingest(args: argparse.Namespace) -> int:
    with _open_db(args) as db:
        relation = db.relation(args.name)
        if args.data:
            loaded = load_relation(args.data, parse_domains(args.domain)).rows
            for row in loaded:
                relation.insert(row)
            print(f"ingested {args.data}: {len(loaded)} row(s) journalled")
        status = 0
        if args.script:
            try:
                run_script(relation, _read_script(args.script))
            except ScriptError as error:
                print(f"error: {error.diagnostic().render()}", file=sys.stderr)
                status = 2
        return _finish_script(relation, status, args.stats)


def _cmd_db_check(args: argparse.Namespace) -> int:
    with _open_db(args) as db:
        relation = db.relation(args.name)
        outcome = relation.check(convention=args.convention, method=args.method)
        print(
            f"{args.convention} satisfiability of {args.name!r}: "
            f"{'yes' if outcome.satisfied else 'no'}"
        )
        if not outcome.satisfied:
            print(explain_outcome(outcome, relation.result().relation))
        return 0 if outcome.satisfied else 1


def _cmd_db_checkpoint(args: argparse.Namespace) -> int:
    with _open_db(args) as db:
        for name, absorbed in db.checkpoint(args.name).items():
            print(f"checkpointed {name!r}: {absorbed} op(s) absorbed into the snapshot")
    return 0


def _cmd_db_recover(args: argparse.Namespace) -> int:
    with _open_db(args) as db:
        failures = 0
        for relation in db:
            info = relation.recovery_info
            verified = relation.verify()
            failures += 0 if verified else 1
            torn = ", torn tail dropped" if info["torn_tail_dropped"] else ""
            print(
                f"{relation.name}: {info['rows']} row(s) = checkpoint seq "
                f"{info['checkpoint_seq']} + {info['replayed']} replayed "
                f"op(s){torn}; fixpoint verified: {verified}"
            )
        if not len(db):
            print(f"no relations in {db.path}")
    return 1 if failures else 0


def _cmd_db_stats(args: argparse.Namespace) -> int:
    with _open_db(args) as db:
        stats = db.stats()
        if args.name:
            stats = {args.name: db.relation(args.name).stats()}
        for name, counters in stats.items():
            rendered = ", ".join(f"{key}={value}" for key, value in counters.items())
            print(f"{name}: {rendered}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .server import ReproServer  # local: keeps plain CLI startup light

    async def run() -> None:
        server = ReproServer(
            args.path,
            sync=args.sync,
            create=False,
            window_s=args.window_ms / 1000.0,
            max_batch=args.max_batch,
            checkpoint_wal_ops=args.checkpoint_wal_ops,
            checkpoint_interval_s=args.checkpoint_interval,
        )
        await server.start()
        recovered = ", ".join(
            f"{rel.name}({len(rel)} rows, seq {rel.seq})" for rel in server.db
        )
        host, port = await server.listen(args.host, args.port)
        print(f"serving {server.path} on {host}:{port}")
        print(f"relations: {recovered or 'none'}")
        print(
            f"group commit: window {args.window_ms}ms, max batch "
            f"{args.max_batch}; sync={args.sync}"
        )
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await asyncio.shield(server.stop())

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        # stop() ran in the finally above: queued ops were applied and
        # made durable before the handles closed
        print("\nshut down cleanly")
    return 0


def _cmd_keys(args: argparse.Namespace) -> int:
    fds = FDSet.parse(args.fds) if args.fds else FDSet()
    keys = candidate_keys(args.attrs, fds)
    for key in keys:
        print(" ".join(key))
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    fds = FDSet.parse(args.fds) if args.fds else FDSet()
    closure = attribute_closure(args.of, fds)
    ordered = [a for a in parse_attrs(args.attrs) if a in closure]
    print(" ".join(ordered))
    return 0


def _cmd_normalize(args: argparse.Namespace) -> int:
    fds = FDSet.parse(args.fds) if args.fds else FDSet()
    cover = minimal_cover(fds)
    print(f"minimal cover: {cover!r}")
    if args.method == "bcnf":
        for attrs, local in bcnf_decompose(args.attrs, cover):
            print(f"{' '.join(attrs)}   [{local!r}]")
    else:
        for attrs in synthesize_3nf(args.attrs, cover):
            print(" ".join(attrs))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "functional dependencies over relations with nulls "
            "(Vassiliou, VLDB 1980)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser("check", help="TEST-FDs satisfiability")
    check.add_argument("--data", required=True, help="CSV file with header")
    check.add_argument("--fds", required=True, help='e.g. "A -> B; B -> C"')
    check.add_argument(
        "--convention",
        choices=[CONVENTION_WEAK, CONVENTION_STRONG],
        default=CONVENTION_WEAK,
    )
    check.add_argument(
        "--method",
        choices=TESTFD_METHODS,
        default="auto",
        help="TEST-FDs variant (auto runs batched, falling back to pairwise "
        "where the strong convention cannot group nulls)",
    )
    check.add_argument("--domain", action="append", metavar="ATTR=v1,v2")
    check.set_defaults(func=_cmd_check)

    chase_cmd = commands.add_parser("chase", help="NS-rule chase")
    chase_cmd.add_argument("--data", required=True)
    chase_cmd.add_argument("--fds", required=True)
    chase_cmd.add_argument(
        "--mode", choices=[MODE_BASIC, MODE_EXTENDED], default=MODE_EXTENDED
    )
    chase_cmd.add_argument(
        "--engine",
        choices=[ENGINE_AUTO, ENGINE_SWEEP, ENGINE_VECTOR],
        default=ENGINE_AUTO,
        help="chase engine (auto: vector in extended mode, sweep in basic; "
        "vector is extended-mode only)",
    )
    chase_cmd.add_argument("--domain", action="append", metavar="ATTR=v1,v2")
    chase_cmd.set_defaults(func=_cmd_chase)

    session = commands.add_parser(
        "session", help="drive a stateful chase session through an op script"
    )
    session.add_argument("--data", help="CSV file with the initial instance")
    session.add_argument("--attrs", help='start empty over e.g. "A B C"')
    session.add_argument("--fds", required=True)
    session.add_argument(
        "--script",
        default="-",
        help="operation script path, or - for stdin (the default)",
    )
    session.add_argument("--domain", action="append", metavar="ATTR=v1,v2")
    session.add_argument(
        "--stats",
        action="store_true",
        help="print op-outcome counters (in-place retirements vs trail "
        "replays vs level rebuilds) before the final instance",
    )
    session.set_defaults(func=_cmd_session)

    lint = commands.add_parser(
        "lint",
        help="check an op script by a dry run on a scratch session "
        "(exit 0 clean / 1 warnings / 2 errors)",
    )
    lint.add_argument("--data", help="CSV file with the initial instance")
    lint.add_argument("--attrs", help='start empty over e.g. "A B C"')
    lint.add_argument("--fds", help="FD set (required unless --query)")
    lint.add_argument(
        "--query",
        action="store_true",
        help="lint a query script (repro query --script syntax) instead "
        "of an op script",
    )
    lint.add_argument(
        "--rel",
        action="append",
        metavar='NAME="A B C"',
        help="catalog relation for --query lint (repeatable)",
    )
    lint.add_argument(
        "--script",
        default="-",
        help="operation script path, or - for stdin (the default)",
    )
    lint.add_argument("--domain", action="append", metavar="ATTR=v1,v2")
    lint.add_argument(
        "--db",
        action="store_true",
        help="lint with repro db ingest semantics (checkpoint is legal)",
    )
    lint.set_defaults(func=_cmd_lint)

    query = commands.add_parser(
        "query",
        help="relational-algebra queries with certain/maybe answer sets",
    )
    query.add_argument(
        "--db",
        help="durable database directory (queries the maintained fixpoints)",
    )
    query.add_argument(
        "--csv",
        action="append",
        metavar="NAME=PATH",
        help="ad-hoc relation loaded from CSV (repeatable)",
    )
    query.add_argument(
        "--domain",
        action="append",
        metavar="ATTR=v1,v2",
        help="finite domain for CSV columns (repeatable)",
    )
    query.add_argument(
        "-e",
        "--expr",
        help="evaluate one query expression and exit",
    )
    query.add_argument(
        "--script",
        help="run query statements from a file, or - for stdin",
    )
    query.add_argument(
        "--repl",
        action="store_true",
        help="interactive shell (the default on a terminal)",
    )
    query.add_argument(
        "--mode",
        choices=("least", "kleene"),
        default="least",
        help="condition evaluation: exact least-extension grounding "
        "(default) or linear Kleene",
    )
    query.add_argument(
        "--explain",
        action="store_true",
        help="with -e: print the plan (the tree as written, with inferred "
        "keys, join strategies and bounds) instead of evaluating",
    )
    query.set_defaults(func=_cmd_query)

    db = commands.add_parser(
        "db", help="durable multi-relation databases (write-ahead op log)"
    )
    db_commands = db.add_subparsers(dest="db_command", required=True)

    def _db_parser(name: str, help_text: str, with_name: bool = False):
        sub = db_commands.add_parser(name, help=help_text)
        sub.add_argument("path", help="database directory")
        sub.add_argument(
            "--sync",
            choices=list(SYNC_MODES),
            default=SYNC_FSYNC,
            help="append durability: fsync (default), flush, or none",
        )
        if with_name:
            sub.add_argument("--name", required=True, help="relation name")
        return sub

    db_init = _db_parser("init", "create a relation in a database", with_name=True)
    db_init.add_argument("--attrs", required=True, help='e.g. "A B C"')
    db_init.add_argument("--fds", default="", help='e.g. "A -> B; B -> C"')
    db_init.add_argument("--domain", action="append", metavar="ATTR=v1,v2")
    db_init.set_defaults(func=_cmd_db_init)

    db_ingest = _db_parser(
        "ingest", "journal ops into a relation (CSV rows and/or an op script)",
        with_name=True,
    )
    db_ingest.add_argument("--data", help="CSV file whose rows are inserted")
    db_ingest.add_argument(
        "--script", help="op script path, or - for stdin (same grammar as session)"
    )
    db_ingest.add_argument("--domain", action="append", metavar="ATTR=v1,v2")
    db_ingest.add_argument(
        "--stats", action="store_true",
        help="print op-outcome + durability counters before the final instance",
    )
    db_ingest.set_defaults(func=_cmd_db_ingest)

    db_check = _db_parser(
        "check", "TEST-FDs against a maintained relation", with_name=True
    )
    db_check.add_argument(
        "--convention",
        choices=[CONVENTION_WEAK, CONVENTION_STRONG],
        default=CONVENTION_WEAK,
    )
    db_check.add_argument("--method", choices=TESTFD_METHODS, default="auto")
    db_check.set_defaults(func=_cmd_db_check)

    db_checkpoint = _db_parser(
        "checkpoint", "snapshot rows + null identity; truncate the op log"
    )
    db_checkpoint.add_argument("--name", help="one relation (default: all)")
    db_checkpoint.set_defaults(func=_cmd_db_checkpoint)

    db_recover = _db_parser(
        "recover", "replay the log tail and verify every recovered fixpoint"
    )
    db_recover.set_defaults(func=_cmd_db_recover)

    db_stats = _db_parser("stats", "row/op/WAL counters per relation")
    db_stats.add_argument("--name", help="one relation (default: all)")
    db_stats.set_defaults(func=_cmd_db_stats)

    serve = commands.add_parser(
        "serve",
        help="serve a database to concurrent clients (group-commit WAL, "
        "snapshot-isolated reads)",
    )
    serve.add_argument("path", help="database directory (must exist: repro db init)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7407, help="TCP port (0 picks a free one)"
    )
    serve.add_argument(
        "--sync",
        choices=list(SYNC_MODES),
        default=SYNC_FSYNC,
        help="batch durability: fsync (default), flush, or none",
    )
    serve.add_argument(
        "--window-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="group-commit latch window: wait this long for more of a "
        "burst before syncing (default 0: one event-loop sweep)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=512,
        metavar="N",
        help="max op records per WAL batch append (default 512)",
    )
    serve.add_argument(
        "--checkpoint-wal-ops",
        type=int,
        metavar="N",
        help="auto-checkpoint a relation once its WAL tail holds N ops",
    )
    serve.add_argument(
        "--checkpoint-interval",
        type=float,
        metavar="SECONDS",
        help="auto-checkpoint on this wall-clock cadence while ops arrive",
    )
    serve.set_defaults(func=_cmd_serve)

    keys = commands.add_parser("keys", help="candidate keys")
    keys.add_argument("--attrs", required=True, help='e.g. "A B C"')
    keys.add_argument("--fds", default="")
    keys.set_defaults(func=_cmd_keys)

    closure = commands.add_parser("closure", help="attribute closure")
    closure.add_argument("--attrs", required=True)
    closure.add_argument("--fds", default="")
    closure.add_argument("--of", required=True, help="seed attributes")
    closure.set_defaults(func=_cmd_closure)

    normalize = commands.add_parser("normalize", help="BCNF / 3NF design")
    normalize.add_argument("--attrs", required=True)
    normalize.add_argument("--fds", default="")
    normalize.add_argument(
        "--method", choices=["bcnf", "3nf"], default="bcnf"
    )
    normalize.set_defaults(func=_cmd_normalize)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
