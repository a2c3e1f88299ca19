"""Static analysis of op scripts and server batches — lint by dry run.

The checker takes an op script (the ``repro session`` / ``repro db
ingest`` vocabulary — :func:`repro.cli.run_script`) or a server mutation
batch (:mod:`repro.server.protocol` request objects) and reports every
op that is wrong — not just the first, the way execution would.  It
finds them by running the ops on a real
:class:`~repro.chase.session.ChaseSession` and undoing them: a script
runs on a session seeded from its ``rows``, a batch on the session it
will meet (the server hands in its writer's live session).  There is no
abstract instance, so lint and execution raise from the same code.

Scripts and batches share one loop.  A script line is parsed by the
parser execution uses (:func:`repro.opschema.parse_op`), a request
decoded by the decoder the server uses
(:func:`repro.db.log.decode_request`: recovery's
:func:`~repro.db.log.decode_op` plus two wire-only refusals), and the
op record applied by the executor they all use
(:func:`repro.opschema.apply_op`).  While the loop runs, the session's
op-record hook — where a durable relation journals — is a probe that
refuses a value the journal cannot encode or a constant outside its
attribute's declared domain.  A wrong op reports its first finding, in
the session's order (index bounds, then attributes and arity, then
cells and domain), and is skipped, as the writer skips it.  When the
loop ends the session is rolled back to where it started, its snapshot
stack put back and its hook restored; its op counters, and its cut when
the undo was a pure trail pop, read as before
(:meth:`~repro.chase.session.ChaseSession.dry_run`).

Admissibility is the session's own verdict: an op after which
:attr:`~repro.chase.session.ChaseSession.has_nothing` turns true is
flagged ``E_FD_CONFLICT``, naming an Armstrong witness when a pairwise
one exists.  That verdict is Theorem 4(b) over unbounded domains; a
declared finite domain is not consulted, so an instance with no
completion inside its declared domains can still lint clean.  The
finding is a warning: execution does not raise (the state poisons, and
a later ``rollback`` may be the script's whole point).  A ``check`` on a
poisoned instance raises from TEST-FDs, as at runtime, and is an error.

The guarantees ``tests/analysis`` pins: a script with **no
error-severity diagnostics** executes without raising, and a script
that raises fails at the line and with the code of lint's first error.
Warnings do not block execution; the lint CLI exits 0 on clean, 1 on
warnings only, 2 on errors.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..armstrong import attribute_closure
from ..chase.session import ChaseSession
from ..core.codec import ValueCodec
from ..core.fd import FD, FDInput
from ..core.schema import RelationSchema
from ..core.values import Null, is_constant
from ..db.log import decode_request, encode_op
from ..errors import OpError, ReproError
from ..opschema import MUTATION_VERBS, apply_op, parse_op, require_durable
from .diagnostics import Diagnostic, classify_cause

#: one op for the lint loop: its position, its text as reported, and a
#: thunk that parses or decodes it into an op record
_Op = Tuple[int, str, Callable[[], Tuple[Any, ...]]]


def _written(
    schema: RelationSchema, record: Tuple[Any, ...]
) -> Iterable[Tuple[str, Any]]:
    """The ``(attribute, value)`` cells a mutation record writes."""
    op = record[0]
    if op == "insert":
        return zip(schema.attributes, record[1])
    if op == "replace":
        return zip(schema.attributes, record[2])
    if op == "update":
        return record[2].items()
    if op == "fill":
        return [(record[2], record[3])]
    if op == "reset":
        return chain.from_iterable(
            zip(schema.attributes, values) for values in record[1]
        )
    return ()


def _probe(schema: RelationSchema) -> Callable[[Tuple[Any, ...]], None]:
    """The dry run's op-record hook.

    The session calls it where a durable relation journals: after the
    op's own checks, before any change.  The record must encode as the
    journal would encode it (a :class:`~repro.errors.CodecError`
    otherwise), and a constant must lie in its attribute's declared
    domain.
    """
    codec = ValueCodec()

    def probe(record: Tuple[Any, ...]) -> None:
        encode_op(0, record, codec)
        for attr, value in _written(schema, record):
            if is_constant(value) and value not in schema.domain(attr):
                raise OpError(
                    "E_DOMAIN",
                    f"{value!r} is not in the declared domain of {attr}",
                    hint=f"domain({attr}) = {list(schema.domain(attr))!r}",
                )

    return probe


def _witness(
    schema: RelationSchema, fds: Sequence[FD], rows: Sequence[Sequence[Any]]
) -> Optional[str]:
    """An Armstrong-implication explanation of a poisoning, when a
    pairwise one exists: two rows equal on some FD's left-hand side
    whose closure forces distinct constants equal."""
    for fd in fds:
        lhs_positions = [schema.position(a) for a in fd.lhs]
        closure = attribute_closure(fd.lhs, fds)
        # scheme order, not the closure set's: the witness text must
        # not depend on string hashing
        forced = [a for a in schema.attributes if a in closure and a not in fd.lhs]
        if not forced:
            continue
        for i, first in enumerate(rows):
            for j in range(i + 1, len(rows)):
                second = rows[j]
                if not all(
                    is_constant(first[p]) and first[p] == second[p]
                    for p in lhs_positions
                ):
                    continue
                for attr in forced:
                    p = schema.position(attr)
                    a, b = first[p], second[p]
                    if is_constant(a) and is_constant(b) and a != b:
                        return (
                            f"rows {i} and {j} agree on {' '.join(fd.lhs)} "
                            f"but the FD set forces {attr} equal "
                            f"({a!r} vs {b!r}, via {fd!r})"
                        )
    return None


def _lint(
    session: ChaseSession, ops: Iterable[_Op], durable: bool
) -> List[Diagnostic]:
    """The one loop: each op is read into a record and dry-run on
    ``session``, which is then rolled back to where it started, its
    snapshot stack included
    (:meth:`~repro.chase.session.ChaseSession.dry_run`)."""
    schema = session.schema
    diagnostics: List[Diagnostic] = []
    hook = session.on_op
    session.on_op = _probe(schema)
    try:
        with session.dry_run():
            poisoned = session.has_nothing
            for line, text, read in ops:
                try:
                    record = read()
                    if record[0] in MUTATION_VERBS:
                        apply_op(session, record)
                    elif record[0] == "check":
                        session.check(convention=record[1])
                    elif record[0] == "checkpoint":
                        require_durable(durable)
                        if session.snapshots:
                            raise OpError(
                                "E_CHECKPOINT_HELD",
                                f"checkpoint with {len(session.snapshots)} "
                                "outstanding snapshot(s); roll back (or discard) "
                                "first",
                            )
                except ReproError as error:
                    code = classify_cause(error)
                    hint = getattr(error, "hint", "")
                    if not hint and code == "E_UNKNOWN_ATTR":
                        hint = f"scheme attributes: {' '.join(schema.attributes)}"
                    diagnostics.append(
                        Diagnostic(
                            code=code, line=line, op=text, message=str(error), hint=hint
                        )
                    )
                    continue
                was_poisoned, poisoned = poisoned, session.has_nothing
                if poisoned and not was_poisoned:
                    rows = [row.values for row in session.rows]
                    diagnostics.append(
                        Diagnostic(
                            code="E_FD_CONFLICT",
                            line=line,
                            op=text,
                            message=_witness(schema, session.fds, rows)
                            or "the chase of the instance after this op derives "
                            "NOTHING (weak satisfiability provably fails)",
                            hint="the op executes but poisons the state; rollback "
                            "or rewrite it",
                            severity="warning",
                        )
                    )
    finally:
        session.on_op = hook
    return diagnostics


def lint_script(
    schema: RelationSchema,
    fds: Iterable[FDInput],
    lines: Iterable[str],
    rows: Optional[Iterable[Sequence[Any]]] = None,
    durable: bool = False,
) -> List[Diagnostic]:
    """Analyze a whole op script; return every finding, in line order.

    ``rows`` seeds the session the script is dry-run on (the CSV a
    session would open with); ``durable`` switches to ``repro db
    ingest`` semantics (the ``checkpoint`` op becomes legal).
    """
    ops: List[_Op] = []
    for lineno, raw_line in enumerate(lines, start=1):
        text = raw_line.split("#", 1)[0].strip()
        if text:
            ops.append((lineno, text, partial(parse_op, text)))
    return _lint(ChaseSession(schema, fds, rows or ()), ops, durable)


def has_errors(diagnostics: Iterable[Diagnostic]) -> bool:
    return any(d.severity == "error" for d in diagnostics)


def _summarize_request(request: Any) -> str:
    if not isinstance(request, dict):
        return repr(request)[:80]
    verb = request.get("do", "?")
    keys = [k for k in sorted(request) if k not in ("do", "id", "rel")]
    return f"{verb}({', '.join(keys)})" if keys else str(verb)


def _decode_batch_op(request: Any, cell: Callable[[Any], Any]) -> Tuple[Any, ...]:
    if not isinstance(request, dict):
        raise OpError(
            "E_BAD_REQUEST", "each batch op must be a JSON object with a 'do' verb"
        )
    return decode_request(request.get("do"), request, cell)


def lint_requests(
    schema: RelationSchema,
    fds: Iterable[FDInput],
    requests: Sequence[Any],
    target: Optional[ChaseSession] = None,
    known_null: Optional[Callable[[str], bool]] = None,
    decode: Optional[Callable[[Any], Any]] = None,
) -> List[Diagnostic]:
    """Dry-run a server mutation batch; return every finding.

    Indexes are 0-based request positions (the ``line`` field of each
    diagnostic).  ``target`` is the session the batch will meet, handed
    back as it was found, its snapshot stack included: the server passes
    its writer's live session (:func:`repro.server.protocol.lint_batch`).
    Without one the batch runs on an empty session over ``schema`` and
    ``fds``.
    ``known_null`` is the relation's codec-scope membership test (the
    server's decoding is lenient — an unknown id silently materializes a
    fresh null — so an unknown id is flagged here), and ``decode`` its
    cell decoder, so a named null resolves to the relation's own null.
    Without one, names resolve in a scope of their own.
    """
    known: Callable[[str], bool] = known_null or (lambda name: True)
    decode_value: Callable[[Any], Any] = decode or ValueCodec().decode

    def cell(token: Any) -> Any:
        if isinstance(token, dict) and "n" in token:
            name = token["n"]
            if name is None:  # mint-a-fresh-null extension
                # labels are process-unique display names (null()); a
                # throwaway lint null must not consume one
                return Null("lint")
            if isinstance(name, str) and not known(name):
                raise OpError(
                    "E_UNKNOWN_NULL",
                    f"null id {name!r} was never minted by this relation",
                    hint='send {"n": null} to mint a fresh null',
                )
        return decode_value(token)

    ops: List[_Op] = [
        (index, _summarize_request(request), partial(_decode_batch_op, request, cell))
        for index, request in enumerate(requests)
    ]
    if target is None:
        target = ChaseSession(schema, fds)
    return _lint(target, ops, durable=True)



# ---------------------------------------------------------------------------
# query scripts and the query verb
# ---------------------------------------------------------------------------

_QUERY_MODES = ("least", "kleene")


def _query_diag(code, line, op, message, hint=""):
    return Diagnostic(code=code, line=line, op=op, message=message, hint=hint)


def lint_query_script(
    catalog: Mapping[str, RelationSchema],
    lines: Iterable[str],
    stats: Optional[Mapping[str, Any]] = None,
    fds: Optional[Mapping[str, Any]] = None,
    mode: str = "least",
) -> List[Diagnostic]:
    """Statically check a ``repro query`` script against a catalog.

    One diagnostic per failing statement, pinned to its 1-based line
    number: parse failures as ``E_BAD_REQUEST``, scans of relations the
    catalog lacks as ``E_UNKNOWN_RELATION``, attribute/scheme mistakes
    as ``E_UNKNOWN_ATTR`` / ``E_ARITY`` (the same
    :func:`repro.query.algebra.output_schema` checker the evaluator and
    the server run, so lint verdicts match execution exactly).
    Bindings accumulate like the REPL's; a statement that failed does
    not bind, and later uses of its name surface as unknown relations.

    Statements that pass the schema check are then plan-linted
    (:func:`repro.analysis.plan.lint_query_plan`): cross products, dead
    union arms, statically unsatisfiable subtrees, and — when ``stats``
    carries instance statistics — grounding blow-ups, all pinned to the
    same line numbers.
    """
    from ..query.algebra import QueryError, output_schema
    from ..query.parser import QueryParseError, parse_statement
    from .plan import lint_query_plan

    diagnostics: List[Diagnostic] = []
    bindings: Dict[str, Any] = {}
    for lineno, raw_line in enumerate(lines, start=1):
        op_text = raw_line.strip()
        try:
            statement = parse_statement(raw_line, bindings)
        except QueryParseError as error:
            diagnostics.append(
                _query_diag(
                    "E_BAD_REQUEST", lineno, op_text, str(error),
                    hint="syntax: scan | where | [attrs] | rename | join "
                    "| union | minus",
                )
            )
            continue
        if statement.kind == "blank":
            continue
        assert statement.node is not None
        try:
            output_schema(statement.node, catalog)
        except QueryError as error:
            hint = ""
            if error.code == "E_UNKNOWN_RELATION" and bindings:
                # the message lists catalog relations; bound names are
                # also scannable here, so surface them too
                hint = f"bound here: {', '.join(sorted(bindings))}"
            diagnostics.append(
                _query_diag(error.code, lineno, op_text, str(error), hint)
            )
            continue
        diagnostics.extend(
            lint_query_plan(
                catalog,
                statement.node,
                stats=stats,
                fds=fds,
                mode=mode,
                line=lineno,
                op=op_text,
            )
        )
        if statement.kind == "bind":
            assert statement.name is not None
            bindings[statement.name] = statement.node
    return diagnostics


def lint_query_request(
    catalog: Mapping[str, RelationSchema],
    request: Any,
    line: int = 0,
    stats: Optional[Mapping[str, Any]] = None,
    fds: Optional[Mapping[str, Any]] = None,
) -> List[Diagnostic]:
    """Statically check one wire ``query`` request (no evaluation).

    The serving layer runs this as its admission gate, exactly like the
    batch pre-pass: a request with any error-severity finding is refused
    before a single relation is leased.  ``line`` is the request index
    in the server's refusal payload convention (0-based).

    With ``stats`` (relation name →
    :class:`~repro.query.optimize.RelationStats`) the plan linter also
    runs, so a grounding blow-up in least mode — a certain runtime
    :class:`~repro.errors.DomainError` — refuses the request up front;
    warning-grade plan findings ride back in the success payload.
    """
    from ..query.algebra import QueryError, output_schema
    from ..query.parser import QueryParseError, parse_query
    from .plan import lint_query_plan

    summary = _summarize_request(request)
    if not isinstance(request, dict):
        return [
            _query_diag(
                "E_BAD_REQUEST", line, summary, "request must be an object"
            )
        ]
    text = request.get("q")
    if not isinstance(text, str) or not text.strip():
        return [
            _query_diag(
                "E_BAD_REQUEST", line, summary,
                "'query' needs 'q' (a non-empty query string)",
            )
        ]
    diagnostics: List[Diagnostic] = []
    mode = request.get("mode", "least")
    if mode not in _QUERY_MODES:
        diagnostics.append(
            _query_diag(
                "E_BAD_REQUEST", line, summary,
                f"unknown evaluation mode {mode!r}",
                hint=f"modes: {', '.join(_QUERY_MODES)}",
            )
        )
    try:
        node = parse_query(text)
    except QueryParseError as error:
        diagnostics.append(
            _query_diag("E_BAD_REQUEST", line, summary, str(error))
        )
        return diagnostics
    try:
        output_schema(node, catalog)
    except QueryError as error:
        diagnostics.append(
            _query_diag(error.code, line, summary, str(error))
        )
        return diagnostics
    lint_mode = mode if mode in _QUERY_MODES else "least"
    diagnostics.extend(
        lint_query_plan(
            catalog,
            node,
            stats=stats,
            fds=fds,
            mode=lint_mode,
            line=line,
            op=summary,
        )
    )
    return diagnostics
