"""Static analysis of op scripts and server batches — lint before run.

The checker runs an op script (the ``repro session`` / ``repro db
ingest`` vocabulary — :func:`repro.cli.run_script`) or a server mutation
batch (:mod:`repro.server.protocol` request objects) over an *abstract*
instance instead of a live session, and reports every op that is wrong —
not just the first, the way execution would.  Scripts and batches share
one interpreter: a script line is parsed by the parser execution uses
(:func:`repro.opschema.parse_op`), a request decoded by the decoder the
server uses (:func:`repro.db.log.decode_request`: recovery's
:func:`~repro.db.log.decode_op` plus two wire-only refusals), and the
resulting op record is applied by the executor they all use
(:func:`repro.opschema.apply_op`) — only the target differs.  The target
is :class:`_LintState`, whose mutators raise a coded
:class:`~repro.errors.OpError` wherever the session would raise.  A
wrong op reports its first finding, in the session's order (index
bounds, then attributes and cells, then arity and domain), and is
skipped, so later findings stay meaningful.

A cell of the abstract instance is the value the session would hold
there — a constant, a null object (shared nulls stay shared), NOTHING —
or ``_TOP``, statically unknown.  Only ``adopt`` produces tops: adoption
commits whatever substitutions the chase *forced*, and which nulls those
are is a property of the fixpoint, not the op text.

While no cell is ``_TOP`` the abstract rows *are* the raw rows the real
run would hold, so structural checks (arity, attributes, indexes,
snapshot depth, fill targets) are exact, and admissibility is decided by
the oracle the paper provides: the chase of the abstract instance.  An
op whose post-state chase derives NOTHING is *provably inadmissible* and
is flagged ``E_FD_CONFLICT`` (a warning: execution does not raise — the
state poisons, and a later ``rollback`` may be the script's whole
point).  A ``check`` op on a provably poisoned instance is an *error*:
TEST-FDs refuses NOTHING-bearing instances at runtime.  When an
``E_FD_CONFLICT`` fires, the message names an Armstrong witness when a
pairwise one exists — the FD whose left-hand side two rows provably
share and the right-hand attribute where their constants differ.

The guarantees ``tests/analysis`` pins: a script with **no
error-severity diagnostics** executes without raising, and a script
that raises fails at the line and with the code of lint's first error —
unless that error is ``E_FILL_UNPROVEN``, a fill past an ``adopt`` that
may run or fail.  Warnings do not block execution; the lint CLI exits 0
on clean, 1 on warnings only, 2 on errors.
"""

from __future__ import annotations

from functools import partial
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
from ..core.codec import ValueCodec
from ..core.fd import FDInput, as_fd
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.values import Null, is_constant, is_null
from ..db.log import decode_request
from ..errors import CodecError, OpError
from ..opschema import MUTATION_VERBS, apply_op, parse_op, require_durable
from .diagnostics import Diagnostic, classify_cause

#: a cell whose value is a fixpoint property (a null an adopt committed)
_TOP: Any = object()

#: one op for the lint loop: its position, its text as reported, and a
#: thunk that parses or decodes it into an op record
_Op = Tuple[int, str, Callable[[], Tuple[Any, ...]]]


class _LintState:
    """The abstract instance ops are applied to.

    It has the session's mutator names and a depth-returning snapshot
    stack, so :func:`~repro.opschema.apply_op` drives it exactly as it
    drives a session; a mutator that would fail on the session raises
    the coded :class:`~repro.errors.OpError` instead, before any change.
    """

    def __init__(
        self,
        schema: RelationSchema,
        fds: Iterable[FDInput],
        rows: Iterable[Sequence[Any]] = (),
        snapshot_depth: int = 0,
        durable: bool = False,
    ) -> None:
        self.schema = schema
        self.fds = [as_fd(fd).validate(schema).normalized() for fd in fds]
        self.durable = durable
        self._codec = ValueCodec()
        self.rows: List[List[Any]] = [list(values) for values in rows]
        #: snapshot stack: (rows copy, poisoned flag) per outstanding mark.
        #: Pre-existing snapshots (a served relation may hold some) have no
        #: recorded rows — rolling back to one makes the state opaque.
        self.snapshots: List[Optional[Tuple[List[List[Any]], bool]]] = [
            None
        ] * snapshot_depth
        #: exact == no ``_TOP`` cell anywhere; the chase oracle is sound
        #: only while this holds
        self.exact = True
        #: opaque == even the row *count* is unknown (a rollback restored
        #: a snapshot taken before this checker existed); index bounds and
        #: cell facts are unavailable from here on
        self.opaque = False
        self.poisoned = False
        #: did the last mutation newly poison the instance?
        self.conflict = False
        self._refresh()

    def __len__(self) -> int:
        return len(self.rows)

    # -- the session's checks ----------------------------------------------

    def _index(self, index: int) -> None:
        # opaque: the count is unknown, only negatives are provably bad
        if index < 0 or (not self.opaque and index >= len(self.rows)):
            raise OpError(
                "E_BAD_INDEX",
                f"no row at index {index} at this point ({len(self.rows)} row(s))",
            )

    def _attrs(self, attrs: Iterable[str]) -> None:
        for attr in attrs:
            if attr not in self.schema:
                raise OpError(
                    "E_UNKNOWN_ATTR",
                    f"unknown attribute {attr!r}",
                    hint=f"scheme attributes: {' '.join(self.schema.attributes)}",
                )

    def _cells(self, attrs: Sequence[str], values: Sequence[Any]) -> None:
        """Every value must encode into the op's journal record (a
        :class:`~repro.errors.CodecError` otherwise), a row must fit the
        scheme, and a constant its attribute's declared domain."""
        for value in values:
            self._codec.encode(value)
        if len(values) != len(attrs):
            raise OpError(
                "E_ARITY",
                f"row has {len(values)} cell(s); scheme {self.schema.name} "
                f"has {len(self.schema)} attribute(s)",
            )
        for attr, value in zip(attrs, values):
            if is_constant(value) and value not in self.schema.domain(attr):
                raise OpError(
                    "E_DOMAIN",
                    f"{value!r} is not in the declared domain of {attr}",
                    hint=f"domain({attr}) = {list(self.schema.domain(attr))!r}",
                )

    def _row(self, values: Sequence[Any]) -> List[Any]:
        row = list(values)
        self._cells(self.schema.attributes, row)
        return row

    # -- mutations (each mirrors one session op exactly) -------------------

    def insert(self, values: Sequence[Any]) -> int:
        row = self._row(values)
        if not self.opaque:
            self.rows.append(row)
            self._refresh()
        return len(self.rows) - 1

    def delete(self, index: int) -> None:
        self._index(index)
        if not self.opaque:
            del self.rows[index]
            self._refresh()

    def update(self, index: int, changes: Mapping[str, Any]) -> None:
        self._index(index)
        self._attrs(changes)
        self._cells(list(changes), list(changes.values()))
        if not self.opaque:
            row = list(self.rows[index])
            for attr, value in changes.items():
                row[self.schema.position(attr)] = value
            self.rows[index] = row
            self._refresh()

    def replace(self, index: int, values: Sequence[Any]) -> None:
        self._index(index)
        row = self._row(values)
        if not self.opaque:
            self.rows[index] = row
            self._refresh()

    def fill(self, index: int, attribute: str, value: Any) -> None:
        """Substitute the filled null *everywhere* (a shared null is one
        unknown), exactly as the session does."""
        self._index(index)
        self._attrs([attribute])
        if self.opaque:
            return  # cell facts are unavailable past an opaque rollback
        target = self.rows[index][self.schema.position(attribute)]
        if target is _TOP:
            raise OpError(
                "E_FILL_UNPROVEN",
                f"row {index}.{attribute} is no longer statically known to "
                "be null (an earlier adopt may have committed a constant "
                "there)",
                hint="move the fill before the adopt, or drop it",
            )
        if not is_null(target):
            raise OpError(
                "E_FILL_CONST",
                f"row {index}.{attribute} provably holds the constant "
                f"{target!r}; fill targets nulls",
            )
        self._cells([attribute], [value])
        self.rows = [
            [value if cell is target else cell for cell in row]
            for row in self.rows
        ]
        self._refresh()

    def reset(self, rows: Iterable[Sequence[Any]]) -> None:
        """Replace the instance wholesale — full static visibility again,
        even past an opaque rollback."""
        self.rows = [self._row(values) for values in rows]
        self.opaque = False
        self.exact = True
        self._refresh()

    def adopt(self) -> Dict[Any, Any]:
        """Forced substitutions become data — which ones is a fixpoint
        property, so every surviving null degrades to ``_TOP``."""
        if not self.opaque and any(
            is_null(cell) for row in self.rows for cell in row
        ):
            self.rows = [
                [_TOP if is_null(cell) else cell for cell in row]
                for row in self.rows
            ]
            self.exact = False
        return {}

    def snapshot(self) -> int:
        self.snapshots.append(
            None
            if self.opaque
            else ([list(row) for row in self.rows], self.poisoned)
        )
        return len(self.snapshots)

    def rollback(self) -> int:
        if not self.snapshots:
            raise OpError(
                "E_ROLLBACK_UNDERFLOW",
                "rollback without a snapshot",
                hint="every rollback needs an earlier unmatched snapshot",
            )
        saved = self.snapshots.pop()
        if saved is None:
            # a snapshot taken before this checker existed (or while
            # opaque): its rows were never seen statically
            self.rows = []
            self.exact = False
            self.opaque = True
            self.poisoned = False
        else:
            self.rows = [list(row) for row in saved[0]]
            self.poisoned = saved[1]
            self.opaque = False
            self.exact = not any(cell is _TOP for row in self.rows for cell in row)
        return len(self.snapshots) + 1

    def discard_snapshots(self) -> int:
        discarded = len(self.snapshots)
        self.snapshots.clear()
        return discarded

    # -- the script's read and admin ops -----------------------------------

    def check(self) -> None:
        if self.poisoned:
            raise OpError(
                "E_FD_CONFLICT",
                "check on a provably inconsistent instance (the chase "
                "derives NOTHING here); TEST-FDs refuses it at runtime",
            )

    def checkpoint(self) -> None:
        require_durable(self.durable)
        if self.snapshots:
            raise OpError(
                "E_CHECKPOINT_HELD",
                f"checkpoint with {len(self.snapshots)} outstanding "
                "snapshot(s); roll back (or discard) first",
            )

    # -- the admissibility oracle ------------------------------------------

    def _refresh(self) -> None:
        """Re-decide weak satisfiability of the abstract instance.

        Sound and complete while :attr:`exact`: the abstract rows are the
        raw rows, and Theorem 4(b) says the chase's NOTHING verdict *is*
        the weak-satisfiability verdict.  Inexact states never claim
        poisoning (tops could be anything)."""
        was_poisoned = self.poisoned
        if not self.exact or not self.rows or not self.fds:
            self.poisoned = False
        else:
            from ..chase.engine import chase  # local: analysis ← chase only here

            instance = Relation(self.schema, self.rows)
            self.poisoned = chase(instance, self.fds).has_nothing
        self.conflict = self.poisoned and not was_poisoned

    def conflict_witness(self) -> Optional[str]:
        """An Armstrong-implication explanation of the poisoning, when a
        pairwise one exists: two rows provably equal on some FD's
        left-hand side whose closure forces distinct constants equal."""
        for fd in self.fds:
            lhs_positions = [self.schema.position(a) for a in fd.lhs]
            closure = attribute_closure(fd.lhs, self.fds)
            # scheme order, not the closure set's: the witness text must
            # not depend on string hashing
            forced = [
                a for a in self.schema.attributes if a in closure and a not in fd.lhs
            ]
            if not forced:
                continue
            for i, first in enumerate(self.rows):
                for j in range(i + 1, len(self.rows)):
                    second = self.rows[j]
                    if not all(
                        is_constant(first[p]) and first[p] == second[p]
                        for p in lhs_positions
                    ):
                        continue
                    for attr in forced:
                        p = self.schema.position(attr)
                        a, b = first[p], second[p]
                        if is_constant(a) and is_constant(b) and a != b:
                            return (
                                f"rows {i} and {j} agree on {' '.join(fd.lhs)} "
                                f"but the FD set forces {attr} equal "
                                f"({a!r} vs {b!r}, via {fd!r})"
                            )
        return None


def _lint(state: _LintState, ops: Iterable[_Op]) -> List[Diagnostic]:
    """The one loop: each op is read into a record, applied to the
    abstract instance, and checked for a fresh NOTHING."""
    diagnostics: List[Diagnostic] = []
    for line, text, read in ops:
        state.conflict = False
        try:
            record = read()
            if record[0] in MUTATION_VERBS:
                apply_op(state, record)
            elif record[0] == "check":
                state.check()
            elif record[0] == "checkpoint":
                state.checkpoint()
        except (OpError, CodecError) as error:
            diagnostics.append(
                Diagnostic(
                    code=classify_cause(error),
                    line=line,
                    op=text,
                    message=str(error),
                    hint=getattr(error, "hint", ""),
                )
            )
            continue
        if state.conflict:
            diagnostics.append(
                Diagnostic(
                    code="E_FD_CONFLICT",
                    line=line,
                    op=text,
                    message=state.conflict_witness()
                    or "the chase of the instance after this op derives "
                    "NOTHING (weak satisfiability provably fails)",
                    hint="the op executes but poisons the state; rollback or "
                    "rewrite it",
                    severity="warning",
                )
            )
    return diagnostics


def lint_script(
    schema: RelationSchema,
    fds: Iterable[FDInput],
    lines: Iterable[str],
    rows: Optional[Iterable[Sequence[Any]]] = None,
    durable: bool = False,
) -> List[Diagnostic]:
    """Analyze a whole op script; return every finding, in line order.

    ``rows`` seeds the abstract instance (the CSV a session would open
    with); ``durable`` switches to ``repro db ingest`` semantics (the
    ``checkpoint`` op becomes legal).
    """
    ops: List[_Op] = []
    for lineno, raw_line in enumerate(lines, start=1):
        text = raw_line.split("#", 1)[0].strip()
        if text:
            ops.append((lineno, text, partial(parse_op, text)))
    return _lint(_LintState(schema, fds, rows or (), durable=durable), ops)


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
    rows: Iterable[Sequence[Any]] = (),
    snapshot_depth: int = 0,
    known_null: Optional[Callable[[str], bool]] = None,
    decode: Optional[Callable[[Any], Any]] = None,
) -> List[Diagnostic]:
    """Analyze a server mutation batch against the relation's live state.

    Indexes are 0-based request positions (the ``line`` field of each
    diagnostic).  Bounds use *admission-time* semantics: ``rows`` is the
    relation's current raw rows plus the batch's own net effect so far —
    exact because the writer applies an admitted batch contiguously (it
    is one queue item; no interleaving op can change the count
    mid-batch).  ``snapshot_depth`` is the relation's outstanding
    snapshot count, ``known_null`` its codec-scope membership test (the
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
    return _lint(_LintState(schema, fds, rows, snapshot_depth, durable=True), ops)


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
