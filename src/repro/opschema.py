"""The one op vocabulary every surface shares, and its one executor.

Each op is **one** :class:`OpSpec` row in :data:`OPS`; the per-surface
tuples the rest of the system consumes (:data:`SCRIPT_OPS`,
:data:`MUTATION_VERBS`, :data:`READ_VERBS`, :data:`BATCH_VERBS`) are
*derived* from it, so lint, CLI, and server pick a new op up together.

Every surface speaks ops as the records
:attr:`repro.chase.session.ChaseSession.on_op` emits —
``("insert", values)``, ``("delete", index)``, ``("update", index,
changes)``, ``("replace", index, values)``, ``("fill", index, attr,
value)``, ``("reset", rows)`` and the bare ``("adopt",)``,
``("snapshot",)``, ``("rollback",)``, ``("discard",)``.  Each syntax is
parsed once into them: a script line by :func:`parse_op` (which also
yields the script's read records, ``("check", convention)``,
``("checkpoint",)``, ``("stats",)``, ``("show",)``, ``("explain",)``), a
log payload by :func:`repro.db.log.decode_op` and a wire request by
:func:`repro.db.log.decode_request` (the same layout, refusing two
records the log may hold but a client should not send).  One
executor, :func:`apply_op`, then applies a mutation record to any target
with the session's mutator names and a depth-returning snapshot stack:
a :class:`repro.db.ManagedRelation`, or a bare session behind
:class:`SessionTarget` (what a script, recovery and the linter's dry run
drive).

The module depends only on the leaf modules :mod:`repro.core.values` and
:mod:`repro.errors`: the analysis layer imports it without touching the
server, and the server without touching the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from .core.values import null
from .errors import OpError

#: script/CSV cell spellings that read as "a fresh null"
NULL_TOKENS: Tuple[str, ...] = ("", "-", "NULL", "null")


@dataclass(frozen=True)
class OpSpec:
    """One operation, described once for every surface.

    ``kind`` is ``"mutation"`` (journalled, goes through a writer),
    ``"read"`` (answered from a consistent cut), or ``"admin"``
    (catalog/durability control).  ``script`` / ``wire`` say which
    surfaces expose it; ``scope`` is ``"relation"`` for ops addressed to
    one relation and ``"database"`` for ops that may span several (the
    ``query`` verb joins across relations).  ``script_rank`` /
    ``wire_rank`` order the derived tuples (the orders predate this
    module and are kept stable for rendered hints and docs).
    """

    name: str
    kind: str
    script: bool
    wire: bool
    scope: str = "relation"
    durable_only: bool = False
    script_rank: int = 0
    wire_rank: int = 0
    summary: str = ""


OPS: Tuple[OpSpec, ...] = (
    OpSpec("insert", "mutation", True, True, script_rank=0, wire_rank=0,
           summary="append one row"),
    OpSpec("delete", "mutation", True, True, script_rank=1, wire_rank=1,
           summary="remove the row at an index"),
    OpSpec("update", "mutation", True, True, script_rank=2, wire_rank=2,
           summary="assign attributes on the row at an index"),
    OpSpec("replace", "mutation", True, True, script_rank=3, wire_rank=3,
           summary="swap the whole tuple at an index"),
    OpSpec("fill", "mutation", True, True, script_rank=4, wire_rank=4,
           summary="ground a null cell with a value"),
    OpSpec("reset", "mutation", False, True, wire_rank=5,
           summary="replace the instance wholesale"),
    OpSpec("adopt", "mutation", True, True, script_rank=5, wire_rank=6,
           summary="commit forced substitutions into the rows"),
    OpSpec("snapshot", "mutation", True, True, script_rank=6, wire_rank=7,
           summary="push a rollback mark"),
    OpSpec("rollback", "mutation", True, True, script_rank=7, wire_rank=8,
           summary="pop + restore the latest mark"),
    OpSpec("discard", "mutation", False, True, wire_rank=9,
           summary="drop all outstanding marks"),
    OpSpec("checkpoint", "admin", True, True, durable_only=True,
           script_rank=8,
           summary="absorb the WAL tail into the snapshot"),
    OpSpec("rows", "read", False, True, wire_rank=0,
           summary="the raw rows at the cut"),
    OpSpec("result", "read", False, True, wire_rank=1,
           summary="the maintained fixpoint at the cut"),
    OpSpec("check", "read", True, True, script_rank=9, wire_rank=2,
           summary="TEST-FDs against the maintained instance"),
    OpSpec("has_nothing", "read", False, True, wire_rank=3,
           summary="Theorem 4(b) weak-satisfiability verdict"),
    OpSpec("explain", "read", True, True, script_rank=12, wire_rank=4,
           summary="narrate the maintained chase"),
    OpSpec("stats", "read", True, True, script_rank=10, wire_rank=5,
           summary="op-outcome and durability counters"),
    OpSpec("show", "read", True, False, script_rank=11,
           summary="print the maintained instance"),
    OpSpec("query", "read", False, True, scope="database",
           wire_rank=6,
           summary="relational-algebra query with certain/maybe answers; "
           "plan-linted before any lease, "
           "`explain: true` returns the plan instead"),
)

SPECS: Dict[str, OpSpec] = {spec.name: spec for spec in OPS}


def _ordered(names, key):
    return tuple(sorted(names, key=key))


#: the session/db op-script vocabulary (``repro session`` / ``repro db
#: ingest`` / ``repro lint``), in documentation order.
SCRIPT_OPS: Tuple[str, ...] = _ordered(
    (s.name for s in OPS if s.script), lambda n: SPECS[n].script_rank
)

#: wire verbs routed through a relation's writer (journalled mutations).
MUTATION_VERBS: Tuple[str, ...] = _ordered(
    (s.name for s in OPS if s.wire and s.kind == "mutation"),
    lambda n: SPECS[n].wire_rank,
)

#: wire verbs answered from a single relation's consistent-cut lease.
READ_VERBS: Tuple[str, ...] = _ordered(
    (s.name for s in OPS
     if s.wire and s.kind == "read" and s.scope == "relation"),
    lambda n: SPECS[n].wire_rank,
)

#: the database-scoped read verb (may lease several relations at once).
QUERY_VERB: str = "query"

#: verbs admissible inside a server ``batch`` bundle — exactly the
#: journalled mutations (reads and admin verbs cannot ride in a batch).
BATCH_VERBS: Tuple[str, ...] = MUTATION_VERBS

#: the TEST-FDs conventions a script ``check`` may name
CONVENTIONS: Tuple[str, ...] = ("weak", "strong")


# ---------------------------------------------------------------------------
# the script syntax
# ---------------------------------------------------------------------------


def parse_cell(text: str) -> Any:
    """One CSV/script cell: a null token reads as a fresh null, anything
    else as the (stripped) string constant."""
    text = text.strip()
    return null() if text in NULL_TOKENS else text


def parse_cells(text: str) -> Tuple[Any, ...]:
    return tuple(parse_cell(cell) for cell in text.split(","))


def _parse_index(text: str, op: str) -> int:
    text = text.strip()
    if not text:
        raise OpError(
            "E_MISSING_ARG", "row index is missing", hint=f"write: {op} <index> ..."
        )
    try:
        return int(text)
    except ValueError:
        raise OpError(
            "E_BAD_INT", f"row index {text!r} is not an integer"
        ) from None


def parse_op(text: str) -> Tuple[Any, ...]:
    """One script op (comment stripped, not blank) as an op record.

    Raises :class:`~repro.errors.OpError` for a line that names no op or
    whose arguments do not parse; the checks that need the instance
    (index bounds, attributes, arity) are the target's.
    """
    op, _, rest = text.partition(" ")
    rest = rest.strip()
    if op not in SCRIPT_OPS:
        raise OpError(
            "E_UNKNOWN_OP",
            f"unknown session op {op!r}",
            hint=f"ops: {', '.join(SCRIPT_OPS)}",
        )
    if op == "insert":
        return (op, parse_cells(rest))
    if op == "delete":
        return (op, _parse_index(rest, op))
    if op == "update":
        index_text, _, assigns = rest.partition(" ")
        index = _parse_index(index_text, op)
        changes: Dict[str, Any] = {}
        for assign in assigns.split(","):
            attr, sep, value = assign.partition("=")
            if not sep:
                raise OpError(
                    "E_BAD_ASSIGN",
                    f"bad assignment {assign.strip()!r}",
                    hint="write: update <index> ATTR=value, ATTR=value",
                )
            changes[attr.strip()] = parse_cell(value)
        return (op, index, changes)
    if op == "replace":
        index_text, _, cells = rest.partition(" ")
        return (op, _parse_index(index_text, op), parse_cells(cells))
    if op == "fill":
        parts = rest.split(None, 2)
        if len(parts) < 3:
            raise OpError("E_MISSING_ARG", "fill needs: fill <index> <attr> <value>")
        index_text, attr, value = parts
        return (op, _parse_index(index_text, op), attr, value)
    if op == "check":
        convention = rest or CONVENTIONS[0]
        if convention not in CONVENTIONS:
            raise OpError(
                "E_CONVENTION",
                f"unknown convention {convention!r}",
                hint=f"conventions: {', '.join(CONVENTIONS)}",
            )
        return (op, convention)
    return (op,)


# ---------------------------------------------------------------------------
# the one executor
# ---------------------------------------------------------------------------


def apply_op(target: Any, record: Tuple[Any, ...]) -> Dict[str, Any]:
    """Apply one mutation record to ``target``; return the ack fields.

    ``target`` has the session's mutator names plus a depth-returning
    snapshot stack (``snapshot()`` / ``rollback()`` return depths,
    ``discard_snapshots()`` a count).  The fields are what the op
    reports beyond its ``seq``: ``index`` for an insert, ``rows`` after
    a reset, ``committed`` for an adopt, ``depth`` for a snapshot or
    rollback, ``discarded`` for a discard.  The record comes from
    :func:`parse_op` or :func:`repro.db.log.decode_op`, which refuse an
    unknown verb.
    """
    op = record[0]
    if op == "insert":
        return {"index": target.insert(record[1])}
    elif op == "delete":
        target.delete(record[1])
    elif op == "update":
        target.update(record[1], record[2])
    elif op == "replace":
        target.replace(record[1], record[2])
    elif op == "fill":
        target.fill(record[1], record[2], record[3])
    elif op == "reset":
        target.reset(record[1])
        return {"rows": len(target)}
    elif op == "adopt":
        return {"committed": len(target.adopt())}
    elif op == "snapshot":
        return {"depth": target.snapshot()}
    elif op == "rollback":
        return {"depth": target.rollback()}
    elif op == "discard":
        return {"discarded": target.discard_snapshots()}
    return {}


def require_durable(durable: bool) -> None:
    """A script's ``checkpoint`` needs a durable relation to absorb
    its log into; execution and lint both ask here."""
    if not durable:
        raise OpError(
            "E_CHECKPOINT_SCOPE",
            "checkpoint is a durable-database op; use repro db",
        )


class SessionTarget:
    """A bare :class:`~repro.chase.session.ChaseSession` as an
    :func:`apply_op` target.

    The session's own ``snapshot()`` hands out tokens; this adapter keeps
    them on a stack (``snapshots``, a fresh list unless the caller hands
    one in) with the depth-returning contract a
    :class:`repro.db.ManagedRelation` journals.  Everything else is the
    session's.
    """

    def __init__(
        self, session: Any, snapshots: Optional[List[Any]] = None
    ) -> None:
        self.session = session
        self.snapshots: List[Any] = [] if snapshots is None else snapshots

    def __getattr__(self, name: str) -> Any:
        return getattr(self.session, name)

    def __len__(self) -> int:
        return len(self.session)

    @property
    def has_nothing(self) -> bool:
        return self.session.has_nothing

    def snapshot(self) -> int:
        self.snapshots.append(self.session.snapshot())
        return len(self.snapshots)

    def rollback(self) -> int:
        if not self.snapshots:
            raise OpError(
                "E_ROLLBACK_UNDERFLOW",
                "rollback without a snapshot",
                hint="every rollback needs an earlier unmatched snapshot",
            )
        self.session.rollback(self.snapshots.pop())
        return len(self.snapshots) + 1

    def discard_snapshots(self) -> int:
        discarded = len(self.snapshots)
        self.snapshots.clear()
        return discarded
