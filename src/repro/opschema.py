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
executor, :func:`apply_op`, then applies a mutation record to a
:class:`~repro.chase.session.ChaseSession` — what a script, recovery,
the linter's dry run and the section 7 guard drive — or to a durable
:class:`repro.db.ManagedRelation`, which forwards to its session.  The
snapshot stack is the session's, so every record passes the session's
``on_op`` hook whichever handle applied it.

The module depends only on the leaf modules :mod:`repro.core.values` and
:mod:`repro.errors`: the analysis layer imports it without touching the
server, and the server without touching the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

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
    script_rank: int = 0
    wire_rank: int = 0


OPS: Tuple[OpSpec, ...] = (
    OpSpec("insert", "mutation", True, True, script_rank=0, wire_rank=0),
    OpSpec("delete", "mutation", True, True, script_rank=1, wire_rank=1),
    OpSpec("update", "mutation", True, True, script_rank=2, wire_rank=2),
    OpSpec("replace", "mutation", True, True, script_rank=3, wire_rank=3),
    OpSpec("fill", "mutation", True, True, script_rank=4, wire_rank=4),
    OpSpec("reset", "mutation", False, True, wire_rank=5),
    OpSpec("adopt", "mutation", True, True, script_rank=5, wire_rank=6),
    OpSpec("snapshot", "mutation", True, True, script_rank=6, wire_rank=7),
    OpSpec("rollback", "mutation", True, True, script_rank=7, wire_rank=8),
    OpSpec("discard", "mutation", True, True, script_rank=8, wire_rank=9),
    OpSpec("checkpoint", "admin", True, True, script_rank=9),
    OpSpec("rows", "read", False, True, wire_rank=0),
    OpSpec("result", "read", False, True, wire_rank=1),
    OpSpec("check", "read", True, True, script_rank=10, wire_rank=2),
    OpSpec("has_nothing", "read", False, True, wire_rank=3),
    OpSpec("explain", "read", True, True, script_rank=13, wire_rank=4),
    OpSpec("stats", "read", True, True, script_rank=11, wire_rank=5),
    OpSpec("show", "read", True, False, script_rank=12),
    OpSpec("query", "read", False, True, scope="database", wire_rank=6),
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

#: wire verbs answered from a single relation's state at one cut.
READ_VERBS: Tuple[str, ...] = _ordered(
    (s.name for s in OPS
     if s.wire and s.kind == "read" and s.scope == "relation"),
    lambda n: SPECS[n].wire_rank,
)

#: the database-scoped read verb (may read several relations at once).
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

    ``target`` is a :class:`~repro.chase.session.ChaseSession` or a
    durable :class:`repro.db.ManagedRelation`: every mutator of the
    session, the snapshot stack's three included, hands the record to
    the session's ``on_op`` hook before the op changes anything, so a
    hook that raises refuses the op.  The fields are what the op reports beyond its
    ``seq``: ``index`` for an insert, ``rows`` after a reset,
    ``committed`` for an adopt, ``depth`` for a snapshot or rollback,
    ``discarded`` for a discard.  The record comes from :func:`parse_op`
    or :func:`repro.db.log.decode_op`, which refuse an unknown verb.
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
