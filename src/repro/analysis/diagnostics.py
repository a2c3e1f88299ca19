"""The diagnostic schema shared by ``repro lint``, ``ScriptError`` and the
server's batch pre-pass.

A :class:`Diagnostic` pins one finding to one op: the op's 1-based line
number (script) or 0-based request index (batch), a stable machine code
from :data:`CODES`, the op text as written, a human message, and an
optional suggested fix.  Every surface that reports an op failure — the
static checker (:mod:`repro.analysis.check`), a runtime
:class:`~repro.errors.ScriptError`, the server's ``batch`` refusal
payload — speaks this schema, so a failure looks the same whether it was
caught before execution or during it.

:func:`classify_cause` is the bridge from the runtime side: it maps the
exceptions the engine actually raises (their types and message shapes are
part of the library's tested surface) onto the same codes the static
checker emits, which is what lets ``tests/analysis`` assert that lint
predicts exactly the failures execution would produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping

from ..errors import (
    CodecError,
    ConventionError,
    DomainError,
    InconsistentInstanceError,
    OpError,
)

#: every diagnostic code with its one-line meaning.  Codes are stable
#: machine identifiers (tests and client tooling match on them); the
#: human text lives in each diagnostic's ``message``.
CODES: Dict[str, str] = {
    # -- script-shaped ops (repro session / repro db ingest / repro lint) --
    "E_UNKNOWN_OP": "op is not in the session vocabulary",
    "E_MISSING_ARG": "op is missing a required argument",
    "E_ARITY": "row has the wrong number of cells for the scheme",
    "E_UNKNOWN_ATTR": "attribute is not in the relation scheme",
    "E_BAD_INT": "argument must be an integer",
    "E_BAD_INDEX": "row index is out of range at this point in the script",
    "E_BAD_ASSIGN": "update assignment is not ATTR=value",
    "E_DOMAIN": "constant is outside the attribute's declared finite domain",
    "E_FILL_CONST": "fill targets a cell that provably holds a constant",
    "E_ROLLBACK_UNDERFLOW": "rollback without a matching snapshot",
    "E_CHECKPOINT_SCOPE": "checkpoint is a durable-database op",
    "E_CHECKPOINT_HELD": "checkpoint while snapshots are outstanding",
    "E_CONVENTION": "unknown TEST-FDs convention",
    "E_FD_CONFLICT": "op is provably inadmissible under the FD set",
    # -- server batch requests ---------------------------------------------
    "E_BAD_REQUEST": "request is not a well-formed op object",
    "E_UNKNOWN_VERB": "verb is not a mutation verb",
    # -- the wire ------------------------------------------------------------
    "E_LINE_TOO_LONG": "request line is longer than the server reads",
    # -- query scripts and the query verb ----------------------------------
    "E_UNKNOWN_RELATION": "query scans a relation the catalog does not have",
    "E_BAD_CELL": "cell token is not decodable",
    "E_UNKNOWN_NULL": "canonical null id was never minted by this relation",
    # -- query plans (repro.analysis.plan) -----------------------------------
    "W_CROSS_PRODUCT": "join shares no attributes; it is a cross product",
    "W_GROUND_BLOWUP": "a condition's grounding space exceeds the limit",
    "E_EMPTY_CERTAIN": "subtree is statically unsatisfiable; no completion "
    "produces a row",
    "W_DEAD_BRANCH": "union arm is provably empty and contributes nothing",
    # -- runtime fallback ----------------------------------------------------
    "E_RUNTIME": "runtime failure with no static code",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding about one op.

    ``line`` is 1-based for scripts and a 0-based request index for server
    batches (the ``render`` prefix says which).  ``op`` is the op text as
    written (scripts) or the compact request summary (batches).
    """

    code: str
    line: int
    op: str
    message: str
    hint: str = ""
    severity: str = field(default="error")

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    def render(self, kind: str = "line") -> str:
        """The CLI presentation: ``line 3: 'op text': E_CODE: message``."""
        parts = [f"{kind} {self.line}: {self.op!r}: {self.code}: {self.message}"]
        if self.hint:
            parts.append(f"  hint: {self.hint}")
        return "\n".join(parts)

    def to_payload(self) -> dict:
        """The wire shape the server's batch refusal carries."""
        payload: dict = {
            "code": self.code,
            "line": self.line,
            "op": self.op,
            "message": self.message,
        }
        if self.hint:
            payload["hint"] = self.hint
        if self.severity != "error":
            payload["severity"] = self.severity
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Diagnostic":
        return cls(
            code=str(payload["code"]),
            line=int(payload["line"]),
            op=str(payload.get("op", "")),
            message=str(payload.get("message", "")),
            hint=str(payload.get("hint", "")),
            severity=str(payload.get("severity", "error")),
        )


def render_report(diagnostics: List[Diagnostic], kind: str = "line") -> str:
    """All findings, one per line, in op order (the lint CLI output)."""
    ordered = sorted(diagnostics, key=lambda d: d.line)
    return "\n".join(diagnostic.render(kind) for diagnostic in ordered)


#: substring -> code, applied in order to the stringified cause.  The
#: messages matched here are the library's own raise sites (each is pinned
#: by an existing test); a new raise site with a new shape falls through
#: to E_RUNTIME rather than misclassifying.  Parse and decode failures
#: never get here: they raise a coded OpError.
_MESSAGE_RULES = (
    ("outstanding snapshot", "E_CHECKPOINT_HELD"),
    ("cell is not null", "E_FILL_CONST"),
    ("no row at index", "E_BAD_INDEX"),
    ("unknown attribute", "E_UNKNOWN_ATTR"),
    ("unknown attributes", "E_UNKNOWN_ATTR"),
    ("is not in scheme", "E_UNKNOWN_ATTR"),
    ("row arity", "E_ARITY"),
    ("missing values for attributes", "E_ARITY"),
    ("row scheme", "E_ARITY"),
)


def classify_cause(cause: Exception | str) -> str:
    """Map a runtime failure onto the diagnostic code the static checker
    would have emitted for the same op.

    Classification is by exception type first (a coded
    :class:`~repro.errors.OpError` carries its code; the other
    unambiguous families map whole), then by the message shapes of the
    library's own raise sites, with ``E_RUNTIME`` as the honest fallback
    for anything unrecognized.
    """
    text = str(cause)
    if isinstance(cause, OpError):
        return cause.code
    if isinstance(cause, InconsistentInstanceError):
        return "E_FD_CONFLICT"
    if isinstance(cause, ConventionError):
        return "E_CONVENTION"
    if isinstance(cause, DomainError):
        return "E_DOMAIN"
    if isinstance(cause, CodecError):
        return "E_BAD_CELL"
    for fragment, code in _MESSAGE_RULES:
        if fragment in text:
            return code
    return "E_RUNTIME"
