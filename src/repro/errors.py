"""Exception hierarchy for the ``repro`` library.

All library-raised exceptions derive from :class:`ReproError`, so callers can
catch a single base class.  Subclasses separate the main failure families:
schema misuse, value/domain misuse, and algorithm preconditions (e.g. running
a null-free algorithm on an instance with nulls, or a convention that the
paper explicitly says cannot be combined with sorting).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class SchemaError(ReproError):
    """A schema was constructed or used inconsistently.

    Raised for duplicate attribute names, references to attributes that are
    not part of the schema, rows of the wrong arity, and similar structural
    mistakes.
    """


class DomainError(ReproError):
    """A value is outside its attribute's declared domain, or an operation
    required a finite domain and the attribute's domain is unbounded.

    The paper assumes "domains are finite and are assumed known" (section 4).
    The library additionally supports unbounded domains; algorithms that
    genuinely need finiteness (brute-force completion enumeration, the F2
    "run out of domain values" case) raise this error instead of silently
    guessing.
    """


class NullsNotAllowedError(ReproError):
    """A classical (null-free) algorithm received an instance with nulls.

    Section 3 of the paper defines functional dependencies on relations
    "which at all times must contain tuples with non-null entries"; the
    classical interpreter refuses nulls rather than misinterpreting them.
    """


class ConventionError(ReproError):
    """A TEST-FDs variant was combined with a null convention it cannot
    implement.

    The paper's own footnote to Figure 3 notes that sorting null values under
    the *strong* convention (where a null compares equal to everything) is
    problematic and recommends the unsorted pairwise variant; the sort-merge
    implementation raises this error when the strong convention is requested
    on an instance where a left-hand side contains nulls.
    """


class NotMinimallyIncompleteError(ReproError):
    """The weak-convention TEST-FDs requires a minimally incomplete instance.

    Theorem 3 only guarantees correctness of the weak-convention test on
    instances where no NS-rule is applicable.  Callers that want the check on
    arbitrary instances should chase first (``repro.chase.minimal``).
    """


class InconsistentInstanceError(ReproError):
    """An operation that requires a consistent instance met the *nothing*
    element (the inconsistent data value of section 6)."""


class CodecError(ReproError):
    """A value, schema or op record could not be serialized or decoded.

    The durable codec (:mod:`repro.core.codec`) supports JSON-scalar
    constants plus the library's own :class:`~repro.core.values.Null` /
    ``NOTHING`` values; anything else — and any malformed record read back
    from disk — raises this error instead of silently mangling data.
    """


class DatabaseError(ReproError):
    """A :class:`repro.db.Database` was opened, read or mutated
    inconsistently: missing or malformed manifest/checkpoint files,
    corrupt (non-final) op-log records, unknown or duplicate relation
    names, and similar storage-level failures.
    """


class OpError(ReproError):
    """An op that is wrong before it touches an engine, with its code.

    Raised by the op front ends (a script line that does not parse, a
    wire request or log record whose fields are malformed), by a
    session's snapshot stack, durable or not (a rollback without a
    snapshot) and by the linter's dry run (a constant outside its
    declared domain).
    ``code`` is a :data:`repro.analysis.diagnostics.CODES` key and
    ``hint`` an optional suggested fix.
    """

    def __init__(self, code: str, message: str, hint: str = "") -> None:
        super().__init__(message)
        self.code = code
        self.hint = hint


class ScriptError(ReproError):
    """An op script (``repro session`` / ``repro db ingest``) failed.

    Carries the failing op's location so the CLI can point at it:
    ``line`` is the 1-based line number, ``text`` the op text as written.
    ``code`` is the diagnostic code from :mod:`repro.analysis.diagnostics`
    (classified from ``cause`` when not given explicitly), so runtime
    failures and static ``repro lint`` findings report identically.
    """

    def __init__(
        self,
        line: int,
        text: str,
        cause: Exception | str,
        code: str | None = None,
    ) -> None:
        self.line = line
        self.text = text
        self.cause = cause
        if code is None:
            from .analysis.diagnostics import classify_cause

            code = classify_cause(cause)
        self.code = code
        super().__init__(f"line {line}: {text!r}: {cause}")

    def diagnostic(self):
        """This failure as a :class:`repro.analysis.Diagnostic` — the same
        schema ``repro lint`` and the server's batch pre-pass emit."""
        from .analysis.diagnostics import Diagnostic

        return Diagnostic(
            code=self.code,
            line=self.line,
            op=self.text,
            message=str(self.cause),
            hint=getattr(self.cause, "hint", ""),
        )


class SanitizerError(ReproError):
    """An engine structural invariant was violated (sanitizer finding).

    Raised only when the opt-in invariant sanitizer
    (:mod:`repro.analysis.sanitize`, armed via ``REPRO_SANITIZE=1`` or
    ``sanitize=True``) audits a core/session/database after a mutation and
    finds its mirrored structures out of sync — an occurrence-index entry
    pointing at a cell whose class root moved, a signature bucket whose
    members disagree with the recorded signatures, a slot-indirection table
    that stopped being injective, a WAL whose seq numbers skipped.  The
    message names the structure, the keys involved, and both sides of the
    disagreement.
    """
