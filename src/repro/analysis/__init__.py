"""Analysis over scripts, batches, query plans, and engine state.

Three coordinated passes and the diagnostic schema they share; no pass
leaves a change behind:

* :mod:`repro.analysis.check` — the ``repro lint`` checker: a whole
  session/db script or server batch analyzed against a schema + FD set,
  every finding a structured :class:`Diagnostic` (line, code, message,
  suggested fix) instead of a first-failure traceback mid-execution.
  Scripts and batches share one loop: each front end reads its syntax
  into the op records execution applies, and the loop dry-runs them on
  a real chase session, then rolls it back (:func:`lint_script` on a
  session seeded from the script's rows, :func:`lint_requests` on the
  session the batch will meet);
* :mod:`repro.analysis.diagnostics` — the diagnostic schema itself,
  shared verbatim by the CLI, runtime :class:`~repro.errors.ScriptError`
  reporting, and the server's batch fast-reject payload;
* :mod:`repro.analysis.plan` — the query-plan linter: coded findings
  (``W_CROSS_PRODUCT`` / ``W_GROUND_BLOWUP`` / ``E_EMPTY_CERTAIN`` /
  ``W_DEAD_BRANCH``) over the facts the static analysis
  (:mod:`repro.query.optimize`) infers, wired into ``repro lint
  --query``, the REPL, and the server ``query`` verb;
* :mod:`repro.analysis.sanitize` — the opt-in (``REPRO_SANITIZE=1``)
  engine-invariant sanitizer: recomputes the occurrence/signature/slot/
  WAL mirrors from ground truth after mutations (and audits evaluator
  answer invariants after each query run) and raises precise
  :class:`~repro.errors.SanitizerError` findings.
"""

from ..opschema import BATCH_VERBS, SCRIPT_OPS
from .check import (
    has_errors,
    lint_query_request,
    lint_query_script,
    lint_requests,
    lint_script,
)
from .diagnostics import CODES, Diagnostic, classify_cause, render_report
from .plan import lint_query_plan
from .sanitize import (
    audit_core,
    audit_evaluator,
    audit_relation,
    audit_session,
)
from .sanitize import enabled as sanitize_enabled

__all__ = [
    "BATCH_VERBS",
    "CODES",
    "Diagnostic",
    "SCRIPT_OPS",
    "audit_core",
    "audit_evaluator",
    "audit_relation",
    "audit_session",
    "classify_cause",
    "has_errors",
    "lint_query_plan",
    "lint_query_request",
    "lint_query_script",
    "lint_requests",
    "lint_script",
    "render_report",
    "sanitize_enabled",
]
