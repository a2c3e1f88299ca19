"""Lint tour: check an op script by a dry run before running it for real.

``repro lint`` (backed by :mod:`repro.analysis`) runs a session script
on a scratch chase session, rolls it back, and reports **every** wrong
op in one pass, where execution would abort at the first:

* structural errors: unknown ops and attributes, wrong arity, indexes
  out of bounds *at that point in the script*;
* semantic errors: filling a cell that holds a constant, rolling back
  without a snapshot, ``check`` on a poisoned instance;
* admissibility warnings by the paper's own oracle: an op after which
  the chase derives NOTHING is inadmissible (Theorem 4(b) — the chase
  verdict *is* the weak-satisfiability verdict), and the message names
  the FD forcing the conflict.

The same pass guards the server: a mutation batch with any lint error is
refused before any op runs or a WAL byte moves.  And the
flip side of static checking is dynamic checking: ``REPRO_SANITIZE=1``
(or ``ChaseSession(..., sanitize=True)``) arms an invariant sanitizer
that audits the engine's internal mirrors (occurrence index, signature
buckets, union-find weights, null registry, WAL seq contiguity) after
every public mutation.
"""

from repro.analysis import has_errors, lint_script, render_report
from repro.chase.session import ChaseSession
from repro.cli import run_script
from repro.core.schema import RelationSchema

SCHEMA = RelationSchema("emp", "name dept mgr")
FDS = ["dept -> mgr"]

# -- a script with one of everything wrong ---------------------------------

BROKEN = [
    "insert ada, eng",                 # arity: 2 cells for 3 attributes
    "insert ada, eng, -",              # fine: mgr unknown (a fresh null)
    "insert bob, eng, turing",         # fine: shares ada's dept
    "fill 0 mgr knuth",                # inadmissible: dept -> mgr links the
    #                                    two mgr cells, knuth != turing
    "update 9 dept=ops",               # index 9 does not exist here
    "update 1 salary=120",             # unknown attribute
    "fill 1 dept web",                 # dept holds a constant
    "rollback",                        # no snapshot outstanding
]

diagnostics = lint_script(SCHEMA, FDS, BROKEN)
print(f"one pass over {len(BROKEN)} lines: {len(diagnostics)} finding(s)")
print(render_report(diagnostics))
errors = sum(1 for d in diagnostics if d.severity == "error")
print(f"errors: {errors}, warnings: {len(diagnostics) - errors}")

# -- the guarantee: a lint-clean script executes without raising -----------

CLEAN = [
    "insert -, eng, -",
    "insert bob, eng, turing",         # same dept: the chase grounds row 0's
    "fill 0 name ada",                 # mgr to turing; name stays fillable
    "snapshot",
    "delete 0",
    "rollback",
    "check weak",
]
clean_diagnostics = lint_script(SCHEMA, FDS, CLEAN)
print(f"\nclean script: {len(clean_diagnostics)} finding(s) "
      f"(errors: {has_errors(clean_diagnostics)})")

session = ChaseSession(SCHEMA, FDS, sanitize=True)  # sanitizer armed
run_script(session, CLEAN)
print("lint-clean script executed without raising: True")

# -- check on a poisoned state is an error ---------------------------------

POISONED = [
    "insert ada, eng, knuth",
    "insert bob, eng, turing",         # same dept, different mgr constants
    "check weak",                      # TEST-FDs on NOTHING: refused here
]
findings = lint_script(SCHEMA, FDS, POISONED)
print(f"\npoisoned script: {len(findings)} finding(s)")
for finding in findings:
    print(f"  line {finding.line}: {finding.code} ({finding.severity})")
