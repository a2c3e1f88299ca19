"""The linter's soundness guarantee, property-tested.

A script with **no error-severity diagnostics** executes without
raising.  (Warnings are excluded by design: an FD conflict executes and
poisons rather than raising.)  The generator emits both well-formed and
deliberately broken ops — out-of-range indexes, wrong arity, unknown
attributes — so both sides of the guarantee get traffic: clean scripts
must run, and scripts that fail at runtime must have been flagged.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis import has_errors, lint_script
from repro.chase.session import ChaseSession
from repro.cli import run_script
from repro.core.schema import RelationSchema
from repro.errors import ScriptError
from repro.opschema import SessionTarget

SCHEMA = RelationSchema("R", "A B C")
FDS = ["A -> B", "B -> C"]

_CONSTS = st.sampled_from(["a1", "a2", "b1", "b2", "c1", "x"])
_CELL = st.one_of(_CONSTS, st.sampled_from(["-", "NULL"]))
_ATTR = st.sampled_from(["A", "B", "C", "Z"])  # Z: unknown on purpose
_INDEX = st.integers(min_value=-1, max_value=5)


@st.composite
def op_lines(draw):
    kind = draw(
        st.sampled_from(
            [
                "insert",
                "insert_bad_arity",
                "delete",
                "update",
                "replace",
                "fill",
                "snapshot",
                "rollback",
                "adopt",
                "check",
                "show",
            ]
        )
    )
    if kind == "insert":
        cells = draw(st.lists(_CELL, min_size=3, max_size=3))
        return "insert " + ", ".join(cells)
    if kind == "insert_bad_arity":
        cells = draw(st.lists(_CELL, min_size=1, max_size=2))
        return "insert " + ", ".join(cells)
    if kind == "delete":
        return f"delete {draw(_INDEX)}"
    if kind == "update":
        return f"update {draw(_INDEX)} {draw(_ATTR)}={draw(_CONSTS)}"
    if kind == "replace":
        cells = draw(st.lists(_CELL, min_size=3, max_size=3))
        return f"replace {draw(_INDEX)} " + ", ".join(cells)
    if kind == "fill":
        return f"fill {draw(_INDEX)} {draw(_ATTR)} {draw(_CONSTS)}"
    return kind


def scripts():
    return st.lists(op_lines(), min_size=1, max_size=12)


@settings(max_examples=120, deadline=None)
@given(scripts())
def test_lint_clean_scripts_execute_without_raising(script):
    diagnostics = lint_script(SCHEMA, FDS, script)
    if has_errors(diagnostics):
        return  # the guarantee speaks only of clean scripts
    target = SessionTarget(ChaseSession(SCHEMA, FDS))
    run_script(target, script)  # must not raise


@settings(max_examples=120, deadline=None)
@given(scripts())
def test_runtime_failures_were_always_flagged(script):
    """Completeness of the error class: if execution raises, lint errored.

    (The converse of soundness — together they pin the error severity to
    exactly the provably-failing scripts this generator can produce.)
    """
    target = SessionTarget(ChaseSession(SCHEMA, FDS))
    try:
        run_script(target, script)
    except ScriptError:
        assert has_errors(lint_script(SCHEMA, FDS, script))


@settings(max_examples=60, deadline=None)
@given(scripts())
def test_diagnostic_lines_point_into_the_script(script):
    for diagnostic in lint_script(SCHEMA, FDS, script):
        assert 1 <= diagnostic.line <= len(script)
        assert diagnostic.op  # the op text as written, never empty
