"""Golden-file tests for the static script linter.

Each case is a literal script plus the exact (code, line) findings the
linter must produce — every diagnostic code in the script vocabulary is
exercised at least once, with its 1-based line number pinned.
"""

from repro.analysis import Diagnostic, has_errors, lint_script, render_report
from repro.core.schema import Domain, RelationSchema
from repro.core.values import NOTHING

SCHEMA = RelationSchema("R", "A B C")
FDS = ["A -> B"]


def findings(script, schema=SCHEMA, fds=FDS, **kwargs):
    diagnostics = lint_script(schema, fds, script, **kwargs)
    return [(d.code, d.line) for d in diagnostics]


class TestCleanScripts:
    def test_empty_script_is_clean(self):
        assert lint_script(SCHEMA, FDS, []) == []

    def test_well_formed_script_is_clean(self):
        script = [
            "# build two rows, ground a null, inspect",
            "insert a1, -, c1",
            "insert a2, b2, c2",
            "fill 0 B b1",
            "update 1 C=c9",
            "snapshot",
            "delete 0",
            "rollback",
            "check weak",
            "show",
            "stats",
        ]
        assert lint_script(SCHEMA, FDS, script) == []

    def test_comments_and_blanks_never_report(self):
        assert lint_script(SCHEMA, FDS, ["", "   ", "# delete 99"]) == []


class TestEveryDiagnosticCode:
    def test_unknown_op(self):
        assert findings(["levitate 3"]) == [("E_UNKNOWN_OP", 1)]

    def test_missing_arg(self):
        assert findings(["delete"]) == [("E_MISSING_ARG", 1)]
        assert findings(["fill 0 B"]) == [("E_MISSING_ARG", 1)]

    def test_arity(self):
        assert findings(["insert a1, b1"]) == [("E_ARITY", 1)]

    def test_unknown_attr(self):
        assert findings(["insert a, b, c", "update 0 Z=9"]) == [
            ("E_UNKNOWN_ATTR", 2)
        ]

    def test_bad_int(self):
        assert findings(["delete nine"]) == [("E_BAD_INT", 1)]

    def test_bad_index(self):
        assert findings(["insert a, b, c", "delete 4"]) == [("E_BAD_INDEX", 2)]

    def test_bad_assign(self):
        assert findings(["insert a, b, c", "update 0 B"]) == [
            ("E_BAD_ASSIGN", 2)
        ]

    def test_domain(self):
        schema = RelationSchema(
            "R", "A B C", domains={"B": Domain(["x", "y"], name="B")}
        )
        assert findings(["insert a, z, c"], schema=schema) == [("E_DOMAIN", 1)]

    def test_fill_const(self):
        assert findings(["insert a, b, c", "fill 0 B b9"]) == [
            ("E_FILL_CONST", 2)
        ]

    def test_fill_unproven_after_adopt(self):
        # exact past an adopt: the fill is clean while the cell is still
        # null, and targets a constant once the adopt committed one there
        assert findings(["insert a, -, -", "adopt", "fill 0 B b1"]) == []
        script = ["insert a, b1, c", "insert a, -, -", "adopt", "fill 1 B b2"]
        assert findings(script) == [("E_FILL_CONST", 4)]

    def test_rollback_underflow(self):
        assert findings(["rollback"]) == [("E_ROLLBACK_UNDERFLOW", 1)]

    def test_checkpoint_scope(self):
        assert findings(["checkpoint"]) == [("E_CHECKPOINT_SCOPE", 1)]
        assert findings(["checkpoint"], durable=True) == []

    def test_checkpoint_held(self):
        script = ["snapshot", "checkpoint"]
        assert findings(script, durable=True) == [("E_CHECKPOINT_HELD", 2)]

    def test_convention(self):
        assert findings(["check sideways"]) == [("E_CONVENTION", 1)]

    def test_fd_conflict_warning_on_mutation(self):
        script = ["insert a, b1, c", "insert a, b2, c"]
        diagnostics = lint_script(SCHEMA, FDS, script)
        assert [(d.code, d.line, d.severity) for d in diagnostics] == [
            ("E_FD_CONFLICT", 2, "warning")
        ]
        assert not has_errors(diagnostics)

    def test_fd_conflict_error_on_check(self):
        script = ["insert a, b1, c", "insert a, b2, c", "check"]
        diagnostics = lint_script(SCHEMA, FDS, script)
        assert [(d.code, d.line, d.severity) for d in diagnostics] == [
            ("E_FD_CONFLICT", 2, "warning"),
            ("E_FD_CONFLICT", 3, "error"),
        ]
        assert has_errors(diagnostics)


class TestPoisonedStates:
    def test_nothing_seed_row_fails_check(self):
        rows = [["a", NOTHING, "c"]]
        diagnostics = lint_script(SCHEMA, [], ["check"], rows=rows)
        assert [(d.code, d.line, d.severity) for d in diagnostics] == [
            ("E_FD_CONFLICT", 1, "error")
        ]

    def test_check_after_adopt_on_a_poisoned_instance(self):
        # adopt writes NOTHING into the rows; the update keeps it there
        script = [
            "insert b2, a1, b2",
            "insert b2, c1, b1",
            "adopt",
            "update 1 A=a1",
            "check",
        ]
        diagnostics = lint_script(SCHEMA, ["A -> B", "B -> C"], script)
        assert [(d.code, d.line, d.severity) for d in diagnostics] == [
            ("E_FD_CONFLICT", 2, "warning"),
            ("E_FD_CONFLICT", 5, "error"),
        ]


class TestConflictWitness:
    def test_armstrong_witness_names_rows_fd_and_values(self):
        script = ["insert a, b1, c", "insert a, b2, c"]
        (diagnostic,) = lint_script(SCHEMA, FDS, script)
        assert "rows 0 and 1 agree on A" in diagnostic.message
        assert "'b1'" in diagnostic.message and "'b2'" in diagnostic.message

    def test_transitive_conflict_witnessed_through_closure(self):
        # A -> B, B -> C: rows agree on A, so C is forced equal transitively
        script = ["insert a, b, c1", "insert a, b, c2"]
        (diagnostic,) = lint_script(SCHEMA, ["A -> B", "B -> C"], script)
        assert diagnostic.code == "E_FD_CONFLICT"
        assert "forces C equal" in diagnostic.message


class TestMultiError:
    def test_every_bad_op_reported_not_just_the_first(self):
        script = [
            "insert a1, b1",          # E_ARITY
            "delete nine",            # E_BAD_INT
            "insert a1, b1, c1",
            "update 0 Z=1",           # E_UNKNOWN_ATTR
            "rollback",               # E_ROLLBACK_UNDERFLOW
            "levitate",               # E_UNKNOWN_OP
        ]
        assert findings(script) == [
            ("E_ARITY", 1),
            ("E_BAD_INT", 2),
            ("E_UNKNOWN_ATTR", 4),
            ("E_ROLLBACK_UNDERFLOW", 5),
            ("E_UNKNOWN_OP", 6),
        ]

    def test_failing_op_is_skipped_so_later_indexes_stay_exact(self):
        # the arity-failing insert adds no abstract row, so the follow-up
        # delete of row 0 is correctly flagged out of bounds
        script = ["insert a1, b1", "delete 0"]
        assert findings(script) == [("E_ARITY", 1), ("E_BAD_INDEX", 2)]


class TestSeededRows:
    def test_initial_rows_shift_index_bounds(self):
        rows = [["a1", "b1", "c1"], ["a2", "b2", "c2"]]
        assert findings(["delete 1"], rows=rows) == []
        assert findings(["delete 2"], rows=rows) == [("E_BAD_INDEX", 1)]

    def test_initial_null_is_fillable(self):
        from repro.core.values import null

        rows = [["a1", null(), "c1"]]
        assert findings(["fill 0 B b1"], rows=rows) == []


class TestRenderReport:
    def test_report_sorts_by_line_and_names_everything(self):
        script = ["insert a, b", "delete nine"]
        diagnostics = lint_script(SCHEMA, FDS, script)
        report = render_report(diagnostics)
        assert "line 1" in report and "E_ARITY" in report
        assert "line 2" in report and "E_BAD_INT" in report
        assert report.index("E_ARITY") < report.index("E_BAD_INT")

    def test_payload_round_trip(self):
        (diagnostic,) = lint_script(SCHEMA, FDS, ["delete 0"])
        assert Diagnostic.from_payload(diagnostic.to_payload()) == diagnostic
