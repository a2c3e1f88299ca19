"""Integration: every example script runs and prints its key findings.

Examples are documentation that executes; these tests keep them honest.
"""

import io
import runpy
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


def run_example(name: str) -> str:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return buffer.getvalue()


def test_examples_directory_complete():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {
        "quickstart.py",
        "employee_database.py",
        "data_cleaning.py",
        "schema_design.py",
        "logic_equivalence.py",
        "null_queries.py",
        "update_workflow.py",
        "durability_tour.py",
        "server_tour.py",
        "lint_tour.py",
        "query_tour.py",
        "optimize_tour.py",
    } <= names


def test_quickstart():
    out = run_example("quickstart.py")
    assert "condition=[F2]" in out
    assert "strongly holds: False" in out
    assert "weakly holds:   True" in out
    assert "weakly satisfiable? False" in out


def test_employee_database():
    out = run_example("employee_database.py")
    assert "holds classically: True" in out
    assert "strongly satisfied: False" in out
    assert "weakly satisfied:   True" in out
    assert "inferred:" in out and "permanent" in out
    assert "ACCEPT: a new employee in a new department" in out
    assert "REJECT: a contract disagreeing with d1's" in out
    assert "ACCEPT: employee 101 with a concrete salary" in out
    assert "REJECT: employee 103 with a second salary" in out


def test_data_cleaning():
    out = run_example("data_cleaning.py")
    assert "cells grounded: 4" in out
    assert "linked unknowns (NEC)" in out
    assert "weakly satisfiable: False" in out
    assert "poisoned cells: [(0, 'city'), (1, 'city')]" in out


def test_schema_design():
    out = run_example("schema_design.py")
    assert "candidate keys: [('order',)]" in out
    assert "lossless join: True" in out
    assert "dependency preserving: True" in out
    assert "weakly satisfies the rules: True" in out
    assert "weakly satisfies = False" in out


def test_logic_equivalence():
    out = run_example("logic_equivalence.py")
    assert "strong inference: True" in out
    assert "weak inference:   False" in out
    assert "verified: True" in out
    assert "That is Lemma 3" in out.replace("\n", " ") or "that is Lemma 3" in out


def test_null_queries():
    out = run_example("null_queries.py")
    assert "least-ext: unknown" in out
    assert "least-ext: true" in out
    assert "certainly married: ['Mary']" in out
    assert "possibly married:  ['John', 'Mary']" in out


def test_durability_tour():
    out = run_example("durability_tour.py")
    assert "checkpoint: 4 op(s) absorbed" in out
    assert "torn tail dropped: True" in out
    assert "recovered fixpoint verified: True" in out
    assert "child exited with" in out
    assert "crash-injected recovery verified: True" in out


def test_server_tour():
    out = run_example("server_tour.py")
    assert "directory locked while serving: True" in out
    assert "append+fsync(s) for 48 ops" in out
    assert "auto-checkpoint fired: True" in out
    assert "snapshot read at seq 48: 48 row(s)" in out
    assert "read equals the acked prefix: True" in out
    assert "zip -> city weakly satisfied while serving: True" in out
    assert "recovered fixpoint verified: True" in out


def test_query_tour():
    out = run_example("query_tour.py")
    assert "least evaluation promoted bob" in out
    assert "shared null -> certain, distinct -> maybe" in out
    assert "chased rows:" in out
    assert "answer as_of journal seq: 2" in out
    assert "every answer is a serial prefix" in out


def test_optimize_tour():
    out = run_example("optimize_tour.py")
    assert "field-identical to naive evaluation: True" in out
    assert "line 1: W_CROSS_PRODUCT (warning)" in out
    assert "line 2: E_EMPTY_CERTAIN (error)" in out
    assert "line 3: W_GROUND_BLOWUP (warning)" in out
    assert "explain reply carries a plan, no lease: True" in out
    assert "refused before any lease: True" in out


def test_lint_tour():
    out = run_example("lint_tour.py")
    assert "one pass over 8 lines: 6 finding(s)" in out
    assert "E_ARITY" in out and "E_BAD_INDEX" in out
    assert "E_UNKNOWN_ATTR" in out and "E_FILL_CONST" in out
    assert "E_ROLLBACK_UNDERFLOW" in out
    assert "errors: 5, warnings: 1" in out
    assert "clean script: 0 finding(s) (errors: False)" in out
    assert "lint-clean script executed without raising: True" in out
    assert "line 2: E_FD_CONFLICT (warning)" in out
    assert "line 3: E_FD_CONFLICT (error)" in out


def test_update_workflow():
    out = run_example("update_workflow.py")
    assert "ACCEPT insert" in out and "[forced 1 substitution(s)]" in out
    assert "REJECT insert" in out
    assert "REJECT update" in out
    assert "ACCEPT delete" in out
    assert "Proposition 1 condition [T1]" in out
    assert "weakly satisfiable (no nothing)" in out
