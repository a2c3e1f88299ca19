"""Scripts, batches and execution share one op pipeline.

Two properties pin it:

* **script ↔ batch** — one generated op sequence, written once as a
  script and once as a server batch, lints to the identical (code,
  position, severity) list (script line = request index + 1).  Fill
  values are constants, and only the ops both syntaxes have are drawn.
  It holds on an empty relation and over seed rows that share nulls,
  linted the way the server lints a batch (a session over the
  relation's rows, its codec's ``decode`` and ``knows``);
* **lint ↔ execution** — on the lint-property generator, a script that
  raises at runtime at line L with code C has its *first* error-severity
  finding at line L with code C: lint and execution name the same
  failure.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import lint_requests, lint_script
from repro.chase.session import ChaseSession
from repro.cli import run_script
from repro.core.codec import ValueCodec
from repro.core.schema import Domain, RelationSchema
from repro.core.values import null
from repro.errors import ScriptError

from .test_lint_property import FDS as PROPERTY_FDS
from .test_lint_property import SCHEMA as PROPERTY_SCHEMA
from .test_lint_property import scripts

FDS = ["A -> B", "B -> C"]
SCHEMAS = [
    RelationSchema("R", "A B C"),
    RelationSchema("R", "A B C", domains={"C": Domain(["c1", "c2"], name="C")}),
]

_CONSTS = st.sampled_from(["a1", "a2", "b1", "b2", "c1", "c2", "c3"])
_CELL = st.one_of(_CONSTS, st.none())  # None: a fresh null
_ATTR = st.sampled_from(["A", "B", "C", "Z"])  # Z: unknown on purpose
_INDEX = st.integers(min_value=-1, max_value=5)
_ROW = st.lists(_CELL, min_size=1, max_size=4)  # wrong arity on purpose too


@st.composite
def ops(draw):
    kind = draw(
        st.sampled_from(
            ["insert", "delete", "update", "replace", "fill",
             "snapshot", "rollback", "adopt"]
        )
    )
    if kind == "insert":
        return (kind, draw(_ROW))
    if kind == "delete":
        return (kind, draw(_INDEX))
    if kind == "update":
        return (kind, draw(_INDEX), draw(_ATTR), draw(_CONSTS))
    if kind == "replace":
        return (kind, draw(_INDEX), draw(_ROW))
    if kind == "fill":
        return (kind, draw(_INDEX), draw(_ATTR), draw(_CONSTS))
    return (kind,)


def as_script(sequence):
    def cells(row):
        return ", ".join("-" if value is None else value for value in row)

    lines = []
    for op in sequence:
        kind = op[0]
        if kind == "insert":
            lines.append(f"insert {cells(op[1])}")
        elif kind == "delete":
            lines.append(f"delete {op[1]}")
        elif kind == "update":
            lines.append(f"update {op[1]} {op[2]}={op[3]}")
        elif kind == "replace":
            lines.append(f"replace {op[1]} {cells(op[2])}")
        elif kind == "fill":
            lines.append(f"fill {op[1]} {op[2]} {op[3]}")
        else:
            lines.append(kind)
    return lines


def as_batch(sequence):
    def cells(row):
        return [{"n": None} if value is None else value for value in row]

    requests = []
    for op in sequence:
        kind = op[0]
        if kind == "insert":
            requests.append({"do": kind, "row": cells(op[1])})
        elif kind == "delete":
            requests.append({"do": kind, "index": op[1]})
        elif kind == "update":
            requests.append({"do": kind, "index": op[1], "set": {op[2]: op[3]}})
        elif kind == "replace":
            requests.append({"do": kind, "index": op[1], "row": cells(op[2])})
        elif kind == "fill":
            requests.append(
                {"do": kind, "index": op[1], "attr": op[2], "value": op[3]}
            )
        else:
            requests.append({"do": kind})
    return requests


@pytest.mark.parametrize("schema", SCHEMAS, ids=["unbounded", "finite-C"])
@settings(max_examples=150, deadline=None)
@given(sequence=st.lists(ops(), min_size=1, max_size=14))
def test_script_and_batch_lint_identically(schema, sequence):
    from_script = [
        (d.code, d.line, d.severity)
        for d in lint_script(schema, FDS, as_script(sequence))
    ]
    from_batch = [
        (d.code, d.line + 1, d.severity)
        for d in lint_requests(schema, FDS, as_batch(sequence))
    ]
    assert from_script == from_batch


#: seed cells: constants, two nulls shared across the seed ("x", "y"),
#: and fresh nulls ("-")
_SEED_CELLS = st.sampled_from(["a1", "a2", "b1", "b2", "c1", "c2", "x", "y", "-"])


def seed_rows(cells):
    shared = {"x": null(), "y": null()}
    return [
        tuple(shared[c] if c in shared else null() if c == "-" else c for c in row)
        for row in cells
    ]


@pytest.mark.parametrize("schema", SCHEMAS, ids=["unbounded", "finite-C"])
@settings(max_examples=150, deadline=None)
@given(
    seed=st.lists(st.lists(_SEED_CELLS, min_size=3, max_size=3), max_size=4),
    sequence=st.lists(ops(), min_size=1, max_size=10),
)
def test_script_and_batch_lint_identically_over_seed_rows_sharing_nulls(
    schema, seed, sequence
):
    rows = seed_rows(seed)
    codec = ValueCodec()  # the relation's codec has named every seed null
    for row in rows:
        codec.encode_row(row)
    from_script = [
        (d.code, d.line, d.severity)
        for d in lint_script(schema, FDS, as_script(sequence), rows=rows)
    ]
    from_batch = [
        (d.code, d.line + 1, d.severity)
        for d in lint_requests(
            schema,
            FDS,
            as_batch(sequence),
            target=ChaseSession(schema, FDS, rows),
            known_null=codec.knows,
            decode=codec.decode,
        )
    ]
    assert from_script == from_batch


def test_a_fill_substitutes_a_seeded_shared_null_everywhere():
    # rows 0 and 1 share one null: filling it in row 0 grounds row 1's
    # cell too, so a second fill there targets a constant, as at runtime
    shared = null()
    rows = [("a1", shared, "c1"), ("a2", shared, "c2")]
    codec = ValueCodec()
    for row in rows:
        codec.encode_row(row)
    script = lint_script(
        SCHEMAS[0], [], ["fill 0 B b1", "fill 1 B b2"], rows=rows
    )
    batch = lint_requests(
        SCHEMAS[0],
        [],
        [
            {"do": "fill", "index": 0, "attr": "B", "value": "b1"},
            {"do": "fill", "index": 1, "attr": "B", "value": {"n": codec.id_of(shared)}},
        ],
        target=ChaseSession(SCHEMAS[0], [], rows),
        known_null=codec.knows,
        decode=codec.decode,
    )
    assert [(d.code, d.line) for d in script] == [("E_FILL_CONST", 2)]
    assert [(d.code, d.line) for d in batch] == [("E_FILL_CONST", 1)]


def first_error(script):
    errors = [
        d
        for d in lint_script(PROPERTY_SCHEMA, PROPERTY_FDS, script)
        if d.severity == "error"
    ]
    return (errors[0].line, errors[0].code) if errors else None


def runtime_failure(script):
    try:
        run_script(ChaseSession(PROPERTY_SCHEMA, PROPERTY_FDS), script)
    except ScriptError as error:
        return (error.line, error.code)
    return None


@settings(max_examples=200, deadline=None)
@given(scripts())
def test_lint_names_the_line_and_code_execution_fails_with(script):
    failure = runtime_failure(script)
    if failure is None:
        return
    assert first_error(script) == failure


@pytest.mark.parametrize(
    "script, expected",
    [
        (["delete"], (1, "E_MISSING_ARG")),
        (["insert a1, b1, c1", "replace"], (2, "E_MISSING_ARG")),
        (["insert a1, -, c1", "fill 0 B"], (2, "E_MISSING_ARG")),
        (["insert a1, b1, c1", "update 4 Z=1"], (2, "E_BAD_INDEX")),
        (
            ["insert a1, b1, c1", "insert a1, b2, c1", "check"],
            (3, "E_FD_CONFLICT"),
        ),
    ],
)
def test_lint_and_execution_agree_on_the_cases_that_used_to_diverge(
    script, expected
):
    assert runtime_failure(script) == expected
    assert first_error(script) == expected


def test_a_wrong_op_reports_only_its_first_finding():
    # index bounds come first; the short row is never looked at
    (diagnostic,) = lint_requests(
        SCHEMAS[0], FDS, [{"do": "replace", "index": 5, "row": ["x", "a1"]}]
    )
    assert diagnostic.code == "E_BAD_INDEX"
    (diagnostic,) = lint_script(SCHEMAS[0], FDS, ["replace 5 x, a1"])
    assert diagnostic.code == "E_BAD_INDEX"


def test_both_front_ends_share_one_conflict_message_and_hint():
    script = lint_script(SCHEMAS[0], FDS, ["insert a, b1, c", "insert a, b2, c"])
    batch = lint_requests(
        SCHEMAS[0],
        FDS,
        [{"do": "insert", "row": ["a", "b1", "c"]},
         {"do": "insert", "row": ["a", "b2", "c"]}],
    )
    assert [(d.message, d.hint) for d in script] == [
        (d.message, d.hint) for d in batch
    ]
    assert script[0].hint
