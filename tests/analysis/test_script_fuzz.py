"""Bad op-script input gets a coded diagnostic, never a traceback.

Hypothesis draws script text token by token from the op vocabulary, its
argument shapes and deliberate junk (unknown ops, stray separators,
non-integer and out-of-range indexes, malformed assignments, comments,
non-ASCII text), plus raw unicode lines.  Two surfaces must stay inside
their contracts on every draw:

* :func:`repro.opschema.parse_op` returns an op record or raises
  :class:`~repro.errors.OpError` — nothing else;
* :func:`repro.analysis.lint_script` returns diagnostics only, each
  carrying a code from :data:`repro.analysis.diagnostics.CODES`, both
  for a script against an empty instance and for one against seed rows.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import lint_script
from repro.analysis.diagnostics import CODES
from repro.core.domain import Domain
from repro.core.schema import RelationSchema
from repro.core.values import null
from repro.errors import OpError
from repro.opschema import SCRIPT_OPS, parse_op

SCHEMA = RelationSchema("R", "A B C", domains={"C": Domain(["c1", "c2"])})
FDS = ["A -> B", "B -> C"]
SEED_ROWS = [("a1", "b1", "c1"), ("a2", null(), "c2")]

#: the script vocabulary, weighted over a few names it does not have
_OPS = st.sampled_from(
    list(SCRIPT_OPS) * 3
    + ["reset", "rows", "query", "INSERT", "", "#"]
)
_ARGS = st.sampled_from(
    ["0", "1", "2", "-1", "99", "1.5", "0x1", "", " ", "\t"]
    + ["a1", "b1", "c1", "c9", "-", "NULL", "null", "A", "B", "C", "Z"]
    + ["A=a1", "B=-", "C=c9", "Z=z", "=", "A=", "=x", "A==b"]
    + [",", ", ,", ",,", "#", "# note", "weak", "strong", "both", "é"]
)


@st.composite
def script_lines(draw) -> str:
    """Mostly a known op followed by argument-shaped tokens; sometimes
    raw unicode."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=40).map(lambda s: s.replace("\n", " ")))
    index = draw(st.sampled_from(["", "0 ", "1 ", "2 ", "-1 ", "7 "]))
    args = draw(st.lists(_ARGS, max_size=7))
    joiner = draw(st.sampled_from([" ", ", ", ","]))
    return draw(_OPS) + " " + index + joiner.join(args)


def _op_text(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _codes_known(diagnostics) -> None:
    for diagnostic in diagnostics:
        assert diagnostic.code in CODES, diagnostic


@given(script_lines())
@settings(max_examples=400, deadline=None)
def test_parse_op_raises_only_op_error(line):
    text = _op_text(line)
    if not text:
        return
    try:
        record = parse_op(text)
    except OpError as error:
        assert error.code in CODES, error
    else:
        assert isinstance(record, tuple) and record[0] in SCRIPT_OPS


@given(st.lists(script_lines(), max_size=8), st.booleans())
@settings(max_examples=200, deadline=None)
def test_lint_script_returns_only_coded_diagnostics(lines, seeded):
    diagnostics = lint_script(
        SCHEMA, FDS, lines, rows=SEED_ROWS if seeded else None
    )
    _codes_known(diagnostics)
