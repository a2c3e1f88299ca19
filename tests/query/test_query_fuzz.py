"""Bad query text gets a coded diagnostic, never a traceback.

Hypothesis draws query text from the query grammar — relation and
attribute names (some unknown), selections, projections, renames,
joins, unions and differences over quoted and numeric constants — and
then corrupts it by dropping, inserting (an unterminated quote, stray
symbols, non-ASCII text) and swapping tokens; some draws are raw
unicode.
Three surfaces must stay inside their contracts on every draw:

* :func:`repro.query.parse_query` returns a tree or raises
  :class:`~repro.query.QueryParseError` — nothing else;
* :func:`repro.analysis.lint_query_request` and
  :func:`repro.analysis.lint_query_script` return diagnostics only,
  each carrying a code from :data:`repro.analysis.diagnostics.CODES`,
  with instance statistics (so the plan linter runs its grounding
  bounds) and FDs (so it infers keys).

Text nested past the parser's bound — parentheses, ``not`` chains,
operator pipelines, a chain of bindings — is among the explicit
examples, and the served ``query`` verb refuses it with a coded lint
diagnostic.
"""

from __future__ import annotations

import asyncio

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import lint_query_request, lint_query_script
from repro.analysis.diagnostics import CODES
from repro.query import Node, QueryParseError, collect_stats, parse_query
from repro.server import ReproServer

from ..helpers import rel

ENV = {
    "r": rel("A B C", [("a1", "-", "c1"), ("a2", "b1", "-")],
             domains={"B": ["b1", "b2"]}),
    "s": rel("B D", [("b1", "d1"), ("-", "d2")],
             domains={"B": ["b1", "b2"]}),
}
CATALOG = {name: relation.schema for name, relation in ENV.items()}
STATS = collect_stats(ENV)
FDS = {"r": ["A -> B"], "s": ["B -> D"]}

#: nesting past the parser's bound, in each shape that can reach it
DEEP_PARENS = "(" * 331 + "r" + ")" * 331
DEEP_PRED_PARENS = "r where " + "(" * 1000 + "A = 'a1'" + ")" * 1000
DEEP_NOTS = "r where " + "not " * 1000 + "A = 'a1'"
DEEP_PIPELINE = "r" + "[A]" * 1000
DEEP_BINDINGS = ["x = r"] + ["x = x[A]"] * 1000

_NAMES = st.sampled_from(["r", "s", "r", "s", "t"])
_ATTRS = st.sampled_from(["A", "B", "C", "D", "A", "B", "Z"])
_CONSTANTS = st.sampled_from(["'a1'", "'b1'", "'b2'", "'b3'", "3", "1.5"])
_JUNK = st.sampled_from(
    ["(", ")", "[", "]", ",", "=", "!=", "->", "'", "''", "#", "é", "\\",
     ";", "==", "!", "where", "and", "not", "in", "join", "minus", "r"]
)


@st.composite
def _pred(draw, depth=0):
    roll = draw(st.integers(0, 5 if depth < 2 else 2))
    if roll == 0:
        return [draw(_ATTRS), draw(st.sampled_from(["=", "!="])), draw(_CONSTANTS)]
    if roll == 1:
        return [draw(_ATTRS), "=", draw(_ATTRS)]
    if roll == 2:
        values = draw(st.lists(_CONSTANTS, min_size=1, max_size=3))
        return [draw(_ATTRS), "in", "("] + " , ".join(values).split() + [")"]
    if roll == 3:
        return ["not", "("] + draw(_pred(depth + 1)) + [")"]
    joiner = draw(st.sampled_from(["and", "or"]))
    return draw(_pred(depth + 1)) + [joiner] + draw(_pred(depth + 1))


@st.composite
def _query(draw, depth=0):
    tokens = [draw(_NAMES)]
    for _ in range(draw(st.integers(0, 3))):
        roll = draw(st.integers(0, 4 if depth < 1 else 3))
        if roll == 0:
            tokens += ["where"] + draw(_pred())
        elif roll == 1:
            attrs = draw(st.lists(_ATTRS, min_size=1, max_size=3))
            tokens += ["["] + " , ".join(attrs).split() + ["]"]
        elif roll == 2:
            tokens += ["rename", draw(_ATTRS), "->", draw(_ATTRS)]
        elif roll == 3:
            tokens += [draw(st.sampled_from(["join", "union", "minus"])),
                       draw(_NAMES)]
        else:
            tokens = ["("] + tokens + [")", draw(st.sampled_from(
                ["join", "union", "minus"]))] + draw(_query(depth + 1))
    return tokens


@st.composite
def query_texts(draw) -> str:
    """Queries from the grammar, half of them with token edits (drop,
    insert junk, swap); sometimes raw unicode."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=40))
    tokens = draw(_query())
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.integers(0, 2))
        if edit == 0 and tokens:
            del tokens[min(at, len(tokens) - 1)]
        elif edit == 1:
            tokens.insert(at, draw(_JUNK))
        elif at + 1 < len(tokens):
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
    return draw(st.sampled_from([" ", " ", " ", ""])).join(tokens)


def _codes_known(diagnostics) -> None:
    for diagnostic in diagnostics:
        assert diagnostic.code in CODES, diagnostic


@given(query_texts())
@settings(max_examples=400, deadline=None)
@example(DEEP_PARENS)
@example(DEEP_PRED_PARENS)
@example(DEEP_NOTS)
@example(DEEP_PIPELINE)
def test_parse_query_raises_only_parse_errors(text):
    try:
        node = parse_query(text)
    except QueryParseError:
        return
    assert isinstance(node, Node)


@given(query_texts(), st.sampled_from(["least", "kleene", "fuzzy"]))
@settings(max_examples=400, deadline=None)
@example(DEEP_PIPELINE, "least")
def test_lint_query_request_returns_only_coded_diagnostics(text, mode):
    request = {"do": "query", "q": text, "mode": mode}
    _codes_known(lint_query_request(CATALOG, request, stats=STATS, fds=FDS))


@given(st.lists(query_texts(), max_size=5), st.sampled_from(["least", "kleene"]))
@settings(max_examples=150, deadline=None)
@example(DEEP_BINDINGS, "least")
def test_lint_query_script_returns_only_coded_diagnostics(lines, mode):
    lines = [line.replace("\n", " ") for line in lines]
    _codes_known(
        lint_query_script(CATALOG, lines, stats=STATS, fds=FDS, mode=mode)
    )


def test_served_deep_query_is_refused_by_lint(tmp_path):
    async def go():
        server = ReproServer(tmp_path / "db", create=True, sync="none")
        await server.start()
        await server.handle({"do": "create", "name": "r", "attrs": "A B"})
        reply = await server.handle({"id": 1, "do": "query", "q": DEEP_PARENS})
        await server.stop()
        return reply

    reply = asyncio.run(asyncio.wait_for(go(), timeout=60))
    assert reply["ok"] is False and "refused by lint" in reply["error"]
    assert [d["code"] for d in reply["diagnostics"]] == ["E_BAD_REQUEST"]
    assert "deeper than" in reply["diagnostics"][0]["message"]
