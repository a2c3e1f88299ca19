"""Concrete syntax for ``repro query`` and the REPL.

A small, fully parenthesizable algebra notation::

    emp                              scan the relation ``emp``
    emp where dept = 'sales'         select (three-valued predicate)
    emp[name, dept]                  project
    emp join dept_mgr                natural join
    emp rename dept -> unit          rename
    a union b,  a minus b            set union / difference
    ans = emp where salary = 30      bind an intermediate (scripts/REPL)

A query is a left-to-right *pipeline*: ``where``, ``[...]``,
``rename`` and ``join`` each apply to everything parsed so far, so
``emp join mgr [name] where boss = 'carol'`` projects and then filters
the join.  Only ``union`` / ``minus`` bind looser, and parentheses are
free everywhere (``emp join (mgr[dept])`` scopes the projection to one
operand).  Predicates are the
:mod:`repro.nullsem.queries` vocabulary — ``A = 'x'``, ``A != 'x'``,
``A = B`` (a bare name on the right reads as an attribute), ``A in
('x', 'y')``, combined with ``and`` / ``or`` / ``not``.  Quoted values
are strings; bare numerals are numbers.

Bindings are inlined at parse time: ``parse_query(text, bindings)``
splices a bound name's tree wherever it is scanned, so the bound
query's *conditions* survive — materializing an intermediate as a plain
relation would forget under which completions its maybe-rows exist.

Nesting is bounded by :data:`MAX_DEPTH`, counted twice: parentheses and
``not`` as the parser descends, and operator levels in the finished tree
(bound trees included).  The parser, the schema checker, the analysis
and the evaluator all recurse on that structure, so a text past the
bound is a :class:`QueryParseError`, not a ``RecursionError``.
"""

from __future__ import annotations

import re
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
    TypeVar,
)

from ..errors import ReproError
from ..nullsem.queries import AndP, AttrEq, Eq, In, NotP, OrP, Pred
from .algebra import (
    Difference,
    Join,
    Node,
    Project,
    Rename,
    Scan,
    Select,
    Union,
    operands,
)

#: the deepest nesting a query may have (see the module docstring)
MAX_DEPTH = 100

_T = TypeVar("_T")


class QueryParseError(ReproError):
    """A syntactically malformed query; ``column`` is 1-based."""

    def __init__(self, message: str, column: int = 0) -> None:
        if column:
            message = f"{message} (column {column})"
        super().__init__(message)
        self.column = column
        self.code = "E_BAD_REQUEST"


_KEYWORDS = {
    "union", "minus", "join", "where", "rename", "in", "and", "or", "not",
}

_TOKEN = re.compile(
    r"""\s*(?:
        (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<string>'(?:[^'\\]|\\.)*'|"(?:[^"\\]|\\.)*")
      | (?P<symbol>!=|->|[=\[\](),])
    )""",
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # "name" | "number" | "string" | "symbol" | "end"
    text: str
    column: int  # 1-based


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    while position < len(text):
        match = _TOKEN.match(text, position)
        if match is None:
            rest = text[position:].lstrip()
            if not rest:
                break
            at = position + (len(text[position:]) - len(rest))
            raise QueryParseError(f"cannot read {rest[:12]!r}", column=at + 1)
        position = match.end()
        for kind in ("name", "number", "string", "symbol"):
            captured = match.group(kind)
            if captured is not None:
                tokens.append(_Token(kind, captured, match.start(kind) + 1))
                break
    tokens.append(_Token("end", "", len(text) + 1))
    return tokens


class _Parser:
    def __init__(
        self, text: str, bindings: Optional[Mapping[str, Node]] = None
    ) -> None:
        self.tokens = _tokenize(text)
        self.index = 0
        self.bindings = dict(bindings or {})
        self.depth = 0

    # -- cursor helpers ------------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def _advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        token = self.current
        return token.kind == "name" and token.text.lower() in words

    def _at_symbol(self, *symbols: str) -> bool:
        token = self.current
        return token.kind == "symbol" and token.text in symbols

    def _expect_symbol(self, symbol: str) -> None:
        if not self._at_symbol(symbol):
            raise QueryParseError(
                f"expected {symbol!r}, found "
                f"{self.current.text or 'end of input'!r}",
                column=self.current.column,
            )
        self._advance()

    def _expect_name(self, what: str) -> _Token:
        token = self.current
        if token.kind != "name" or token.text.lower() in _KEYWORDS:
            raise QueryParseError(
                f"expected {what}, found {token.text or 'end of input'!r}",
                column=token.column,
            )
        return self._advance()

    def _nested(self, parse: Callable[[], _T]) -> _T:
        """Parse one parenthesized or negated level, within the bound."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise QueryParseError(
                f"query nests deeper than {MAX_DEPTH} levels",
                column=self.current.column,
            )
        result = parse()
        self.depth -= 1
        return result

    # -- expression grammar --------------------------------------------------

    def parse(self) -> Node:
        node = self.expr()
        if self.current.kind != "end":
            raise QueryParseError(
                f"unexpected {self.current.text!r} after the query",
                column=self.current.column,
            )
        # every operator takes a token: only a long text or a spliced
        # binding can build a tree past the bound
        deep = len(self.tokens) > MAX_DEPTH or bool(self.bindings)
        if deep and _height(node) > MAX_DEPTH:
            raise QueryParseError(f"query nests deeper than {MAX_DEPTH} levels")
        return node

    def expr(self) -> Node:
        node = self.pipeline()
        while self._at_keyword("union", "minus"):
            word = self._advance().text.lower()
            right = self.pipeline()
            node = Union(node, right) if word == "union" else Difference(
                node, right
            )
        return node

    def pipeline(self) -> Node:
        node = self.atom()
        while True:
            if self._at_keyword("join"):
                self._advance()
                node = Join(node, self.atom())
            elif self._at_symbol("["):
                self._advance()
                attrs = [self._expect_name("an attribute").text]
                while self._at_symbol(","):
                    self._advance()
                    attrs.append(self._expect_name("an attribute").text)
                self._expect_symbol("]")
                node = Project(node, tuple(attrs))
            elif self._at_keyword("where"):
                self._advance()
                node = Select(node, self.pred_or())
            elif self._at_keyword("rename"):
                self._advance()
                pairs = [self._rename_pair()]
                while self._at_symbol(","):
                    self._advance()
                    pairs.append(self._rename_pair())
                node = Rename(node, tuple(pairs))
            else:
                return node

    def _rename_pair(self) -> Tuple[str, str]:
        old = self._expect_name("an attribute").text
        if not self._at_symbol("->"):
            raise QueryParseError(
                f"expected '->' after {old!r} in rename",
                column=self.current.column,
            )
        self._advance()
        new = self._expect_name("an attribute").text
        return old, new

    def atom(self) -> Node:
        if self._at_symbol("("):
            self._advance()
            node = self._nested(self.expr)
            self._expect_symbol(")")
            return node
        token = self._expect_name("a relation name")
        bound = self.bindings.get(token.text)
        if bound is not None:
            return bound
        return Scan(token.text)

    # -- predicate grammar ---------------------------------------------------

    def pred_or(self) -> Pred:
        node = self.pred_and()
        parts = [node]
        while self._at_keyword("or"):
            self._advance()
            parts.append(self.pred_and())
        return parts[0] if len(parts) == 1 else OrP(tuple(parts))

    def pred_and(self) -> Pred:
        parts = [self.pred_unary()]
        while self._at_keyword("and"):
            self._advance()
            parts.append(self.pred_unary())
        return parts[0] if len(parts) == 1 else AndP(tuple(parts))

    def pred_unary(self) -> Pred:
        if self._at_keyword("not"):
            self._advance()
            return NotP(self._nested(self.pred_unary))
        if self._at_symbol("("):
            self._advance()
            node = self._nested(self.pred_or)
            self._expect_symbol(")")
            return node
        return self.pred_atom()

    def pred_atom(self) -> Pred:
        attribute = self._expect_name("an attribute").text
        if self._at_keyword("in"):
            self._advance()
            self._expect_symbol("(")
            constants = [self._constant()]
            while self._at_symbol(","):
                self._advance()
                constants.append(self._constant())
            self._expect_symbol(")")
            return In(attribute, tuple(constants))
        if self._at_symbol("=", "!="):
            operator = self._advance().text
            token = self.current
            if token.kind == "name" and token.text.lower() not in _KEYWORDS:
                self._advance()
                base: Pred = AttrEq(attribute, token.text)
            else:
                base = Eq(attribute, self._constant())
            return NotP(base) if operator == "!=" else base
        raise QueryParseError(
            f"expected '=', '!=' or 'in' after {attribute!r}, found "
            f"{self.current.text or 'end of input'!r}",
            column=self.current.column,
        )

    def _constant(self) -> Any:
        token = self.current
        if token.kind == "string":
            self._advance()
            body = token.text[1:-1]
            return re.sub(r"\\(.)", r"\1", body)
        if token.kind == "number":
            self._advance()
            return float(token.text) if "." in token.text else int(token.text)
        raise QueryParseError(
            f"expected a constant, found {token.text or 'end of input'!r} "
            "(quote strings: 'value')",
            column=token.column,
        )


def _height(root: Node) -> int:
    """Operator levels from ``root`` down to its deepest scan, counted
    without recursion; a subtree shared by bindings is counted once."""
    heights: Dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        below = operands(node)
        pending = [child for child in below if id(child) not in heights]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        heights[id(node)] = 1 + max(
            (heights[id(child)] for child in below), default=0
        )
    return heights[id(root)]


class Statement(NamedTuple):
    """One parsed script/REPL line.

    ``kind`` is ``"blank"`` (empty line or ``#`` comment; ``node`` is
    None), ``"bind"`` (``name = expr``; evaluate and remember), or
    ``"query"`` (a bare expression to evaluate and show).
    """

    kind: str
    name: Optional[str]
    node: Optional[Node]


_BIND = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")


def parse_query(
    text: str, bindings: Optional[Mapping[str, Node]] = None
) -> Node:
    """Parse one query expression (bound names spliced in)."""
    return _Parser(text, bindings).parse()


def parse_statement(
    line: str, bindings: Optional[Mapping[str, Node]] = None
) -> Statement:
    """Parse one script line: blank/comment, binding, or query."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return Statement("blank", None, None)
    match = _BIND.match(stripped)
    if match and match.group(1).lower() not in _KEYWORDS:
        name, body = match.group(1), match.group(2)
        # ``a = b`` could open a predicate only inside ``where``; at
        # statement level a leading NAME '=' is always a binding.
        return Statement("bind", name, parse_query(body, bindings))
    return Statement("query", None, parse_query(stripped, bindings))
