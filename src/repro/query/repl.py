"""The interactive query shell behind ``repro query --repl``.

A thin, fully testable loop: :class:`QueryRepl` holds the environment
(name → relation), the evaluation mode, and the bindings accumulated by
``name = expr`` lines; :meth:`QueryRepl.execute` turns one input line
into one block of output text, so tests (and the CLI's ``-e`` /
``--script`` paths) drive it without a terminal.

Dot-commands::

    .help                 this text
    .relations            list the queryable relations
    .schema NAME          one relation's attributes and domains
    .mode [kleene|least]  show or switch the evaluation mode
    .quit                 leave the shell

``explain Q`` prints the plan for ``Q`` (the tree as written, with
inferred keys, join strategies and bounds) without evaluating it.
"""

from __future__ import annotations

from typing import Any, Dict, IO, Iterable, List, Mapping, Optional

from ..api import ResultSet
from ..core.relation import Relation
from ..core.values import is_null
from ..errors import DomainError, ReproError
from .algebra import Node
from .evaluate import MODE_KLEENE, MODE_LEAST, Evaluator
from .parser import parse_statement

_HELP = """\
Enter a query (e.g.  emp where dept = 'sales' [name])  or bind one
(ans = emp join dept_mgr).  Operators: where, [attrs], rename a -> b,
join, union, minus.  `explain Q` shows Q's plan without running
it.  Dot-commands: .help .relations .schema NAME
.mode [kleene|least] .quit"""


def render_value(value: Any) -> str:
    """One cell: constants verbatim, nulls by label (⊥-prefixed)."""
    if is_null(value):
        return repr(value)
    return str(value)


def render_result(result: ResultSet) -> str:
    """A fixed-width table of both answer sets, tagged per row."""
    attributes = result.attributes
    body: List[tuple] = [
        *((row, "certain") for row in result.certain.rows),
        *((row, "maybe") for row in result.maybe.rows),
    ]
    header = list(attributes)
    rendered = [
        [render_value(value) for value in row] + [tag] for row, tag in body
    ]
    widths = [
        max(len(header[i]), *(len(line[i]) for line in rendered))
        if rendered
        else len(header[i])
        for i in range(len(header))
    ]
    lines = [
        "  ".join(name.ljust(widths[i]) for i, name in enumerate(header)),
        "  ".join("-" * width for width in widths),
    ]
    for line in rendered:
        cells = [line[i].ljust(widths[i]) for i in range(len(header))]
        cells.append(line[-1])
        lines.append("  ".join(cells))
    summary = (
        f"({len(result.certain.rows)} certain, "
        f"{len(result.maybe.rows)} maybe"
    )
    if result.as_of is not None:
        summary += f"; as_of={result.as_of}"
    summary += ")"
    lines.append(summary)
    return "\n".join(lines)


class QueryRepl:
    """One shell session: environment + mode + accumulated bindings."""

    def __init__(
        self,
        env: Mapping[str, Relation],
        mode: str = MODE_LEAST,
        fds: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.env = dict(env)
        self.mode = mode
        self.fds = fds
        self.bindings: Dict[str, Node] = {}
        self.done = False

    def _evaluator(self) -> Evaluator:
        return Evaluator(self.env, fds=self.fds)

    # -- one line in, one block of text out ---------------------------------

    def execute(self, line: str) -> str:
        stripped = line.strip()
        if stripped.startswith("."):
            return self._command(stripped)
        try:
            parts = stripped.split(None, 1)
            head = parts[0] if parts else ""
            rest = parts[1] if len(parts) > 1 else ""
            # `explain = q` is still a binding of the name "explain"
            if head == "explain" and not rest.lstrip().startswith("="):
                if not rest.strip():
                    return "usage: explain QUERY"
                statement = parse_statement(rest, self.bindings)
                if statement.kind == "blank" or statement.node is None:
                    return "usage: explain QUERY"
                return self._evaluator().explain(
                    statement.node, mode=self.mode
                )
            statement = parse_statement(line, self.bindings)
            if statement.kind == "blank":
                return ""
            assert statement.node is not None
            result = self._evaluator().run(statement.node, mode=self.mode)
            if statement.kind == "bind":
                assert statement.name is not None
                self.bindings[statement.name] = statement.node
                return (
                    f"{statement.name} = "
                    f"({len(result.certain.rows)} certain, "
                    f"{len(result.maybe.rows)} maybe)"
                )
            return render_result(result)
        except DomainError as error:
            return f"domain error: {error}"
        except ReproError as error:
            return f"error: {error}"

    def _command(self, command: str) -> str:
        parts = command.split()
        word, args = parts[0], parts[1:]
        if word in (".quit", ".exit"):
            self.done = True
            return ""
        if word == ".help":
            return _HELP
        if word == ".relations":
            if not self.env:
                return "(no relations)"
            return "\n".join(
                f"{name}({', '.join(rel.schema.attributes)}) — "
                f"{len(rel.rows)} rows, {rel.null_count()} null cells"
                for name, rel in sorted(self.env.items())
            )
        if word == ".schema":
            if not args:
                return "usage: .schema NAME"
            relation = self.env.get(args[0])
            if relation is None:
                return f"error: unknown relation {args[0]!r}"
            lines = []
            for attribute in relation.schema.attributes:
                domain = relation.schema.domain(attribute)
                extent = (
                    f"{{{', '.join(str(v) for v in domain)}}}"
                    if domain.is_finite
                    else "unbounded"
                )
                lines.append(f"{attribute}: {extent}")
            return "\n".join(lines)
        if word == ".mode":
            if not args:
                return f"mode: {self.mode}"
            if args[0] not in (MODE_KLEENE, MODE_LEAST):
                return f"error: unknown mode {args[0]!r} (kleene|least)"
            self.mode = args[0]
            return f"mode: {self.mode}"
        return f"error: unknown command {word!r} (try .help)"


def run_repl(
    env: Mapping[str, Relation],
    lines: Iterable[str],
    out: IO[str],
    mode: str = MODE_LEAST,
    prompt: Optional[str] = None,
    fds: Optional[Mapping[str, Any]] = None,
) -> QueryRepl:
    """Feed ``lines`` through a shell, writing each block to ``out``.

    The CLI passes a stdin iterator and a prompt; tests pass a list and
    capture ``out``.  Returns the shell so callers can inspect state.
    """
    repl = QueryRepl(env, mode=mode, fds=fds)
    if prompt:
        out.write(prompt)
        out.flush()
    for line in lines:
        block = repl.execute(line)
        if block:
            out.write(block + "\n")
        if repl.done:
            break
        if prompt:
            out.write(prompt)
            out.flush()
    return repl
