"""``repro.query`` — relational algebra over incomplete instances.

The paper's Section 2 gives exact *least-extension* semantics for
queries over instances with nulls.  One kernel implements it,
:mod:`repro.core.conditions`: constraint formulas over null/constant
equalities, evaluated Kleene-style (linear, under-informative) or by
least-extension grounding (exact, local), with one pool rule and one
grounding enumeration.  :mod:`repro.nullsem.queries` evaluates one-row
predicates through it; this package threads it through a usable query
layer, one condition per derived row:

* :mod:`~repro.query.algebra` — the operator AST
  (``select``/``project``/``join``/``union``/``difference``/``rename``)
  and its static schema checker;
* :mod:`~repro.query.evaluate` — the evaluator: **certain** answers
  (rows in the query result under *every* completion of the database)
  and **maybe** answers (under *some* completion), with nulls
  propagated by identity so a null shared across relations equates
  across a join; plus the ground answer sets the differential test
  suite compares against brute-force completion enumeration;
* :mod:`~repro.query.optimize` — static analysis: one bottom-up pass
  of fact inference over the tree as written (schemas, null-flow,
  verified value supersets, FD/key propagation, grounding-space bounds,
  statically unsatisfiable subtrees) that the plan linter walks and
  ``EXPLAIN`` renders;
* :mod:`~repro.query.parser` — the concrete syntax behind ``repro
  query`` and the REPL;
* :mod:`~repro.query.repl` — the interactive shell.

Answers are :class:`repro.api.ResultSet` objects — materializable as
relations and usable as chase/session inputs.
"""

from .algebra import (
    Difference,
    Join,
    Node,
    Project,
    QueryError,
    Rename,
    Scan,
    Select,
    Union,
    output_schema,
    relation_names,
)
from .evaluate import (
    MODE_KLEENE,
    MODE_LEAST,
    Evaluator,
    evaluate,
    ground_answers,
)
from .optimize import (
    PlanInfo,
    RelationStats,
    collect_stats,
    optimize_tree,
    render_plan,
)
from .parser import QueryParseError, parse_query, parse_statement

__all__ = [
    "Difference",
    "Evaluator",
    "Join",
    "MODE_KLEENE",
    "MODE_LEAST",
    "Node",
    "PlanInfo",
    "Project",
    "QueryError",
    "QueryParseError",
    "RelationStats",
    "Rename",
    "Scan",
    "Select",
    "Union",
    "collect_stats",
    "evaluate",
    "ground_answers",
    "optimize_tree",
    "output_schema",
    "parse_query",
    "parse_statement",
    "relation_names",
    "render_plan",
]
