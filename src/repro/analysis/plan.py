"""The query-plan linter: refuse-before-execute, extended to reads.

PR 8's :mod:`repro.analysis.check` decides mutation scripts before the
engine runs them; this pass does the same for query trees, reading the
facts :func:`repro.query.optimize.optimize_tree` infers bottom-up over
the tree as written.  It is the one caller that analyzes every served
query (the evaluator runs the tree without planning it; ``EXPLAIN``
renders the same analysis):

* ``E_EMPTY_CERTAIN`` (error) — the subtree is statically
  unsatisfiable: under the analysis gate (definite attributes, or
  least mode) no completion produces a row, so executing the query is
  pointless at best and a client bug at worst;
* ``W_DEAD_BRANCH`` (warning) — a union arm is provably empty; the
  query still answers, the arm just contributes nothing;
* ``W_CROSS_PRODUCT`` (warning) — a join shares no attributes, so
  evaluation enumerates the full cartesian product;
* ``W_GROUND_BLOWUP`` (warning) — a condition's grounding space can
  exceed the enumeration budget.  The bound is a worst case over every
  null the subtree scans, and Kleene pre-simplification usually leaves
  conditions referencing far fewer — so even in least mode, where the
  hazard is a real :class:`~repro.errors.DomainError`, this flags
  rather than refuses; in Kleene mode conditions are never ground and
  the message describes what switching modes could cost.

Severity is a field, not a prefix (the ``E_FD_CONFLICT``-as-warning
precedent), so a surface *could* escalate; today only
``E_EMPTY_CERTAIN`` is refusal-grade.

Query-layer imports are function-local, as in :mod:`.check` — the query
package imports :mod:`repro.analysis.sanitize` at run time, and keeping
this module import-light breaks the cycle.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from .diagnostics import Diagnostic

__all__ = ["lint_query_plan"]


def _plan_diag(
    code: str,
    line: int,
    op: str,
    message: str,
    hint: str = "",
    severity: str = "error",
) -> Diagnostic:
    return Diagnostic(
        code=code,
        line=line,
        op=op,
        message=message,
        hint=hint,
        severity=severity,
    )


def lint_query_plan(
    catalog: Mapping[str, Any],
    node: Any,
    stats: Optional[Mapping[str, Any]] = None,
    fds: Optional[Mapping[str, Any]] = None,
    mode: str = "least",
    limit: Optional[int] = None,
    line: int = 0,
    op: str = "",
) -> List[Diagnostic]:
    """Every plan-level finding for one (statically valid) query tree.

    ``catalog`` maps relation name → scheme; ``stats`` (optional) maps
    relation name → :class:`~repro.query.optimize.RelationStats` — the
    instance-derived facts that power null-flow and blow-up bounds.
    Without stats every column is assumed nullable and grounding spaces
    are unknown, so only domain-independent findings fire.
    """
    from ..query.evaluate import DEFAULT_LIMIT
    from ..query.optimize import PlanInfo, optimize_tree
    from ..query.algebra import Join, Union

    budget = DEFAULT_LIMIT if limit is None else limit
    info = optimize_tree(node, catalog, stats=stats, fds=fds, mode=mode)
    diagnostics: List[Diagnostic] = []

    def walk(current: PlanInfo, parent: Optional[PlanInfo]) -> None:
        facts = current.facts
        if facts.empty:
            if parent is not None and isinstance(parent.node, Union):
                diagnostics.append(
                    _plan_diag(
                        "W_DEAD_BRANCH",
                        line,
                        op,
                        f"union arm `{current.label}` is provably empty "
                        "and contributes no rows",
                        hint="drop the arm or fix its predicate",
                        severity="warning",
                    )
                )
            else:
                diagnostics.append(
                    _plan_diag(
                        "E_EMPTY_CERTAIN",
                        line,
                        op,
                        f"subtree `{current.label}` is statically "
                        "unsatisfiable; no completion produces a row",
                        hint="the predicate contradicts itself or the "
                        "verified column domains",
                    )
                )
            return  # findings inside a dead subtree are noise
        if isinstance(current.node, Join):
            left, right = current.children
            shared = [
                a for a in left.facts.attrs if a in right.facts.attrs
            ]
            if not shared:
                est = ""
                if facts.est_rows is not None:
                    est = f" (up to {facts.est_rows} rows)"
                diagnostics.append(
                    _plan_diag(
                        "W_CROSS_PRODUCT",
                        line,
                        op,
                        "join shares no attributes; evaluation "
                        f"enumerates the full cross product{est}",
                        hint="rename a column to join on, or select "
                        "before joining",
                        severity="warning",
                    )
                )
        if facts.ground_space > budget and all(
            child.facts.ground_space <= budget
            for child in current.children
        ):
            # the bound is a worst case over every null the subtree
            # scans — conditions usually reference far fewer after
            # Kleene simplification — so this stays warning-grade even
            # in least mode: flag the hazard, don't refuse the query
            consequence = (
                "least-mode evaluation may raise DomainError"
                if mode == "least"
                else "switching to least mode could exceed the budget"
            )
            diagnostics.append(
                _plan_diag(
                    "W_GROUND_BLOWUP",
                    line,
                    op,
                    f"`{current.label}` can ground up to "
                    f"{facts.ground_space} bindings per condition "
                    f"(budget {budget}); {consequence}",
                    hint="project nulls away before this operator, or "
                    "evaluate in kleene mode",
                    severity="warning",
                )
            )
        for child in current.children:
            walk(child, current)

    walk(info, None)
    return diagnostics
