"""FD-aware static analysis of query trees: one bottom-up pass.

:func:`optimize_tree` propagates inferred facts through every node of
the tree as written — no node is rewritten, and no conditional row is
ever built here: output scheme, null-flow (which columns can still
carry a null, per instance statistics), a verified finite *superset* of
the values each column can take (observed constants ∪ the column's
enumeration domain — the instance is the authority, since declared
domains are not enforced on constants), FD sets carried through the
classical propagation rules (and candidate keys from them, inferred on
read), row-count bounds, grounding-space bounds for the conditions
least-mode evaluation would have to ground, and which subtrees are
statically unsatisfiable.  :class:`PlanInfo` is the annotated tree the
plan linter (:mod:`repro.analysis.plan`) walks and ``EXPLAIN``
(:func:`render_plan`) renders.

**The gate.**  A select is branded unsatisfiable only when that is
provably mode-independent: either every attribute the predicate
references is *definite* (cannot carry a null, so Kleene evaluation is
already two-valued), or the evaluation mode is least-extension (where a
predicate false under every grounding is exactly false).  Kleene mode
keeps conditions over nullable columns undecided: a contradiction over
a null reads *unknown* there, not false.

Satisfiability itself goes through the least-extension kernel,
:mod:`~repro.core.conditions`: the predicate is resolved against a row
of fresh nulls (one per referenced attribute) and ground over small
models — the verified value supersets for domain-level verdicts,
mentioned constants plus one kernel fresh value per attribute for
domain-independent ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.conditions import fresh_values, grounded_truth
from ..core.domain import _FRESH_PREFIX, Domain
from ..core.fd import FD, as_fd
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.truth import FALSE, TruthValue
from ..core.values import NOTHING, Null, is_null, null
from ..nullsem.queries import (
    AndP,
    AttrEq,
    Eq,
    In,
    NotP,
    OrP,
    Pred,
    mentioned_constants,
    referenced_attributes,
    resolve,
)
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
    operands,
    output_schema,
)
from .evaluate import MODE_LEAST

#: combinatorial cap on small-model satisfiability enumeration
SAT_LIMIT = 4096

#: cap keeping grounding-space bounds out of bignum territory
_SPACE_CAP = 10**18


def _cap(value: int) -> int:
    return value if value < _SPACE_CAP else _SPACE_CAP


# ---------------------------------------------------------------------------
# instance statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationStats:
    """Per-relation facts verified from one scan of the instance.

    The analyzer reads the counts and pools; the
    :class:`~repro.query.evaluate.Evaluator` builds each null's grounding
    pool from ``domains`` and ``null_cells`` without rescanning a column.
    A served relation builds them once per cut (its read view), so every
    query at that cut shares them.
    """

    rows: int
    #: attribute → number of null cells in that column
    null_counts: Mapping[str, int]
    #: attribute → the column's enumeration domain
    #: (:meth:`~repro.core.relation.Relation.enumeration_domain`: what a
    #: null in that column ranges over before global intersection)
    domains: Mapping[str, Domain]
    #: attribute → verified finite superset of the column's possible
    #: values: observed constants ∪ the enumeration domain
    pools: Mapping[str, Tuple[Any, ...]]
    #: every null cell as ``(null, attribute)``, in row-major order
    null_cells: Tuple[Tuple[Null, str], ...]
    #: some cell holds NOTHING (the instance has no completion)
    has_nothing: bool


def relation_stats(relation: Relation) -> RelationStats:
    """Collect :class:`RelationStats` from a live relation."""
    attrs = relation.schema.attributes
    null_counts: Dict[str, int] = {a: 0 for a in attrs}
    observed: Dict[str, Dict[Any, None]] = {a: {} for a in attrs}
    null_cells: List[Tuple[Null, str]] = []
    for row in relation.rows:
        for attribute, value in zip(attrs, row.values):
            if is_null(value):
                null_counts[attribute] += 1
                null_cells.append((value, attribute))
            else:
                observed[attribute].setdefault(value)
    domains: Dict[str, Domain] = {}
    pools: Dict[str, Tuple[Any, ...]] = {}
    for attribute in attrs:
        domain = relation.enumeration_domain(attribute)
        domains[attribute] = domain
        pool = dict.fromkeys(observed[attribute])
        pool.update(dict.fromkeys(domain))
        pools[attribute] = tuple(pool)
    return RelationStats(
        rows=len(relation.rows),
        null_counts=null_counts,
        domains=domains,
        pools=pools,
        null_cells=tuple(null_cells),
        has_nothing=any(NOTHING in seen for seen in observed.values()),
    )


def collect_stats(
    env: Mapping[str, Relation]
) -> Dict[str, RelationStats]:
    """Stats for a whole environment, keyed by relation name."""
    return {name: relation_stats(rel) for name, rel in env.items()}


# ---------------------------------------------------------------------------
# inferred facts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Facts:
    """What the analyzer knows about one node's output, bottom-up."""

    attrs: Tuple[str, ...]
    #: attributes whose cells may still carry a null
    nullable: FrozenSet[str]
    #: attribute → verified finite value superset, or None (unverified)
    pools: Mapping[str, Optional[Tuple[Any, ...]]]
    #: upper bound on output rows (None without statistics)
    est_rows: Optional[int]
    #: bound on the groundings least mode enumerates per row condition
    ground_space: int
    #: bound on the joint grounding space of every null the subtree scans
    null_space: int
    #: provably produces no row under the analysis gate
    empty: bool
    #: FDs holding in the output (classical propagation)
    fds: Tuple[FD, ...]


class _Ctx:
    """Shared analysis parameters."""

    __slots__ = ("catalog", "stats", "fds", "mode")

    def __init__(
        self,
        catalog: Mapping[str, RelationSchema],
        stats: Mapping[str, RelationStats],
        fds: Mapping[str, Any],
        mode: str,
    ) -> None:
        self.catalog = catalog
        self.stats = stats
        self.fds = fds
        self.mode = mode


def _dsize(facts: Facts, attribute: str) -> int:
    """Domain-size bound for a null in this column (2 when unverified)."""
    pool = facts.pools.get(attribute)
    if pool:
        return len(pool)
    return 2


def _project_fd_tuple(
    fds: Tuple[FD, ...], attrs: Tuple[str, ...]
) -> Tuple[FD, ...]:
    if not fds:
        return ()
    from ..normalization.projection import project_fds

    return tuple(project_fds(fds, attrs, max_lhs=3))


def _facts_of(node: Node, children: Sequence[Facts], ctx: _Ctx) -> Facts:
    if isinstance(node, Scan):
        schema = ctx.catalog.get(node.name)
        if schema is None:
            raise QueryError(
                f"unknown relation {node.name!r}", code="E_UNKNOWN_RELATION"
            )
        attrs = schema.attributes
        st = ctx.stats.get(node.name)
        fd_tuple = tuple(as_fd(f) for f in ctx.fds.get(node.name, ()))
        if st is None:
            return Facts(
                attrs=attrs,
                nullable=frozenset(attrs),
                pools={a: None for a in attrs},
                est_rows=None,
                ground_space=1,
                null_space=1,
                empty=False,
                fds=fd_tuple,
            )
        null_space = 1
        for attribute in attrs:
            count = st.null_counts.get(attribute, 0)
            if count:
                size = max(1, len(st.domains.get(attribute, ())))
                null_space = _cap(null_space * size**count)
        return Facts(
            attrs=attrs,
            nullable=frozenset(
                a for a in attrs if st.null_counts.get(a, 0)
            ),
            pools={a: st.pools.get(a, ()) for a in attrs},
            est_rows=st.rows,
            ground_space=1,
            null_space=null_space,
            # an instance that happens to be empty is not *statically
            # unsatisfiable* — emptiness here means proved-dead plans
            empty=False,
            fds=fd_tuple,
        )

    if isinstance(node, Select):
        (child,) = children
        space = child.ground_space
        for attribute in referenced_attributes(node.pred):
            if attribute in child.nullable:
                space = _cap(space * _dsize(child, attribute))
        return Facts(
            attrs=child.attrs,
            nullable=child.nullable,
            pools=child.pools,
            est_rows=child.est_rows,
            ground_space=space,
            null_space=child.null_space,
            empty=child.empty
            or _unsatisfiable(node.pred, child, ctx.mode),
            fds=child.fds,
        )

    if isinstance(node, Project):
        (child,) = children
        attrs = tuple(node.attributes)
        return Facts(
            attrs=attrs,
            nullable=child.nullable & frozenset(attrs),
            pools={a: child.pools.get(a) for a in attrs},
            est_rows=child.est_rows,
            ground_space=child.ground_space,
            null_space=child.null_space,
            empty=child.empty,
            fds=_project_fd_tuple(child.fds, attrs),
        )

    if isinstance(node, Join):
        left, right = children
        shared = tuple(a for a in left.attrs if a in right.attrs)
        extra = tuple(a for a in right.attrs if a not in left.attrs)
        attrs = left.attrs + extra
        nullable: Set[str] = set()
        pools: Dict[str, Optional[Tuple[Any, ...]]] = {}
        for attribute in attrs:
            if attribute in shared:
                # output cell is the left value unless the left is null
                # and the right a constant; null only when both are
                if (
                    attribute in left.nullable
                    and attribute in right.nullable
                ):
                    nullable.add(attribute)
                lp = left.pools.get(attribute)
                rp = right.pools.get(attribute)
                if lp is None or rp is None:
                    pools[attribute] = None
                else:
                    merged = dict.fromkeys(lp)
                    merged.update(dict.fromkeys(rp))
                    pools[attribute] = tuple(merged)
            elif attribute in left.attrs:
                if attribute in left.nullable:
                    nullable.add(attribute)
                pools[attribute] = left.pools.get(attribute)
            else:
                if attribute in right.nullable:
                    nullable.add(attribute)
                pools[attribute] = right.pools.get(attribute)
        space = _cap(left.ground_space * right.ground_space)
        for attribute in shared:
            if attribute in left.nullable:
                space = _cap(space * _dsize(left, attribute))
            if attribute in right.nullable:
                space = _cap(space * _dsize(right, attribute))
        est: Optional[int] = None
        if left.est_rows is not None and right.est_rows is not None:
            est = _cap(left.est_rows * right.est_rows)
        seen_fds: Dict[FD, None] = dict.fromkeys(left.fds)
        seen_fds.update(dict.fromkeys(right.fds))
        return Facts(
            attrs=attrs,
            nullable=frozenset(nullable),
            pools=pools,
            est_rows=est,
            ground_space=space,
            null_space=_cap(left.null_space * right.null_space),
            empty=left.empty or right.empty,
            fds=tuple(seen_fds),
        )

    if isinstance(node, Rename):
        (child,) = children
        mapping = dict(node.mapping)
        attrs = tuple(mapping.get(a, a) for a in child.attrs)
        renamed_fds: List[FD] = []
        for fd in child.fds:
            renamed_fds.append(
                FD(
                    tuple(mapping.get(a, a) for a in fd.lhs),
                    tuple(mapping.get(a, a) for a in fd.rhs),
                )
            )
        return Facts(
            attrs=attrs,
            nullable=frozenset(
                mapping.get(a, a) for a in child.nullable
            ),
            pools={
                mapping.get(a, a): child.pools.get(a) for a in child.attrs
            },
            est_rows=child.est_rows,
            ground_space=child.ground_space,
            null_space=child.null_space,
            empty=child.empty,
            fds=tuple(renamed_fds),
        )

    if isinstance(node, Union):
        left, right = children
        pools = {}
        for attribute in left.attrs:
            lp = left.pools.get(attribute)
            rp = right.pools.get(attribute)
            if lp is None or rp is None:
                pools[attribute] = None
            else:
                merged = dict.fromkeys(lp)
                merged.update(dict.fromkeys(rp))
                pools[attribute] = tuple(merged)
        est = None
        if left.est_rows is not None and right.est_rows is not None:
            est = _cap(left.est_rows + right.est_rows)
        return Facts(
            attrs=left.attrs,
            nullable=left.nullable | right.nullable,
            pools=pools,
            est_rows=est,
            ground_space=max(left.ground_space, right.ground_space),
            null_space=_cap(left.null_space * right.null_space),
            empty=left.empty and right.empty,
            fds=(),
        )

    if isinstance(node, Difference):
        left, right = children
        # a surviving left row's condition conjoins, over *every* right
        # row, the negated match formula — so it can reference the left
        # row's own value nulls plus every null the right subtree scans
        row_space = left.ground_space
        for attribute in left.attrs:
            if attribute in left.nullable:
                row_space = _cap(row_space * _dsize(left, attribute))
        return Facts(
            attrs=left.attrs,
            nullable=left.nullable,
            pools=left.pools,
            est_rows=left.est_rows,
            ground_space=_cap(row_space * right.null_space),
            null_space=_cap(left.null_space * right.null_space),
            empty=left.empty,
            fds=left.fds,
        )

    raise QueryError(f"not a query node: {node!r}")


# ---------------------------------------------------------------------------
# predicate satisfiability over small models (via the kernel)
# ---------------------------------------------------------------------------


def _is_open_pool(pool: Sequence[Any]) -> bool:
    """True when a pool is an equality-pattern surrogate, not a closed set.

    Columns without a declared finite domain enumerate over
    ``effective_domain``'s fresh symbols.  A fresh symbol realizes "some
    value different from these" — sound for equality *patterns*, but not
    a verified membership superset: deciding ``B = 'b1'`` against it
    would brand every constant the instance hasn't seen yet a
    contradiction (and the plan linter would refuse queries over
    still-empty relations).  Satisfiability verdicts therefore only use
    pools with no fresh symbols — in practice, declared finite domains —
    which also keeps ``E_EMPTY_CERTAIN`` instance-independent.
    """
    return any(
        isinstance(value, str) and value.startswith(_FRESH_PREFIX)
        for value in pool
    )


def _pred_truth(
    pred: Pred, pools: Mapping[str, Sequence[Any]], limit: int = SAT_LIMIT
) -> Optional[TruthValue]:
    """The lub of the two-valued predicate over the product of
    per-attribute pools — TRUE for a tautology, FALSE for a
    contradiction — or None when undecidable (a pool is empty or the
    product exceeds ``limit``).

    The predicate is resolved against a row of fresh nulls — one per
    attribute — through :func:`~repro.nullsem.queries.resolve`, the
    evaluator's own resolution, and ground by the kernel's
    :func:`~repro.core.conditions.grounded_truth`, so the model and the
    runtime share one semantics.
    """
    if not 0 < math.prod(len(pool) for pool in pools.values()) <= limit:
        return None
    variables = tuple(null() for _ in pools)
    positions = {attribute: i for i, attribute in enumerate(pools)}
    cond = resolve(pred, positions, variables)
    domains = {
        id(variable): tuple(pool)
        for variable, pool in zip(variables, pools.values())
    }
    return grounded_truth(cond, domains)


def _unsatisfiable(pred: Pred, child: Facts, mode: str) -> bool:
    """True when ``pred`` is provably false on every row of ``child``,
    under the gate."""
    refs = tuple(referenced_attributes(pred))
    if mode != MODE_LEAST and any(a in child.nullable for a in refs):
        return False
    # domain-independent contradiction: mentioned constants plus one
    # *shared* fresh value per referenced attribute is a complete
    # small model for equality logic — k fresh values visible to every
    # attribute realize each equality pattern among k variables
    # (per-attribute private ones would brand `A = B` unsatisfiable)
    shared = mentioned_constants(pred) + fresh_values(len(refs))
    if _pred_truth(pred, {a: shared for a in refs}) is FALSE:
        return True
    # domain-level verdicts need a verified value superset per attribute
    verified: Dict[str, Sequence[Any]] = {}
    for attribute in refs:
        pool = child.pools.get(attribute)
        if not pool or _is_open_pool(pool):
            return False
        verified[attribute] = pool
    return _pred_truth(pred, verified) is FALSE


# ---------------------------------------------------------------------------
# the annotated plan tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanInfo:
    """One node of the analyzed tree: the node, its facts, its keys."""

    node: Node
    facts: Facts
    children: Tuple["PlanInfo", ...]
    label: str

    @property
    def keys(self) -> Tuple[Tuple[str, ...], ...]:
        """Candidate keys of the node's output, from its FDs — inferred
        on read, since only EXPLAIN shows them."""
        return _candidate_keys(self.facts)


def pred_text(pred: Pred) -> str:
    """Pipeline-syntax rendering of a predicate (for labels and ops)."""
    if isinstance(pred, Eq):
        return f"{pred.attribute} = {pred.constant!r}"
    if isinstance(pred, In):
        inner = ", ".join(repr(c) for c in pred.constants)
        return f"{pred.attribute} in ({inner})"
    if isinstance(pred, AttrEq):
        return f"{pred.first} = {pred.second}"
    if isinstance(pred, NotP):
        return f"not ({pred_text(pred.operand)})"
    if isinstance(pred, AndP):
        return " and ".join(
            f"({pred_text(p)})" for p in pred.operands
        )
    if isinstance(pred, OrP):
        return " or ".join(f"({pred_text(p)})" for p in pred.operands)
    return repr(pred)


def _node_label(node: Node, children: Sequence[Facts]) -> str:
    if isinstance(node, Scan):
        return f"Scan {node.name}"
    if isinstance(node, Select):
        return f"Select {pred_text(node.pred)}"
    if isinstance(node, Project):
        return f"Project [{' '.join(node.attributes)}]"
    if isinstance(node, Rename):
        pairs = ", ".join(f"{old}->{new}" for old, new in node.mapping)
        return f"Rename {pairs}"
    if isinstance(node, Join):
        left, right = children
        shared = [a for a in left.attrs if a in right.attrs]
        if shared:
            return f"Join strategy=bucket({' '.join(shared)})"
        return "Join strategy=nested-loop(cross)"
    if isinstance(node, Union):
        return "Union"
    if isinstance(node, Difference):
        return "Difference"
    return type(node).__name__


def _candidate_keys(facts: Facts) -> Tuple[Tuple[str, ...], ...]:
    if not facts.fds or len(facts.attrs) > 10 or len(facts.fds) > 16:
        return ()
    from ..armstrong.keys import candidate_keys

    return tuple(candidate_keys(facts.attrs, facts.fds, limit=32))


# name kept: perfbench wraps it as query.optimize.plan, required by CI's smoke
def optimize_tree(
    node: Node,
    catalog: Mapping[str, RelationSchema],
    stats: Optional[Mapping[str, RelationStats]] = None,
    fds: Optional[Mapping[str, Any]] = None,
    mode: str = MODE_LEAST,
) -> PlanInfo:
    """Annotate a tree, as written, with inferred facts, bottom-up.

    ``catalog`` maps relation name → scheme, ``stats`` relation name →
    :class:`RelationStats` (without them every column is nullable and
    no bound is known) and ``fds`` relation name → FD set (for key
    inference).  The tree is schema-checked first.
    """
    output_schema(node, catalog)
    return _analyze(node, _Ctx(catalog, stats or {}, fds or {}, mode))


def _analyze(node: Node, ctx: _Ctx) -> PlanInfo:
    children = tuple(_analyze(child, ctx) for child in operands(node))
    child_facts = [info.facts for info in children]
    facts = _facts_of(node, child_facts, ctx)
    return PlanInfo(
        node=node,
        facts=facts,
        children=children,
        label=_node_label(node, child_facts),
    )


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------


def render_plan(plan: PlanInfo) -> str:
    """The EXPLAIN text: the tree with its inferred keys, null-flow,
    join strategies and bounds, one node per line."""
    lines: List[str] = []

    def walk(info: PlanInfo, depth: int) -> None:
        facts = info.facts
        parts = [info.label]
        if facts.est_rows is not None:
            parts.append(f"rows<={facts.est_rows}")
        if facts.nullable:
            parts.append(
                "nullable=" + ",".join(sorted(facts.nullable))
            )
        keys = info.keys
        if keys:
            rendered = " ".join("(" + " ".join(key) + ")" for key in keys)
            parts.append(f"keys={rendered}")
        if facts.empty:
            parts.append("EMPTY")
        if facts.ground_space > 1:
            parts.append(f"ground<={facts.ground_space}")
        lines.append("  " * depth + " ".join(parts))
        for child in info.children:
            walk(child, depth + 1)

    walk(plan, 0)
    return "\n".join(lines)
