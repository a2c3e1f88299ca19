"""FD-aware static analysis and proved-equivalent rewriting of query trees.

Two layers over the :mod:`~repro.query.algebra` AST, both purely static
(no conditional row is ever built here):

* **analysis** — :func:`analyze` propagates inferred facts bottom-up
  through every node: output scheme, null-flow (which columns can still
  carry a null, per instance statistics), a verified finite *superset*
  of the values each column can take (observed constants ∪ the column's
  enumeration domain — the instance is the authority, since declared
  domains are not enforced on constants), FD sets carried through the
  classical propagation rules (and candidate keys from them), row-count
  bounds, and grounding-space bounds for the conditions least-mode
  evaluation would have to ground.  :class:`PlanInfo` is the annotated
  tree the plan linter (:mod:`repro.analysis.plan`) and ``EXPLAIN``
  read.

* **rewriting** — :func:`optimize_tree` applies equivalence-preserving
  rewrites: select pushdown (through join sides that avoid shared
  attributes, through union arms, into the left side of a difference,
  below projections), projection pushdown (narrowing join inputs to
  needed ∪ shared, through unions, collapsing stacked projections),
  condition simplification (tautology and contradiction elimination,
  gated — see below), :class:`~repro.query.algebra.Empty` cascades, and
  cross-product fusion (reordering a pure cross chain by estimated
  cardinality).  Every fired rewrite is recorded by name on the
  returned :class:`Plan`.

**The gate.**  Tautology/contradiction elimination changes which
conditions the evaluator grounds, so it is only applied when provably
invisible: either every attribute the predicate references is
*definite* (cannot carry a null, so Kleene evaluation is already
two-valued), or the evaluation mode is least-extension (where a
predicate true/false under every grounding is exactly true/false) *and*
the caller vouches that no environment null has an empty consistent
domain (``least_safe`` — otherwise eliminating a condition could mask
the :class:`~repro.errors.DomainError` unoptimized evaluation raises).
Kleene mode keeps conditions over nullable columns untouched: a
domain-exhausting disjunction reads *unknown* there, and rewriting it
away would change answers.

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
from ..core.truth import FALSE, TRUE, TruthValue
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
    Empty,
    Join,
    Node,
    Project,
    QueryError,
    Rename,
    Scan,
    Select,
    Union,
    output_schema,
)
from .evaluate import DEFAULT_LIMIT, MODE_LEAST

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

    __slots__ = ("catalog", "stats", "fds", "mode", "limit", "least_safe")

    def __init__(
        self,
        catalog: Mapping[str, RelationSchema],
        stats: Mapping[str, RelationStats],
        fds: Mapping[str, Any],
        mode: str,
        limit: int,
        least_safe: bool,
    ) -> None:
        self.catalog = catalog
        self.stats = stats
        self.fds = fds
        self.mode = mode
        self.limit = limit
        self.least_safe = least_safe

    def facts(self, node: Node) -> Facts:
        children = _children(node)
        return _facts_of(node, [self.facts(c) for c in children], self)


def _children(node: Node) -> Tuple[Node, ...]:
    if isinstance(node, (Scan, Empty)):
        return ()
    if isinstance(node, (Select, Project, Rename)):
        return (node.source,)
    if isinstance(node, (Join, Union, Difference)):
        return (node.left, node.right)
    raise QueryError(f"not a query node: {node!r}")


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
    try:
        from ..normalization.projection import project_fds

        projected = project_fds(fds, attrs, max_lhs=3)
        return tuple(projected)
    except Exception:  # pragma: no cover - key inference is best-effort
        return ()


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

    if isinstance(node, Empty):
        attrs = tuple(node.attributes)
        return Facts(
            attrs=attrs,
            nullable=frozenset(),
            pools={a: () for a in attrs},
            est_rows=0,
            ground_space=1,
            null_space=1,
            empty=True,
            fds=(),
        )

    if isinstance(node, Select):
        (child,) = children
        space = child.ground_space
        for attribute in referenced_attributes(node.pred):
            if attribute in child.nullable:
                space = _cap(space * _dsize(child, attribute))
        verdict = _select_verdict(node.pred, child, ctx)
        return Facts(
            attrs=child.attrs,
            nullable=child.nullable,
            pools=child.pools,
            est_rows=child.est_rows,
            ground_space=space,
            null_space=child.null_space,
            empty=child.empty or verdict == "contradiction",
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


def _select_verdict(
    pred: Pred, child: Facts, ctx: _Ctx
) -> Optional[str]:
    """``"tautology"`` / ``"contradiction"`` / None, under the gate."""
    refs = tuple(referenced_attributes(pred))
    definite = all(a not in child.nullable for a in refs)
    gate = definite or (ctx.mode == MODE_LEAST and ctx.least_safe)
    if not gate:
        return None
    # domain-independent contradiction: mentioned constants plus one
    # *shared* fresh value per referenced attribute is a complete
    # small model for equality logic — k fresh values visible to every
    # attribute realize each equality pattern among k variables
    # (per-attribute private ones would brand `A = B` unsatisfiable)
    shared = mentioned_constants(pred) + fresh_values(len(refs))
    if _pred_truth(pred, {a: shared for a in refs}) is FALSE:
        return "contradiction"
    # domain-level verdicts need a verified value superset per attribute
    verified: Dict[str, Sequence[Any]] = {}
    for attribute in refs:
        pool = child.pools.get(attribute)
        if not pool or _is_open_pool(pool):
            return None
        verified[attribute] = pool
    truth = _pred_truth(pred, verified)
    if truth is FALSE:
        return "contradiction"
    if truth is TRUE:
        return "tautology"
    return None


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
    if isinstance(node, Empty):
        return f"Empty [{' '.join(node.attributes)}]"
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
    try:
        from ..armstrong.keys import candidate_keys

        return tuple(candidate_keys(facts.attrs, facts.fds, limit=32))
    except Exception:  # pragma: no cover - key inference is best-effort
        return ()


def analyze(
    node: Node,
    catalog: Mapping[str, RelationSchema],
    stats: Optional[Mapping[str, RelationStats]] = None,
    fds: Optional[Mapping[str, Any]] = None,
    mode: str = MODE_LEAST,
    limit: int = DEFAULT_LIMIT,
    least_safe: bool = True,
) -> PlanInfo:
    """Annotate a (validated) tree with inferred facts, bottom-up."""
    output_schema(node, catalog)
    ctx = _Ctx(catalog, stats or {}, fds or {}, mode, limit, least_safe)
    return _analyze(node, ctx)


def _analyze(node: Node, ctx: _Ctx) -> PlanInfo:
    children = tuple(_analyze(child, ctx) for child in _children(node))
    child_facts = [info.facts for info in children]
    facts = _facts_of(node, child_facts, ctx)
    return PlanInfo(
        node=node,
        facts=facts,
        children=children,
        label=_node_label(node, child_facts),
    )


# ---------------------------------------------------------------------------
# rewrites
# ---------------------------------------------------------------------------


def _conjuncts(pred: Pred) -> List[Pred]:
    if isinstance(pred, AndP):
        out: List[Pred] = []
        for operand in pred.operands:
            out.extend(_conjuncts(operand))
        return out
    return [pred]


def _conj(preds: Sequence[Pred]) -> Pred:
    if len(preds) == 1:
        return preds[0]
    return AndP(tuple(preds))


def _simplify_selects(node: Node, ctx: _Ctx, fired: List[str]) -> Node:
    if isinstance(node, Select):
        source = _simplify_selects(node.source, ctx, fired)
        child = ctx.facts(source)
        verdict = _select_verdict(node.pred, child, ctx)
        if verdict == "tautology":
            fired.append("tautology-elimination")
            return source
        if verdict == "contradiction":
            fired.append("contradiction-elimination")
            return Empty(child.attrs)
        return Select(source, node.pred)
    return _rebuild(node, ctx, fired, _simplify_selects)


def _cascade_empty(node: Node, ctx: _Ctx, fired: List[str]) -> Node:
    rebuilt = _rebuild(node, ctx, fired, _cascade_empty)
    if isinstance(rebuilt, (Select, Project, Rename)) and isinstance(
        rebuilt.source, Empty
    ):
        fired.append("empty-cascade")
        return Empty(ctx.facts(rebuilt).attrs)
    if isinstance(rebuilt, Join) and (
        isinstance(rebuilt.left, Empty) or isinstance(rebuilt.right, Empty)
    ):
        fired.append("empty-cascade")
        return Empty(ctx.facts(rebuilt).attrs)
    if isinstance(rebuilt, Union):
        if isinstance(rebuilt.left, Empty):
            fired.append("dead-branch-elimination")
            return rebuilt.right
        if isinstance(rebuilt.right, Empty):
            fired.append("dead-branch-elimination")
            return rebuilt.left
    if isinstance(rebuilt, Difference):
        if isinstance(rebuilt.left, Empty):
            fired.append("empty-cascade")
            return Empty(ctx.facts(rebuilt).attrs)
        if isinstance(rebuilt.right, Empty):
            fired.append("difference-identity")
            return rebuilt.left
    return rebuilt


def _push_selects(node: Node, ctx: _Ctx, fired: List[str]) -> Node:
    if isinstance(node, Select):
        source = _push_selects(node.source, ctx, fired)
        if isinstance(source, Join):
            left_facts = ctx.facts(source.left)
            right_facts = ctx.facts(source.right)
            shared = set(left_facts.attrs) & set(right_facts.attrs)
            left_only = set(left_facts.attrs) - shared
            right_only = set(right_facts.attrs) - shared
            to_left: List[Pred] = []
            to_right: List[Pred] = []
            keep: List[Pred] = []
            for conjunct in _conjuncts(node.pred):
                refs = set(referenced_attributes(conjunct))
                if refs and refs <= left_only:
                    to_left.append(conjunct)
                elif refs and refs <= right_only:
                    to_right.append(conjunct)
                else:
                    keep.append(conjunct)
            if to_left or to_right:
                fired.append("select-pushdown(join)")
                new_left: Node = source.left
                new_right: Node = source.right
                if to_left:
                    new_left = _push_selects(
                        Select(source.left, _conj(to_left)), ctx, fired
                    )
                if to_right:
                    new_right = _push_selects(
                        Select(source.right, _conj(to_right)), ctx, fired
                    )
                joined: Node = Join(new_left, new_right)
                if keep:
                    joined = Select(joined, _conj(keep))
                return joined
        if isinstance(source, Union):
            fired.append("select-pushdown(union)")
            return Union(
                _push_selects(Select(source.left, node.pred), ctx, fired),
                _push_selects(Select(source.right, node.pred), ctx, fired),
            )
        if isinstance(source, Difference):
            fired.append("select-pushdown(difference)")
            return Difference(
                _push_selects(Select(source.left, node.pred), ctx, fired),
                source.right,
            )
        if isinstance(source, Project):
            fired.append("select-pushdown(project)")
            return Project(
                _push_selects(
                    Select(source.source, node.pred), ctx, fired
                ),
                source.attributes,
            )
        return Select(source, node.pred)
    return _rebuild(node, ctx, fired, _push_selects)


def _push_projections(node: Node, ctx: _Ctx, fired: List[str]) -> Node:
    if isinstance(node, Project):
        source = node.source
        if isinstance(source, Project):
            fired.append("project-collapse")
            return _push_projections(
                Project(source.source, node.attributes), ctx, fired
            )
        if isinstance(source, Union):
            fired.append("project-pushdown(union)")
            return Union(
                _push_projections(
                    Project(source.left, node.attributes), ctx, fired
                ),
                _push_projections(
                    Project(source.right, node.attributes), ctx, fired
                ),
            )
        if isinstance(source, Join):
            left_facts = ctx.facts(source.left)
            right_facts = ctx.facts(source.right)
            shared = set(left_facts.attrs) & set(right_facts.attrs)
            wanted = set(node.attributes) | shared
            needed_left = tuple(
                a for a in left_facts.attrs if a in wanted
            )
            needed_right = tuple(
                a for a in right_facts.attrs if a in wanted
            )
            narrower_left = (
                needed_left
                and needed_left != left_facts.attrs
            )
            narrower_right = (
                needed_right
                and needed_right != right_facts.attrs
            )
            if narrower_left or narrower_right:
                fired.append("project-pushdown(join)")
                new_left: Node = source.left
                new_right: Node = source.right
                if narrower_left:
                    new_left = _push_projections(
                        Project(source.left, needed_left), ctx, fired
                    )
                if narrower_right:
                    new_right = _push_projections(
                        Project(source.right, needed_right), ctx, fired
                    )
                return Project(Join(new_left, new_right), node.attributes)
        return Project(
            _push_projections(source, ctx, fired), node.attributes
        )
    return _rebuild(node, ctx, fired, _push_projections)


def _fuse_cross(node: Node, ctx: _Ctx, fired: List[str]) -> Node:
    rebuilt = _rebuild(node, ctx, fired, _fuse_cross)
    if not isinstance(rebuilt, Join):
        return rebuilt
    factors = _flatten_cross(rebuilt, ctx)
    if factors is None or len(factors) < 3:
        return rebuilt
    sizes = [ctx.facts(f).est_rows for f in factors]
    if any(size is None for size in sizes):
        return rebuilt
    order = sorted(range(len(factors)), key=lambda i: (sizes[i], i))
    if order == list(range(len(factors))):
        return rebuilt
    fired.append("cross-fusion")
    original_attrs = ctx.facts(rebuilt).attrs
    fused: Node = factors[order[0]]
    for index in order[1:]:
        fused = Join(fused, factors[index])
    return Project(fused, original_attrs)


def _flatten_cross(node: Node, ctx: _Ctx) -> Optional[List[Node]]:
    """The factors of a pure cross chain (every join spine node is
    attribute-disjoint), or None."""
    if not isinstance(node, Join):
        return [node]
    left_attrs = set(ctx.facts(node.left).attrs)
    right_attrs = set(ctx.facts(node.right).attrs)
    if left_attrs & right_attrs:
        return None
    left = _flatten_cross(node.left, ctx)
    right = _flatten_cross(node.right, ctx)
    if left is None or right is None:
        return None
    return left + right


def _rebuild(
    node: Node, ctx: _Ctx, fired: List[str], rewrite: Any
) -> Node:
    """Apply ``rewrite`` to every child, preserving the node shape."""
    if isinstance(node, (Scan, Empty)):
        return node
    if isinstance(node, Select):
        return Select(rewrite(node.source, ctx, fired), node.pred)
    if isinstance(node, Project):
        return Project(rewrite(node.source, ctx, fired), node.attributes)
    if isinstance(node, Rename):
        return Rename(rewrite(node.source, ctx, fired), node.mapping)
    if isinstance(node, Join):
        return Join(
            rewrite(node.left, ctx, fired), rewrite(node.right, ctx, fired)
        )
    if isinstance(node, Union):
        return Union(
            rewrite(node.left, ctx, fired), rewrite(node.right, ctx, fired)
        )
    if isinstance(node, Difference):
        return Difference(
            rewrite(node.left, ctx, fired), rewrite(node.right, ctx, fired)
        )
    raise QueryError(f"not a query node: {node!r}")


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Plan:
    """An optimized query plan: the rewritten tree plus its pedigree."""

    source: Node
    node: Node
    rewrites: Tuple[str, ...]
    info: PlanInfo


def optimize_tree(
    node: Node,
    catalog: Mapping[str, RelationSchema],
    stats: Optional[Mapping[str, RelationStats]] = None,
    fds: Optional[Mapping[str, Any]] = None,
    mode: str = MODE_LEAST,
    limit: int = DEFAULT_LIMIT,
    least_safe: bool = True,
) -> Plan:
    """Rewrite a validated tree to an equivalent, cheaper plan.

    Rewrites are applied to a fixpoint (bounded passes); the result is
    pinned field-identical to evaluating the tree as written, in both
    modes, by ``tests/query/test_optimize.py``.
    """
    output_schema(node, catalog)
    ctx = _Ctx(catalog, stats or {}, fds or {}, mode, limit, least_safe)
    fired: List[str] = []
    current = node
    for _ in range(5):
        previous = current
        current = _simplify_selects(current, ctx, fired)
        current = _cascade_empty(current, ctx, fired)
        current = _push_selects(current, ctx, fired)
        current = _push_projections(current, ctx, fired)
        current = _fuse_cross(current, ctx, fired)
        if current == previous:
            break
    info = _analyze(current, ctx)
    return Plan(
        source=node, node=current, rewrites=tuple(fired), info=info
    )


# ---------------------------------------------------------------------------
# EXPLAIN rendering
# ---------------------------------------------------------------------------


def render_plan(plan: Plan) -> str:
    """The EXPLAIN text: tree, inferred keys, strategies, rewrites."""
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

    walk(plan.info, 0)
    if plan.rewrites:
        lines.append("rewrites: " + ", ".join(plan.rewrites))
    else:
        lines.append("rewrites: (none)")
    return "\n".join(lines)
