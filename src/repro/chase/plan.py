"""Shard planning for the sharded chase: FD connected components.

Two FDs can only ever exchange information through a shared attribute: a
firing of ``X -> Y`` merges classes of cells in ``X ∪ Y`` columns, and a
merge is visible to another FD only if one of *its* columns holds a cell of
the merged class.  So the connected components of the attribute graph
(attributes are vertices; each FD connects all attributes it mentions) chase
completely independently — Theorem 4's unique fixpoint over the whole FD set
is the column-wise union of the per-component fixpoints.  The planner here
computes that partition once per (schema, FD set):

* each :class:`Shard` is one component — its column indices, attribute
  names, and the indices of the FDs it owns;
* ``bypass`` is the set of columns no FD mentions at all: those columns
  cannot change under the chase and skip it entirely (the free win).

One instance-level caveat: a single :class:`~repro.core.values.Null`
*object* occurring in FD columns of two different components couples them —
grounding it in one component must show through the other component's
signatures.  That is a property of the *rows*, not the schema, so the
structural plan (cacheable by sessions) is refined per call by
:func:`fuse_for_rows`, which scans the instance once and fuses any shards
bridged by a shared null.  Nulls shared between a shard and bypass columns
need no fusion — bypass cells are repaired from the shard's substitutions
and NEC classes at stitch time.  NOTHING needs no fusion either: all
nothings form one class, but signatures never span components, so the
sharing is unobservable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from ..core.fd import FD, FDInput, as_fd
from ..core.schema import RelationSchema
from ..core.values import is_null


def prune_fds(
    schema: RelationSchema, fds: Iterable[FDInput]
) -> Tuple[Tuple[FD, ...], Tuple[FD, ...]]:
    """An equivalent, smaller FD list for chase execution.

    Returns ``(kept, dropped)``: ``kept`` is Armstrong-equivalent to the
    input — same closure, hence by Theorem 4 the *same* chase fixpoint
    (rows, NEC classes, substitutions) with fewer rule firings — and
    ``dropped`` lists the input FDs (normalized) that no longer appear in
    ``kept`` verbatim.  The passes, in order:

    1. drop trivial FDs (``Y ⊆ X`` — they can never fire);
    2. merge same-LHS FDs (``X -> Y, X -> Z  ⇒  X -> YZ`` — one
       signature stream instead of two);
    3. remove extraneous LHS attributes (:func:`~repro.armstrong.cover.
       left_reduce` — narrower signatures);
    4. drop FDs implied by the rest (:func:`~repro.armstrong.cover.
       remove_redundant` — the cover pruning proper).

    A final :func:`~repro.armstrong.implication.equivalent` check guards
    the rewrite: if it ever failed (it cannot, but the chase's
    correctness must not hang on "cannot"), the unpruned input is
    returned untouched.
    """
    from ..armstrong.cover import left_reduce, remove_redundant
    from ..armstrong.implication import equivalent

    normalized = [as_fd(fd).validate(schema).normalized() for fd in fds]
    working = [fd for fd in normalized if not fd.is_trivial()]

    def merge_same_lhs(fd_list: List[FD]) -> List[FD]:
        grouped: Dict[frozenset, FD] = {}
        for fd in fd_list:
            key = frozenset(fd.lhs)
            prior = grouped.get(key)
            if prior is None:
                grouped[key] = fd
            elif set(fd.rhs) - set(prior.rhs):
                grouped[key] = FD(
                    prior.lhs,
                    prior.rhs + tuple(a for a in fd.rhs if a not in prior.rhs),
                )
        return list(grouped.values())

    working = merge_same_lhs(working)
    working = left_reduce(working)
    working = merge_same_lhs(working)  # reductions can collide LHSs
    working = remove_redundant(working)
    if not equivalent(working, normalized):  # pragma: no cover - safety net
        return tuple(normalized), ()
    kept = tuple(working)
    # multiset accounting: each kept FD absolves at most ONE input copy,
    # so duplicates count as dropped even though their content survives
    remaining = list(kept)
    dropped: List[FD] = []
    for fd in normalized:
        if fd in remaining:
            remaining.remove(fd)
        else:
            dropped.append(fd)
    return kept, tuple(dropped)


@dataclass(frozen=True)
class Shard:
    """One connected component of the FD attribute graph."""

    #: column indices into the full schema, ascending
    columns: Tuple[int, ...]
    #: the matching attribute names (``schema.attributes[c]`` per column)
    attributes: Tuple[str, ...]
    #: indices into the plan's FD list, in input order
    fd_indices: Tuple[int, ...]


@dataclass(frozen=True)
class ShardPlan:
    """A partition of an FD set (and the columns it touches) into shards.

    ``shards`` are ordered by their smallest column index; ``fds`` are the
    *normalized* FDs (``validate().normalized()``), so executors can use
    them directly.  ``bypass`` lists the columns no FD mentions — they skip
    the chase entirely.
    """

    schema: RelationSchema
    fds: Tuple[FD, ...]
    shards: Tuple[Shard, ...]
    bypass: Tuple[int, ...]
    #: input FDs pruned away before sharding (empty unless ``prune=True``)
    dropped: Tuple[FD, ...] = ()

    def shard_fds(self, shard: Shard) -> List[FD]:
        """The FD objects a shard owns, in input order."""
        return [self.fds[i] for i in shard.fd_indices]

    def sub_schema(self, shard: Shard) -> RelationSchema:
        """The shard's projection scheme (domains dropped — the chase
        never consults them, and mp payloads stay scalar-only)."""
        return RelationSchema(self.schema.name, shard.attributes)

    def summary(self) -> str:
        parts = [
            f"{len(self.shards)} shard(s) over {len(self.fds)} FD(s)",
            f"{len(self.bypass)} bypass column(s)",
        ]
        if self.dropped:
            parts.append(f"{len(self.dropped)} FD(s) pruned")
        return "; ".join(parts)


def _find(parent: List[int], item: int) -> int:
    root = item
    while parent[root] != root:
        root = parent[root]
    while parent[item] != root:  # path compression
        parent[item], item = root, parent[item]
    return root


def plan_shards(
    schema: RelationSchema, fds: Iterable[FDInput], prune: bool = False
) -> ShardPlan:
    """The structural plan: components of the FD attribute graph.

    Depends only on the schema and FD set, so sessions cache it across
    mutations; instance-level null sharing is handled separately by
    :func:`fuse_for_rows`.  With ``prune=True`` the FD set is first
    rewritten to an equivalent cover (:func:`prune_fds`) — same fixpoint,
    fewer rules to sign and fire; the pruned-away inputs are recorded in
    ``plan.dropped``.
    """
    dropped: Tuple[FD, ...] = ()
    if prune:
        kept, dropped = prune_fds(schema, fds)
        normalized = kept
    else:
        normalized = tuple(as_fd(fd).validate(schema).normalized() for fd in fds)
    fd_cols: List[Tuple[int, ...]] = [
        tuple(sorted(set(schema.positions(fd.lhs) + schema.positions(fd.rhs))))
        for fd in normalized
    ]
    parent = list(range(len(schema)))
    for cols in fd_cols:
        first = cols[0]
        for col in cols[1:]:
            root_a, root_b = _find(parent, first), _find(parent, col)
            if root_a != root_b:
                parent[root_b] = root_a
    mentioned = sorted({col for cols in fd_cols for col in cols})
    component_cols: Dict[int, List[int]] = {}
    for col in mentioned:
        component_cols.setdefault(_find(parent, col), []).append(col)
    shards = []
    for root, cols in sorted(component_cols.items(), key=lambda kv: kv[1][0]):
        fd_indices = tuple(
            k
            for k, k_cols in enumerate(fd_cols)
            if _find(parent, k_cols[0]) == root
        )
        shards.append(
            Shard(
                columns=tuple(cols),
                attributes=tuple(schema.attributes[c] for c in cols),
                fd_indices=fd_indices,
            )
        )
    in_shards = set(mentioned)
    bypass = tuple(c for c in range(len(schema)) if c not in in_shards)
    return ShardPlan(
        schema=schema,
        fds=normalized,
        shards=tuple(shards),
        bypass=bypass,
        dropped=dropped,
    )


def fuse_for_rows(plan: ShardPlan, rows: Sequence) -> ShardPlan:
    """Refine a structural plan for one instance: fuse shards coupled by a
    shared null object, so no null ever occurs in two shards' columns.

    Returns ``plan`` itself when nothing fuses (the common case), so
    callers can cheaply detect that the cached plan applied unchanged.
    """
    shards = plan.shards
    if len(shards) < 2:
        return plan
    shard_of_col: List[Tuple[int, int]] = [
        (col, i) for i, shard in enumerate(shards) for col in shard.columns
    ]
    parent = list(range(len(shards)))
    seen: Dict[int, int] = {}  # id(null object) -> owning shard index
    changed = False
    for row in rows:
        values = row.values
        for col, i in shard_of_col:
            value = values[col]
            if is_null(value):
                prev = seen.setdefault(id(value), i)
                if prev != i:
                    root_a, root_b = _find(parent, prev), _find(parent, i)
                    if root_a != root_b:
                        parent[root_b] = root_a
                        changed = True
    if not changed:
        return plan
    groups: Dict[int, List[int]] = {}
    for i in range(len(shards)):
        groups.setdefault(_find(parent, i), []).append(i)
    fused = []
    for members in groups.values():
        columns = tuple(sorted(c for i in members for c in shards[i].columns))
        fd_indices = tuple(
            sorted(k for i in members for k in shards[i].fd_indices)
        )
        fused.append(
            Shard(
                columns=columns,
                attributes=tuple(plan.schema.attributes[c] for c in columns),
                fd_indices=fd_indices,
            )
        )
    fused.sort(key=lambda shard: shard.columns[0])
    return ShardPlan(
        schema=plan.schema,
        fds=plan.fds,
        shards=tuple(fused),
        bypass=plan.bypass,
        dropped=plan.dropped,
    )
