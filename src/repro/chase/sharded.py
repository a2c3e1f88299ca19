"""Sharded chase: one vector engine per FD component, stitched back.

The planner (:mod:`repro.chase.plan`) proves the FD components independent
(Theorem 4's unique fixpoint is the column-wise union of the per-component
fixpoints); this module exploits it.  Each shard — a column slice of the
relation plus the FDs it owns — is chased in-process by its own
:class:`~repro.chase.vector.VectorChaseState`.  Columns no FD mentions
bypass the chase entirely.  The per-shard results are then **stitched**:
row-aligned column splices, with the per-shard null bookkeeping remapped
so the merged :class:`~repro.chase.engine.ChaseResult` is field-identical
to the single-shard engines.

The remapping that makes the stitch exact is the **global representative
order**.  The serial engines display each NEC class as its
earliest-*registered* member, where registration order is the row-major
scan over *all* columns.  A shard only sees its own columns, so its local
representative can differ.  The stitcher indexes every null's global
first occurrence once, re-sorts class members and classes by it, and
rewrites any cell holding a superseded shard representative — the same
pass that applies substitutions and merges to null occurrences in bypass
columns.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from ..core.fd import FDInput
from ..core.relation import Relation
from ..core.tuples import Row
from ..core.values import is_null
from .engine import MODE_EXTENDED, ChaseResult
from .plan import Shard, ShardPlan, fuse_for_rows, plan_shards
from .vector import VectorChaseState

STRATEGY_SHARDED = "sharded"


def _chase_shard(
    relation: Relation, plan: ShardPlan, shard: Shard
) -> ChaseResult:
    sub = Relation(
        plan.sub_schema(shard),
        [[row.values[c] for c in shard.columns] for row in relation.rows],
    )
    state = VectorChaseState(sub, plan.shard_fds(shard))
    state.run_vectorized()
    return state.result(STRATEGY_SHARDED)


def _stitch(
    relation: Relation, plan: ShardPlan, results: Sequence[ChaseResult]
) -> ChaseResult:
    schema = relation.schema
    # global first-occurrence order of every null object (row-major over
    # ALL columns) — identical to the serial engines' registration order,
    # which fixes representatives and class/member ordering
    order: Dict[int, int] = {}
    for row in relation.rows:
        for value in row.values:
            if is_null(value) and id(value) not in order:
                order[id(value)] = len(order)

    classes = [cls for result in results for cls in result.nec_classes]
    nec_classes = [
        tuple(sorted(cls, key=lambda member: order[id(member)]))
        for cls in classes
    ]
    nec_classes.sort(key=lambda cls: order[id(cls[0])])

    #: id(null) -> display value for any cell still holding that object:
    #: superseded shard representatives map to the global representative,
    #: grounded nulls (shard or bypass occurrences) to their constant/NOTHING
    null_out: Dict[int, Any] = {}
    for cls in nec_classes:
        rep = cls[0]
        for member in cls:
            if member is not rep:
                null_out[id(member)] = rep
    sub_items = [
        item for result in results for item in result.substitutions.items()
    ]
    sub_items.sort(key=lambda item: order[id(item[0])])
    substitutions = dict(sub_items)
    for null_obj, value in sub_items:
        null_out[id(null_obj)] = value

    rows: List[Row] = []
    pairs = [
        (shard.columns, result.relation.rows)
        for shard, result in zip(plan.shards, results)
    ]
    for index, row in enumerate(relation.rows):
        values = list(row.values)
        for columns, shard_rows in pairs:
            shard_values = shard_rows[index].values
            for position, col in enumerate(columns):
                values[col] = shard_values[position]
        for col, value in enumerate(values):
            if is_null(value):
                values[col] = null_out.get(id(value), value)
        rows.append(Row(schema, values))

    return ChaseResult(
        relation=Relation(schema, rows),
        nec_classes=nec_classes,
        substitutions=substitutions,
        applications=[
            app for result in results for app in result.applications
        ],
        passes=sum(result.passes for result in results),
        mode=MODE_EXTENDED,
        strategy=STRATEGY_SHARDED,
    )


def sharded_chase(
    relation: Relation,
    fds: Iterable[FDInput],
    plan: Optional[ShardPlan] = None,
) -> ChaseResult:
    """Chase via component shards, field-identical to the serial engines.

    ``plan`` — a cached structural plan for this schema and FD list
    (``plan.fds`` is then authoritative; sessions pass their cached plan
    here).
    """
    if plan is None:
        # no cached plan: pay the (cheap, schema-level) cover pruning —
        # an equivalent FD set chases to the identical fixpoint with
        # fewer signature streams and firings
        plan = plan_shards(relation.schema, fds, prune=True)
    effective = fuse_for_rows(plan, relation.rows)
    # a shard-free plan stitches the input back unchanged: no FD
    # constrains anything, so the input is already the fixpoint
    results = [
        _chase_shard(relation, effective, shard) for shard in effective.shards
    ]
    return _stitch(relation, effective, results)
