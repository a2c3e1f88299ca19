"""Minimally incomplete instances and weak satisfiability (Theorems 3-4).

An instance is *minimally incomplete* w.r.t. an FD set when no NS-rule is
applicable: "nothing more can be said about the nulls in this state".  The
high-level entry points here wrap :func:`~repro.chase.engine.chase`:

* :func:`minimally_incomplete` — chase to a fixpoint (basic or extended
  rules);
* :func:`is_minimally_incomplete` — applicability check without chasing;
* :func:`weakly_satisfiable` — Theorem 4(b): an FD set is weakly satisfied
  in ``r`` iff the extended chase produces no *nothing* value;
* :func:`canonical_form` — a strategy-independent fingerprint of a chase
  result, used to verify the Church-Rosser property (Theorem 4(a)) and the
  equivalence of the engines.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Tuple

from ..core.fd import FDInput
from ..core.relation import Relation
from ..core.values import NOTHING, is_constant, is_null
from .engine import (
    MODE_BASIC,
    MODE_EXTENDED,
    STRATEGY_FD_ORDER,
    STRATEGY_RANDOM,
    STRATEGY_ROUND_ROBIN,
    ChaseResult,
    ChaseState,
    chase,
)


def minimally_incomplete(
    relation: Relation,
    fds: Iterable[FDInput],
    mode: str = MODE_EXTENDED,
    strategy: str = STRATEGY_ROUND_ROBIN,
    seed: int = 0,
) -> ChaseResult:
    """Chase ``relation`` with the NS-rules for ``fds`` to a fixpoint.

    A plain forward to :func:`~repro.chase.engine.chase`: the vector
    engine in extended mode (the unique fixpoint of Theorem 4), the
    strategy-parametric sweep engine in basic mode.
    """
    return chase(relation, fds, mode=mode, strategy=strategy, seed=seed)


def is_minimally_incomplete(
    relation: Relation, fds: Iterable[FDInput], mode: str = MODE_BASIC
) -> bool:
    """Is any NS-rule applicable?  (Definition of minimal incompleteness.)

    With ``mode="basic"`` (the paper's definition) a pending const/const
    disagreement does *not* count as applicable; with ``mode="extended"``
    it does.
    """
    state = ChaseState(relation, fds, mode)
    for fd in state.fds:
        groups: dict = {}
        for row in range(len(state.cells)):
            groups.setdefault(state._x_signature(fd, row), []).append(row)
        for rows in groups.values():
            if len(rows) < 2:
                continue
            anchor = rows[0]
            for other in rows[1:]:
                for attr in fd.rhs:
                    col = state.schema.position(attr)
                    node_a = state.uf.find(state.cells[anchor][col])
                    node_b = state.uf.find(state.cells[other][col])
                    if node_a == node_b:
                        continue
                    kind_a = state.tags[node_a][0]
                    kind_b = state.tags[node_b][0]
                    if kind_a == "const" and kind_b == "const":
                        if mode == MODE_EXTENDED:
                            return False
                        continue  # basic mode: no rule for const conflicts
                    return False
    return True


def weakly_satisfiable(relation: Relation, fds: Iterable[FDInput]) -> bool:
    """Theorem 4(b): ``F`` is weakly satisfied in ``r`` iff the extended
    chase fixpoint contains no *nothing* value.

    The verdict is over unbounded domains: a declared finite domain is
    not consulted.  With ``K`` on {k1, k2}, ``K -> A`` and rows
    (⊥, a1), (⊥, a2), (⊥, a3) this returns True, while no completion
    inside ``K``'s domain satisfies the FD
    (:func:`repro.core.satisfaction.weakly_satisfied` returns False).
    """
    return not chase(relation, fds, mode=MODE_EXTENDED).has_nothing


def canonical_form(relation: Relation) -> Tuple[Tuple[Any, ...], ...]:
    """A value-structure fingerprint invariant under null renaming.

    Constants map to themselves, *nothing* to a marker, and null objects to
    their class index in row-major first-occurrence order — so two chase
    results compare equal iff they agree on every constant, every nothing,
    and the *pattern* of shared nulls (the NECs).
    """
    numbering: dict = {}
    rows: List[Tuple[Any, ...]] = []
    for row in relation.rows:
        encoded: List[Any] = []
        for value in row.values:
            if is_null(value):
                index = numbering.setdefault(id(value), len(numbering))
                encoded.append(("null", index))
            elif value is NOTHING:
                encoded.append(("nothing",))
            else:
                encoded.append(("const", value))
        rows.append(tuple(encoded))
    return tuple(rows)


def church_rosser_orders(
    relation: Relation,
    fds: Iterable[FDInput],
    mode: str = MODE_EXTENDED,
    seeds: Iterable[int] = range(8),
) -> List[ChaseResult]:
    """Chase under several application orders (for Theorem 4 experiments).

    Returns one result per order: the two deterministic strategies on the
    given FD order, ``fd_order`` on the reversed FD order, and a seeded
    random strategy per element of ``seeds``.  In extended mode all
    canonical forms must coincide; in basic mode they may differ (Figure 5).

    Every run forces the sweep engine: the point of this function is to
    *vary the application order*, and the vector engine that backs
    ``chase(mode="extended")`` by default ignores strategy and seed — it
    would turn the comparison into eleven runs of one execution.
    """
    fd_list = list(fds)
    results = [
        chase(relation, fd_list, mode=mode, strategy=STRATEGY_FD_ORDER, engine="sweep"),
        chase(relation, fd_list, mode=mode, strategy=STRATEGY_ROUND_ROBIN, engine="sweep"),
        chase(
            relation,
            list(reversed(fd_list)),
            mode=mode,
            strategy=STRATEGY_FD_ORDER,
            engine="sweep",
        ),
    ]
    for seed in seeds:
        results.append(
            chase(
                relation,
                fd_list,
                mode=mode,
                strategy=STRATEGY_RANDOM,
                seed=seed,
                engine="sweep",
            )
        )
    return results
