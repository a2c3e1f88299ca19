"""Query evaluation with **certain** and **maybe** answer sets.

The evaluator is a small conditional-table algebra (Imielinski–Lipski
style, restricted to the equality atoms this library needs): every
derived row is a ``(values, cond)`` pair where ``cond`` is the
:mod:`~repro.core.conditions` formula under which the row belongs to
the result.  Base rows enter with the vacuous condition; ``select``
conjoins the resolved predicate, a natural ``join`` conjoins equality
atoms on shared attributes, and ``difference`` conjoins the negation of
"some right row matches".  Nulls flow through by **identity** — the
same :class:`~repro.core.values.Null` object scanned from two relations
is one unknown, so a shared null equates across a join exactly as the
chase's substitution machinery would force it to.

Every row also carries its condition's Kleene value, computed once when
the row is built from the values of its parts (a join's value is the
conjunction of its two rows' values and its new equality atoms), so no
operator re-evaluates a whole condition tree.

A finished row is then tagged by the truth of its condition:

* ``TRUE`` → a **certain** answer (in the result under every
  completion of the database);
* ``UNKNOWN`` → a **maybe** answer (in the result under some
  completion, not provably all);
* ``FALSE`` → dropped.

Both modes evaluate conditions through the one least-extension kernel,
:mod:`repro.core.conditions`, which :mod:`repro.nullsem.queries` uses
too: :data:`MODE_KLEENE` evaluates them truth-functionally (linear,
under-informative — some certain answers are reported as maybe),
:data:`MODE_LEAST` grounds each condition's nulls over their pools
(the kernel's pool rule over the enumeration domain of every column
the null occurs in, across *all* its occurrences in the environment)
and takes the least upper bound — the paper's least-extension
semantics, exact but local: exponential only in the nulls one
condition references.

:func:`ground_answers` produces the fully ground certain/possible
answer *sets* the differential suite compares against brute-force
completion enumeration.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..api import TAG_CERTAIN, TAG_MAYBE, Answer, ResultSet
from ..core.conditions import (
    ALWAYS,
    Cond,
    EqV,
    all_of,
    any_of,
    eq_truth,
    evaluate_ground,
    grounded_truth,
    groundings,
    kleene,
    least_truth,
    neg,
    null_pools,
    nulls_of,
)
from ..core.domain import Domain
from ..core.relation import Relation
from ..core.truth import FALSE, TRUE, UNKNOWN, TruthValue, and_, not_, or_
from ..core.values import Null, is_null
from ..errors import InconsistentInstanceError
from ..nullsem.queries import resolve
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
)

MODE_KLEENE = "kleene"
MODE_LEAST = "least"
_MODES = (MODE_KLEENE, MODE_LEAST)

#: default cap on grounding enumeration, matching the guard style of
#: :meth:`repro.core.relation.Relation.completions`.
DEFAULT_LIMIT = 200_000


class CRow:
    """One conditional row: the tuple, its membership condition, and the
    condition's Kleene value.

    The evaluator passes ``truth`` in, computed from the values of the
    row's parts; ``CRow(values, cond)`` computes it from ``cond``.
    Either way ``truth is kleene(cond)`` (the sanitizer audits it).
    """

    __slots__ = ("values", "cond", "truth")

    def __init__(
        self,
        values: Tuple[Any, ...],
        cond: Cond,
        truth: Optional[TruthValue] = None,
    ) -> None:
        self.values = values
        self.cond = cond
        self.truth: TruthValue = kleene(cond) if truth is None else truth

    def __repr__(self) -> str:
        return f"CRow({self.values!r}, {self.cond!r}, {self.truth!r})"


def _row_key(values: Tuple[Any, ...]) -> Tuple[Any, ...]:
    """A dedup key distinguishing nulls by identity, constants by value:
    the tuple itself, since a :class:`~repro.core.values.Null` compares
    and hashes by identity."""
    return tuple(values)


class Evaluator:
    """Evaluate query trees against a fixed environment of relations.

    ``env`` maps relation name → :class:`~repro.core.relation.Relation`.
    Construction indexes every null in the environment: its grounding
    pool (the kernel's pool rule,
    :func:`~repro.core.conditions.null_pools`, over the enumeration
    domain of every column it occurs in, across all occurrences,
    including occurrences in relations the query does not scan — the
    whole environment constrains an unknown) and its scan provenance.
    A :data:`~repro.core.values.NOTHING` cell anywhere in the
    environment raises
    :class:`~repro.errors.InconsistentInstanceError` — the inconsistent
    element has no completions to quantify over.

    The index is read off each relation's
    :class:`~repro.query.optimize.RelationStats` (its null cells and
    per-column enumeration domains), so construction costs O(null
    cells), not a column scan per null.  ``stats`` maps relation name →
    stats a caller already holds for exactly that relation (the server's
    read view at the relation's cut); a relation without them is scanned
    here, once.  :meth:`explain` reuses the same stats.

    Every query is evaluated as written: :meth:`run` tags the rows of
    the same conditional table :meth:`symbolic` returns, the surface the
    differential suites hold to brute-force completion enumeration.
    """

    def __init__(
        self,
        env: Mapping[str, Relation],
        limit: int = DEFAULT_LIMIT,
        fds: Optional[Mapping[str, Any]] = None,
        hash_joins: bool = True,
        stats: Optional[Mapping[str, Any]] = None,
    ) -> None:
        from .optimize import relation_stats  # local: optimize imports us

        self.env: Dict[str, Relation] = dict(env)
        self.limit = limit
        #: relation name → FD set (optional; informs key inference in
        #: EXPLAIN output, never correctness)
        self.fds: Dict[str, Any] = dict(fds) if fds else {}
        #: route natural joins through constant-key buckets (pair order
        #: is pinned identical to the nested loop)
        self.hash_joins = hash_joins
        given = stats or {}
        #: relation name → :class:`~repro.query.optimize.RelationStats`
        self._stats: Dict[str, Any] = {
            name: given[name] if name in given else relation_stats(relation)
            for name, relation in self.env.items()
        }
        #: id(null) → (relation, attribute) of its first occurrence
        self._provenance: Dict[int, Tuple[str, str]] = {}
        occurrences: List[Tuple[Null, Tuple[Any, ...]]] = []
        for name, st in self._stats.items():
            if st.has_nothing:
                raise InconsistentInstanceError(
                    f"relation {name!r} contains NOTHING; an "
                    "inconsistent instance has no completions "
                    "to answer queries over"
                )
            for value, attribute in st.null_cells:
                self._provenance.setdefault(id(value), (name, attribute))
            columns = {a: domain.values for a, domain in st.domains.items()}
            occurrences += [(value, columns[a]) for value, a in st.null_cells]
        #: id(null) → candidate constants (consistent enumeration domain)
        self.domains: Dict[int, Tuple[Any, ...]] = null_pools(occurrences)

    # -- public API ---------------------------------------------------------

    def schema(self, node: Node, name: str = "answer"):
        """The output scheme (static check included)."""
        return output_schema(
            node,
            {name_: rel.schema for name_, rel in self.env.items()},
            name=name,
        )

    def symbolic(
        self, node: Node
    ) -> Tuple[Tuple[str, ...], List[CRow]]:
        """The conditional-table result: attributes + conditional rows —
        the surface the differential suites compare against."""
        self.schema(node)  # static check first; errors carry lint codes
        return self._eval(node)

    def stats(self) -> Dict[str, Any]:
        """Per-relation instance statistics: the ones construction read."""
        return self._stats

    def explain(self, node: Node, mode: str = MODE_LEAST) -> str:
        """Human-readable plan: the tree as written, with inferred keys,
        null-flow, join strategies and bounds."""
        from .optimize import optimize_tree, render_plan

        catalog = {name: rel.schema for name, rel in self.env.items()}
        return render_plan(
            optimize_tree(
                node, catalog, stats=self.stats(), fds=self.fds, mode=mode
            )
        )

    def run(
        self,
        node: Node,
        mode: str = MODE_LEAST,
        as_of: Any = None,
        live: bool = True,
    ) -> ResultSet:
        """Evaluate and tag every surviving row certain/maybe."""
        if mode not in _MODES:
            raise QueryError(
                f"unknown evaluation mode {mode!r}; expected one of {_MODES}"
            )
        schema = self.schema(node)
        attrs, crows = self._eval(node)
        certain_rows: List[Tuple[Any, ...]] = []
        maybe_rows: List[Tuple[Any, ...]] = []
        least = mode == MODE_LEAST
        for crow in crows:
            truth = crow.truth
            if least and truth is UNKNOWN:
                # a Kleene-definite row is definite in least mode too;
                # only an unknown one is ground
                truth = grounded_truth(crow.cond, self.domains, limit=self.limit)
            if truth is TRUE:
                certain_rows.append(crow.values)
            elif truth is UNKNOWN:
                maybe_rows.append(crow.values)
        from ..analysis.sanitize import enabled as _sanitize_enabled

        if _sanitize_enabled():
            from ..analysis.sanitize import audit_evaluator

            audit_evaluator(self, attrs, crows, certain_rows, maybe_rows)
        domains: Dict[str, Domain] = {
            attribute: schema.domain(attribute)  # type: ignore[misc]
            for attribute in attrs
            if schema.domain(attribute).is_finite
        }
        meta = {"mode": mode}
        return ResultSet(
            certain=Answer(
                tag=TAG_CERTAIN,
                attributes=attrs,
                rows=tuple(certain_rows),
                as_of=as_of,
                live=live,
                provenance=self._answer_provenance(certain_rows),
                meta=dict(meta),
                domains=domains or None,
            ),
            maybe=Answer(
                tag=TAG_MAYBE,
                attributes=attrs,
                rows=tuple(maybe_rows),
                as_of=as_of,
                live=live,
                provenance=self._answer_provenance(maybe_rows),
                meta=dict(meta),
                domains=domains or None,
            ),
        )

    # -- provenance ---------------------------------------------------------

    def _answer_provenance(
        self, rows: List[Tuple[Any, ...]]
    ) -> Dict[str, Dict[str, Any]]:
        out: Dict[str, Dict[str, Any]] = {}
        for row in rows:
            for value in row:
                if not is_null(value) or value.label in out:
                    continue
                record = self._provenance.get(id(value))
                out[value.label] = (
                    {"relation": record[0], "attribute": record[1]}
                    if record
                    else {}
                )
        return out

    # -- the conditional-table algebra --------------------------------------

    def _eval(self, node: Node) -> Tuple[Tuple[str, ...], List[CRow]]:
        if isinstance(node, Scan):
            relation = self.env.get(node.name)
            if relation is None:  # pragma: no cover - schema() catches first
                raise QueryError(
                    f"unknown relation {node.name!r}",
                    code="E_UNKNOWN_RELATION",
                )
            attrs = relation.schema.attributes
            crows = [
                CRow(tuple(row.values), ALWAYS, TRUE) for row in relation.rows
            ]
            return attrs, _dedup(crows)

        if isinstance(node, Select):
            attrs, crows = self._eval(node.source)
            positions = {attribute: i for i, attribute in enumerate(attrs)}
            out: List[CRow] = []
            for crow in crows:
                resolved = resolve(node.pred, positions, crow.values)
                truth = and_(crow.truth, kleene(resolved))
                if truth is FALSE:
                    continue
                out.append(
                    CRow(crow.values, all_of([crow.cond, resolved]), truth)
                )
            return attrs, out

        if isinstance(node, Project):
            attrs, crows = self._eval(node.source)
            positions = {attribute: i for i, attribute in enumerate(attrs)}
            keep = tuple(positions[attribute] for attribute in node.attributes)
            projected = [
                CRow(tuple(crow.values[i] for i in keep), crow.cond, crow.truth)
                for crow in crows
            ]
            return node.attributes, _dedup(projected)

        if isinstance(node, Join):
            left_attrs, left_rows = self._eval(node.left)
            right_attrs, right_rows = self._eval(node.right)
            shared = [a for a in left_attrs if a in right_attrs]
            extra = [a for a in right_attrs if a not in left_attrs]
            attrs = left_attrs + tuple(extra)
            left_pos = {a: i for i, a in enumerate(left_attrs)}
            right_pos = {a: i for i, a in enumerate(right_attrs)}
            shared_l = [left_pos[a] for a in shared]
            shared_r = [right_pos[a] for a in shared]
            extra_r = [right_pos[a] for a in extra]
            out: List[CRow] = []

            def emit(lrow: CRow, rrow: CRow) -> None:
                truth = and_(lrow.truth, rrow.truth)
                conds = [lrow.cond, rrow.cond]
                values = list(lrow.values)
                for i, j in zip(shared_l, shared_r):
                    lv = lrow.values[i]
                    rv = rrow.values[j]
                    if lv is not rv:
                        truth = and_(truth, eq_truth(lv, rv))
                        if truth is FALSE:
                            return
                        conds.append(EqV(lv, rv))
                    # given the equality holds, the two cells are one
                    # value; prefer the constant representative
                    if is_null(lv) and not is_null(rv):
                        values[i] = rv
                values.extend(rrow.values[j] for j in extra_r)
                out.append(CRow(tuple(values), all_of(conds), truth))

            if self.hash_joins and shared:
                # bucket right rows by their constant shared-key tuple;
                # rows with a null in a shared cell can never be refuted
                # by a constant mismatch, so they are wildcards every
                # left row must still see.  Merging the bucket hits with
                # the wildcards in ascending row index reproduces the
                # nested loop's pair order exactly, so the output —
                # values, conditions, dedup merges — is bit-identical.
                buckets: Dict[Tuple[Any, ...], List[int]] = {}
                wildcards: List[int] = []
                for index, rrow in enumerate(right_rows):
                    cells = tuple(rrow.values[j] for j in shared_r)
                    if any(is_null(cell) for cell in cells):
                        wildcards.append(index)
                    else:
                        buckets.setdefault(cells, []).append(index)
                for lrow in left_rows:
                    cells = tuple(lrow.values[i] for i in shared_l)
                    if any(is_null(cell) for cell in cells):
                        for rrow in right_rows:
                            emit(lrow, rrow)
                        continue
                    for index in _merge_indices(
                        buckets.get(cells, ()), wildcards
                    ):
                        emit(lrow, right_rows[index])
            else:
                for lrow in left_rows:
                    for rrow in right_rows:
                        emit(lrow, rrow)
            return attrs, _dedup(out)

        if isinstance(node, Rename):
            attrs, crows = self._eval(node.source)
            mapping = dict(node.mapping)
            return tuple(mapping.get(a, a) for a in attrs), crows

        if isinstance(node, Union):
            left_attrs, left_rows = self._eval(node.left)
            _, right_rows = self._eval(node.right)
            return left_attrs, _dedup(left_rows + right_rows)

        if isinstance(node, Difference):
            left_attrs, left_rows = self._eval(node.left)
            _, right_rows = self._eval(node.right)
            out = []
            for lrow in left_rows:
                parts: List[Cond] = [lrow.cond]
                truth = lrow.truth
                for rrow in right_rows:
                    atoms: List[Cond] = [rrow.cond]
                    matched = rrow.truth
                    for lv, rv in zip(lrow.values, rrow.values):
                        if lv is not rv:
                            atoms.append(EqV(lv, rv))
                            matched = and_(matched, eq_truth(lv, rv))
                    parts.append(neg(all_of(atoms)))
                    truth = and_(truth, not_(matched))
                    if truth is FALSE:
                        break  # a right row certainly matches
                if truth is FALSE:
                    continue
                out.append(CRow(lrow.values, all_of(parts), truth))
            return left_attrs, _dedup(out)

        raise QueryError(f"not a query node: {node!r}")


def _merge_indices(first: Sequence[int], second: Sequence[int]) -> List[int]:
    """Merge two ascending index lists, preserving ascending order."""
    merged: List[int] = []
    i = j = 0
    while i < len(first) and j < len(second):
        if first[i] < second[j]:
            merged.append(first[i])
            i += 1
        else:
            merged.append(second[j])
            j += 1
    merged.extend(first[i:])
    merged.extend(second[j:])
    return merged


def _dedup(crows: List[CRow]) -> List[CRow]:
    """Set semantics: merge identical tuples, disjoining their conditions.

    Identity-keyed for nulls — two *different* nulls with equal ground
    values collapse per-completion instead, when the ground answer sets
    are formed.  Merging conditions with :func:`any_of` is where
    least-extension evaluation gains power: disjuncts that jointly
    exhaust a domain make a merged row certain.
    """
    order: List[Tuple[Any, ...]] = []
    merged: Dict[Tuple[Any, ...], CRow] = {}
    for crow in crows:
        key = _row_key(crow.values)
        existing = merged.get(key)
        if existing is None:
            merged[key] = crow
            order.append(key)
        elif existing.cond != crow.cond:
            merged[key] = CRow(
                existing.values,
                any_of([existing.cond, crow.cond]),
                or_(existing.truth, crow.truth),
            )
    return [merged[key] for key in order]


def evaluate(
    node: Node,
    env: Mapping[str, Relation],
    mode: str = MODE_LEAST,
    limit: int = DEFAULT_LIMIT,
    as_of: Any = None,
    live: bool = True,
) -> ResultSet:
    """One-shot evaluation: build an :class:`Evaluator` and run."""
    return Evaluator(env, limit=limit).run(
        node, mode=mode, as_of=as_of, live=live
    )


def ground_answers(
    node: Node,
    env: Mapping[str, Relation],
    limit: int = DEFAULT_LIMIT,
) -> Tuple[FrozenSet[Tuple[Any, ...]], FrozenSet[Tuple[Any, ...]]]:
    """The fully ground ``(certain, possible)`` answer sets.

    * a ground tuple is **possible** iff some grounding of the nulls its
      conditional row references puts it in the result;
    * it is **certain** iff *every* grounding of the nulls referenced by
      its membership formula ``F_t = ⋁_rows (cond ∧ values = t)`` makes
      ``F_t`` true (nulls the formula never mentions cannot change it,
      so quantifying over just the referenced ones is exact).

    This is what the randomized differential suite compares against
    brute-force completion enumeration — note it shares no code path
    with that oracle, only the domain convention
    (:meth:`~repro.core.relation.Relation.enumeration_domain`).
    """
    evaluator = Evaluator(env, limit=limit)
    _, crows = evaluator.symbolic(node)
    possible: set = set()
    for crow in crows:
        mentioned: Dict[int, Null] = {
            id(value): value for value in crow.values if is_null(value)
        }
        for null_obj in nulls_of(crow.cond):
            mentioned.setdefault(id(null_obj), null_obj)
        nulls = tuple(mentioned.values())
        for binding in groundings(nulls, evaluator.domains, limit=limit):
            if not evaluate_ground(crow.cond, binding):
                continue
            possible.add(
                tuple(
                    binding[id(value)] if is_null(value) else value
                    for value in crow.values
                )
            )
    certain: set = set()
    for candidate in possible:
        membership = any_of(
            [
                all_of(
                    [crow.cond]
                    + [
                        EqV(value, constant)
                        for value, constant in zip(crow.values, candidate)
                        if value is not constant
                    ]
                )
                for crow in crows
            ]
        )
        if least_truth(membership, evaluator.domains, limit=limit) is TRUE:
            certain.add(candidate)
    return frozenset(certain), frozenset(possible)
