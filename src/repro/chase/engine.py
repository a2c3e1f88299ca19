"""The NS-rule fixpoint engine (section 6, Definitions 1-2).

Null-Equality Constraints (Definition 1) say two nulls must take the same
value in any substitution; they induce equivalence classes of nulls.  The
Null-Substitution rule for an FD ``X -> Y`` (Definition 2) is: whenever two
tuples agree on ``X`` — equal constants or NEC-related nulls — then for each
``A ∈ Y``:

(a) if exactly one of the two ``A``-values is null, substitute the other's
    constant for it;
(b) if both are null, record the NEC equating them.

The paper then *extends* the rule (still section 6): if both values are
distinct constants, both are replaced by the inconsistent element *nothing*,
"triggering the replacement with nothing of all constants that are equal to
them".  With the extension the system is finite Church-Rosser (Theorem 4);
without it, different application orders can reach different fixpoints
(Figure 5).

Implementation: every cell holds a *node* in a union-find structure.
Constants are interned per (attribute, value) — one node per distinct
constant of a column — so poisoning a constant automatically poisons every
cell holding it, which is exactly the extension's propagation.  Each class
carries a tag (constant / null / nothing); tag merging implements rules
(a), (b) and the extension in one place.

The rule every engine keeps: **every NOTHING cell is one class**.  A
NOTHING cell of the input is interned to the one nothing node, and a
merge that poisons two consistent classes (two distinct constants) also
joins that node's class, whoever asked for it — an NS-rule firing or a
session's fill.  So two NOTHING cells always agree as left-hand-side
values, and "does any cell hold NOTHING" is one lookup.

The engine is *strategy-parametric* in basic mode: the order in which FDs
fire is observable (Figure 5), so callers choose it.  In extended mode any
strategy reaches the same fixpoint (verified wholesale by the tests and
experiment E6).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..core.fd import FD, FDInput, FDSet, as_fd
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.tuples import Row
from ..core.values import NOTHING, Null, is_constant, is_null, null
from ..errors import ReproError
from .unionfind import UnionFind

MODE_BASIC = "basic"
MODE_EXTENDED = "extended"

STRATEGY_FD_ORDER = "fd_order"
STRATEGY_ROUND_ROBIN = "round_robin"
STRATEGY_RANDOM = "random"

ENGINE_AUTO = "auto"
ENGINE_SWEEP = "sweep"

_STRATEGIES = (STRATEGY_FD_ORDER, STRATEGY_ROUND_ROBIN, STRATEGY_RANDOM)

_TAG_CONST = "const"
_TAG_NULL = "null"
_TAG_NOTHING = "nothing"


@dataclass(frozen=True)
class Application:
    """One NS-rule firing, for diagnostics and the experiment logs."""

    fd: FD
    first_row: int
    second_row: int
    attribute: str
    action: str  # "substitute" | "nec" | "nothing"


@dataclass
class ChaseResult:
    """Outcome of chasing an instance with NS-rules.

    ``relation`` is the resulting (minimally incomplete) instance: nulls of
    one NEC class appear as one shared :class:`Null` object; inconsistent
    cells hold :data:`NOTHING`.
    """

    relation: Relation
    nec_classes: List[Tuple[Null, ...]]
    substitutions: Dict[Null, Any]
    applications: List[Application]
    passes: int
    mode: str
    strategy: str

    @property
    def has_nothing(self) -> bool:
        """Theorem 4(b): weak satisfiability fails iff this is True."""
        return any(
            value is NOTHING for row in self.relation.rows for value in row.values
        )

    def summary(self) -> str:
        verdict = "INCONSISTENT (nothing present)" if self.has_nothing else "consistent"
        return (
            f"chase[{self.mode}/{self.strategy}]: {len(self.applications)} "
            f"rule firings over {self.passes} passes; "
            f"{len(self.nec_classes)} NEC classes; {verdict}"
        )


class ChaseState:
    """Mutable chase state over one relation instance."""

    def __init__(self, relation: Relation, fds: Iterable[FDInput], mode: str) -> None:
        if mode not in (MODE_BASIC, MODE_EXTENDED):
            raise ValueError(f"unknown chase mode {mode!r}")
        self.schema: RelationSchema = relation.schema
        self.fds: List[FD] = [as_fd(fd).validate(relation.schema).normalized() for fd in fds]
        self.mode = mode
        self.uf = UnionFind()
        #: tag per ROOT node: (kind, payload)
        self.tags: Dict[int, Tuple[str, Any]] = {}
        #: interned constant nodes per (attribute, value)
        self._const_nodes: Dict[Tuple[str, Any], int] = {}
        #: node per null object id
        self._null_nodes: Dict[int, int] = {}
        self._null_objects: Dict[int, Null] = {}
        #: cells[row][col] -> node
        self.cells: List[List[int]] = []
        self.applications: List[Application] = []
        self.passes = 0
        #: row -> number of NS-rule firings the row *witnessed* (took part
        #: in, as either side of a fired pair).  A row with count 0 never
        #: justified any merge in the current partition, which is what
        #: licenses the session's in-place retirement fast path: removing
        #: such a row cannot strand a merge that surviving rows alone
        #: could not re-derive.  Journalled (``("wit", ...)`` entries) so
        #: trail rewinds keep the counts exact.
        self._row_witness: Dict[int, int] = {}
        self._nothing_node: Optional[int] = None
        self._seen = 0  # union-find merges already counted by fd_order sweeps
        #: mutation journal for backtrackable states (None for the batch
        #: engines — every journaling site in this class is gated on it, so
        #: they pay one predictable branch and nothing else).  ChaseSession
        #: installs a list here and shares it with ``self.uf.trail``; its
        #: worklist core (:mod:`repro.chase.core`) journals unconditionally.
        self._trail: Optional[List[tuple]] = None
        #: per-FD column projections, computed once — no ``schema.position``
        #: lookup ever happens in an inner loop.  Keyed by ``id(fd)`` (the
        #: fd itself is retained in the value to keep the id alive): FD
        #: equality is set-based, so two equal FDs may still list their
        #: attributes in different orders.
        self._fd_cols: Dict[
            int, Tuple[FD, Tuple[int, ...], Tuple[Tuple[str, int], ...]]
        ] = {}
        for fd in self.fds:
            self._columns_of(fd)

        for row in relation.rows:
            encoded: List[int] = []
            for attr, value in zip(self.schema.attributes, row.values):
                encoded.append(self._node_for(attr, value))
            self.cells.append(encoded)

    # -- node bookkeeping ------------------------------------------------------

    def _node_for(self, attr: str, value: Any) -> int:
        if is_null(value):
            key = id(value)
            node = self._null_nodes.get(key)
            if node is None:
                node = self.uf.add()
                self._null_nodes[key] = node
                self._null_objects[key] = value
                self.tags[node] = (_TAG_NULL, value)
                if self._trail is not None:
                    self._trail.append(("newnull", key, node))
            return node
        if value is NOTHING:
            return self._nothing()
        node = self._const_nodes.get((attr, value))
        if node is None:
            node = self.uf.add()
            self._const_nodes[(attr, value)] = node
            self.tags[node] = (_TAG_CONST, value)
            if self._trail is not None:
                self._trail.append(("newconst", (attr, value), node))
        return node

    def _nothing(self) -> int:
        if self._nothing_node is None:
            self._nothing_node = self.uf.add()
            self.tags[self._nothing_node] = (_TAG_NOTHING, None)
            if self._trail is not None:
                self._trail.append(("newnothing", self._nothing_node))
        return self.uf.find(self._nothing_node)

    def _columns_of(
        self, fd: FD
    ) -> Tuple[FD, Tuple[int, ...], Tuple[Tuple[str, int], ...]]:
        """``(fd, lhs column indices, (rhs attr, column) pairs)``, memoized."""
        cols = self._fd_cols.get(id(fd))
        if cols is None:
            cols = (
                fd,
                self.schema.positions(fd.lhs),
                tuple(zip(fd.rhs, self.schema.positions(fd.rhs))),
            )
            self._fd_cols[id(fd)] = cols
        return cols

    def _merge(self, first: int, second: int) -> int:
        """Union two classes and combine their tags.

        Returns the surviving root.  A merge that poisons two consistent
        classes joins the nothing class as well, so every NOTHING cell
        stays in one class (the module's rule).  Caller guarantees the
        merge is legal for the current mode (basic mode never calls with
        two distinct constants).
        """
        a, b = self.uf.find(first), self.uf.find(second)
        if a == b:
            return a
        tag_a, tag_b = self.tags.pop(a), self.tags.pop(b)
        if self._trail is not None:
            # journalled before the union so the reverse sweep undoes the
            # union first, then restores both original tags
            self._trail.append(("tags", a, tag_a, b, tag_b))
        root = self.uf.union(a, b)
        self._moved(root, b if root == a else a)
        tag = self.tags[root] = self._combine(tag_a, tag_b)
        if (
            tag[0] == _TAG_NOTHING
            and tag_a[0] != _TAG_NOTHING
            and tag_b[0] != _TAG_NOTHING
        ):
            return self._merge(root, self._nothing())
        return root

    def _moved(self, survivor: int, absorbed: int) -> None:
        """Move what a subclass keeps per class after ``absorbed`` joined
        ``survivor``; the sweep state keeps nothing."""

    @staticmethod
    def _combine(tag_a: Tuple[str, Any], tag_b: Tuple[str, Any]) -> Tuple[str, Any]:
        kind_a, kind_b = tag_a[0], tag_b[0]
        if kind_a == _TAG_NOTHING or kind_b == _TAG_NOTHING:
            return (_TAG_NOTHING, None)
        if kind_a == _TAG_CONST and kind_b == _TAG_CONST:
            if tag_a[1] == tag_b[1]:
                # equal constants from different columns' interned nodes
                # (cross-column null sharing) — a value-level no-op merge
                return tag_a
            return (_TAG_NOTHING, None)
        if kind_a == _TAG_CONST:
            return tag_a
        if kind_b == _TAG_CONST:
            return tag_b
        return tag_a  # null + null: keep the first representative

    # -- rule application ----------------------------------------------------------

    def _apply_pair(
        self, fd: FD, first: int, second: int
    ) -> bool:
        """Try the NS-rule for one FD on one (ordered) row pair.

        Precondition: the rows agree on ``X`` under the current partition.
        Returns True when at least one class-reducing action fired.
        """
        fired = False
        for attr, col in self._columns_of(fd)[2]:
            node_a = self.uf.find(self.cells[first][col])
            node_b = self.uf.find(self.cells[second][col])
            if node_a == node_b:
                continue
            kind_a = self.tags[node_a][0]
            kind_b = self.tags[node_b][0]
            if kind_a == _TAG_CONST and kind_b == _TAG_CONST:
                if self.tags[node_a][1] == self.tags[node_b][1]:
                    # Two classes holding the *same* constant (possible when
                    # a null shared across columns is substituted: interning
                    # is per column).  At the value level the cells are
                    # equal, so no NS-rule fires — but class-equality must
                    # stay congruent with value-equality for later signature
                    # matches, so the classes merge silently.
                    self._merge(node_a, node_b)
                    fired = True
                    continue
                if self.mode == MODE_BASIC:
                    continue  # Definition 2 has no rule here; a violation
                self._merge(node_a, node_b)
                action = "nothing"
            elif kind_a == _TAG_NULL and kind_b == _TAG_NULL:
                self._merge(node_a, node_b)
                action = "nec"
            elif _TAG_NOTHING in (kind_a, kind_b):
                if self.mode == MODE_BASIC:  # pragma: no cover - defensive
                    continue
                self._merge(node_a, node_b)
                action = "nothing"
            else:
                self._merge(node_a, node_b)
                action = "substitute"
            self.applications.append(
                Application(fd, first, second, attr, action)
            )
            fired = True
        if fired:
            # both rows witnessed at least one merge of this firing; one
            # count per fired pair is enough for the retirement check
            # (eligibility only asks whether a count is zero)
            witness = self._row_witness
            witness[first] = witness.get(first, 0) + 1
            witness[second] = witness.get(second, 0) + 1
            if self._trail is not None:
                self._trail.append(("wit", first, second))
        return fired

    def _x_signature(self, fd: FD, row: int) -> Tuple[int, ...]:
        """The row's ``X`` projection as class roots.

        Equality is "same class" — equal constants (interned to one node),
        NEC-related nulls, or *nothing* cells (all nothings are one class;
        matching through the inconsistent element is what the
        congruence-closure construction behind Theorem 4 does, so every
        engine does the same and they agree exactly).
        """
        cells_row = self.cells[row]
        find = self.uf.find
        return tuple(find(cells_row[col]) for col in self._columns_of(fd)[1])

    def apply_fd_pass(self, fd: FD) -> int:
        """One pass of the NS-rule for a single FD over all row pairs.

        Rows are grouped by their current ``X`` signature; within a group,
        pairs fire in row order against the group's first member, then the
        group is re-scanned until stable (a substitution can enable another
        pair).  Returns the number of class-reducing firings.
        """
        fired = 0
        changed = True
        while changed:
            changed = False
            groups: Dict[Tuple[int, ...], List[int]] = {}
            for row in range(len(self.cells)):
                groups.setdefault(self._x_signature(fd, row), []).append(row)
            for rows in groups.values():
                if len(rows) < 2:
                    continue
                anchor = rows[0]
                for other in rows[1:]:
                    if self._apply_pair(fd, anchor, other):
                        fired += 1
                        changed = True
        return fired

    def run(self, strategy: str = STRATEGY_ROUND_ROBIN, seed: int = 0) -> None:
        """Chase to fixpoint under the given application strategy.

        * ``fd_order`` — exhaust the first FD, then the second, ...,
          repeating the sequence until a full sweep fires nothing.  This is
          the strategy that exposes Figure 5's order dependence when the
          caller permutes ``fds``.
        * ``round_robin`` — one pass per FD per sweep.
        * ``random`` — like round_robin with the FD order reshuffled each
          sweep (seeded).
        """
        if strategy not in _STRATEGIES:
            raise ValueError(f"unknown strategy {strategy!r}")
        rng = random.Random(seed)
        order = list(self.fds)  # reshuffled in place by the random strategy
        while True:
            self.passes += 1
            if strategy == STRATEGY_RANDOM:
                rng.shuffle(order)
            total = 0
            for fd in order:
                if strategy == STRATEGY_FD_ORDER:
                    while self.apply_fd_pass(fd):
                        pass
                    # count via the sweep's merge delta below (applications
                    # alone would miss silent equal-constant merges)
                else:
                    total += self.apply_fd_pass(fd)
            if strategy == STRATEGY_FD_ORDER:
                total = self.uf.merges - self._seen
                self._seen = self.uf.merges
            if total == 0:
                break

    # -- result extraction ------------------------------------------------------------

    def _result_cells(self) -> List[List[int]]:
        """Encoded rows in *result* order.

        The batch engines materialize rows exactly as encoded; the session
        overrides this to map its external row order through the slot
        indirection (retired slots skipped, fast-path replacements kept in
        place)."""
        return self.cells

    def result(self, strategy: str) -> ChaseResult:
        """Materialize the current partition as a :class:`ChaseResult`.

        Every field is a function of the final *partition* alone, never of
        the merge order that produced it: the null displayed for a class is
        its earliest-created member (creation order is fixed by the input
        encoding), not whichever member happened to win the tag during
        unions.  That makes results from different engines — sweep,
        vector, the session's worklist core — compare identical whenever
        their partitions agree, which Theorem 4 guarantees in extended
        mode.
        """
        find = self.uf.find
        by_root: Dict[int, List[Null]] = {}
        for key, node in self._null_nodes.items():
            by_root.setdefault(find(node), []).append(self._null_objects[key])

        rep_null: Dict[int, Null] = {}
        nec_classes: List[Tuple[Null, ...]] = []
        substitutions: Dict[Null, Any] = {}
        for root, members in by_root.items():
            kind, payload = self.tags[root]
            if kind == _TAG_CONST:
                for member in members:
                    substitutions[member] = payload
            elif kind == _TAG_NOTHING:
                for member in members:
                    substitutions[member] = NOTHING
            else:
                rep_null[root] = members[0]
                if len(members) > 1:
                    nec_classes.append(tuple(members))

        rows: List[Row] = []
        for encoded in self._result_cells():
            values: List[Any] = []
            for node in encoded:
                root = find(node)
                kind, payload = self.tags[root]
                if kind == _TAG_CONST:
                    values.append(payload)
                elif kind == _TAG_NOTHING:
                    values.append(NOTHING)
                else:
                    values.append(rep_null[root])
            rows.append(Row(self.schema, values))
        return ChaseResult(
            relation=Relation(self.schema, rows),
            nec_classes=nec_classes,
            substitutions=substitutions,
            applications=list(self.applications),
            passes=self.passes,
            mode=self.mode,
            strategy=strategy,
        )


def chase(
    relation: Relation,
    fds: Iterable[FDInput],
    mode: str = MODE_EXTENDED,
    strategy: str = STRATEGY_ROUND_ROBIN,
    seed: int = 0,
    engine: str = ENGINE_AUTO,
) -> ChaseResult:
    """Run the NS-rule chase to a fixpoint.

    With ``mode="extended"`` (default) the result is the *unique* minimally
    incomplete instance of Theorem 4, independent of ``strategy``.  With
    ``mode="basic"`` the result is *a* minimally incomplete instance that
    may depend on the strategy and FD order — Figure 5's phenomenon.

    ``engine`` selects the execution path:

    * ``"auto"`` (default) — in extended mode, where Theorem 4 makes the
      firing order unobservable, the maintained-root-array vector engine
      (:func:`repro.chase.vector.extended_chase`).  It chases only the
      columns some FD mentions and splices the others back: an NS-rule
      never reads or writes a column outside its FD.  In basic mode,
      where the order *is* the observable (Figure 5) and the strategy
      must be honored literally, the sweep engine.
    * ``"sweep"`` — the strategy-parametric multi-pass engine (both
      modes): Figure 5's chase as written, and the reference the
      differential suites hold every faster path to.

    Both engines produce identical ``relation`` / ``nec_classes`` /
    ``substitutions`` in extended mode; ``applications`` order and the
    ``passes`` count are engine-specific diagnostics.  The vector
    engine's also shift with the bypass where one null object sits both
    in a column no FD mentions and in one some FD does, or a NOTHING cell
    sits in a column no FD mentions: the bypassed occurrences no longer
    weigh in the union-find's merge order.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if engine == ENGINE_AUTO and mode == MODE_EXTENDED:
        from .vector import extended_chase  # local: avoids import cycle

        return extended_chase(relation, fds, strategy)
    if engine not in (ENGINE_AUTO, ENGINE_SWEEP):
        raise ValueError(f"unknown chase engine {engine!r}")
    state = ChaseState(relation, fds, mode)
    state.run(strategy=strategy, seed=seed)
    return state.result(strategy)


# ---------------------------------------------------------------------------
# X-side substitutions (section 4, conditions (1) and (2)) — optional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XSubstitution:
    """A forced substitution for a null on an FD's *left-hand* side."""

    row_index: int
    attribute: str
    value: Any
    condition: str  # "unique-agreeing-completion" | "missing-domain-value"


def x_side_substitutions(
    relation: Relation, fd: FDInput
) -> List[XSubstitution]:
    """The domain-dependent X-null substitutions of section 4.

    Condition (1): all completions of ``t[X]`` appear in ``r``, ``t[Y]`` is
    not null, and exactly one completion agrees with ``t[Y]`` — the null
    must take that completion's value.  Condition (2): all completions but
    one appear, every appearing completion disagrees with ``t[Y]`` (with no
    nulls) — the null must take the missing domain value.

    The paper notes both conditions "are not easy to test" and "seem
    unlikely to occur", recommending that X-side nulls be left incomplete;
    accordingly the chase never applies these, and this function only
    *reports* the forced substitutions for callers that opt in.  Only the
    single-null-in-X case is supported (the multi-null generalization is
    exactly as domain-dependent and even less likely; it falls back to
    reporting nothing).
    """
    fd = as_fd(fd).normalized()
    out: List[XSubstitution] = []
    for index, row in enumerate(relation.rows):
        null_attrs = row.null_attributes(fd.lhs)
        if len(null_attrs) != 1 or row.has_null(fd.rhs):
            continue
        attr = null_attrs[0]
        declared = relation.schema.domain(attr)
        if not declared.is_finite:
            continue
        others = [
            other
            for other in relation.rows
            if other is not row and other.is_total(fd.lhs)
        ]
        fixed = [a for a in fd.lhs if a != attr]
        matching = [
            other
            for other in others
            if other.project(fixed) == row.project(fixed)
        ]
        present = {other[attr] for other in matching}
        missing = declared.missing_from(present)
        t_y = row.project(fd.rhs)
        if not missing:
            agreeing = [o for o in matching if o.project(fd.rhs) == t_y]
            if len(agreeing) == 1:
                out.append(
                    XSubstitution(
                        index, attr, agreeing[0][attr], "unique-agreeing-completion"
                    )
                )
        elif len(missing) == 1:
            disagreeing = all(
                o.is_total(fd.rhs) and o.project(fd.rhs) != t_y for o in matching
            )
            if disagreeing and matching:
                out.append(
                    XSubstitution(index, attr, missing[0], "missing-domain-value")
                )
    return out
