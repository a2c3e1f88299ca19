"""The query-operator AST and its static schema checker.

Six operators — ``Scan``, ``Select``, ``Project``, ``Join`` (natural),
``Rename``, ``Union``, ``Difference`` — closed over
:class:`~repro.core.schema.RelationSchema`.  Selection predicates reuse
the :mod:`repro.nullsem.queries` ``Pred`` AST (``Eq``/``In``/``AttrEq``
and boolean combinations), so the single-relation semantics the seed
has shipped since PR 1 is the same semantics a query pipeline applies.

:func:`output_schema` is the static checker: it walks a tree against a
catalog of schemas and either returns the output scheme (attributes in
deterministic order, finite domains carried through — intersected on
join-shared attributes) or raises :class:`QueryError` carrying one of
the lint diagnostic codes (``E_UNKNOWN_RELATION`` / ``E_UNKNOWN_ATTR``
/ ``E_ARITY`` / ``E_BAD_REQUEST``).  The evaluator, the linter, and the
server ``query`` verb all call the same checker, so a malformed query
is rejected identically on every surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from ..core.domain import UNBOUNDED, Domain
from ..core.schema import DomainLike, RelationSchema
from ..errors import ReproError
from ..nullsem.queries import Pred, referenced_attributes


class QueryError(ReproError):
    """A statically ill-formed query.

    ``code`` is a :mod:`repro.analysis.diagnostics` code so the linter
    can surface the same failure as a :class:`Diagnostic` without a
    second vocabulary.
    """

    def __init__(self, message: str, code: str = "E_BAD_REQUEST") -> None:
        super().__init__(message)
        self.code = code


class Node:
    """Base class for query-tree nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Scan(Node):
    """A base-relation reference."""

    __slots__ = ("name",)
    name: str


@dataclass(frozen=True)
class Select(Node):
    """Rows of ``source`` satisfying ``pred`` (three-valued)."""

    __slots__ = ("source", "pred")
    source: Node
    pred: Pred


@dataclass(frozen=True)
class Project(Node):
    """``source`` restricted to ``attributes`` (duplicates collapse)."""

    __slots__ = ("source", "attributes")
    source: Node
    attributes: Tuple[str, ...]


@dataclass(frozen=True)
class Join(Node):
    """Natural join: equality on every shared attribute."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


@dataclass(frozen=True)
class Rename(Node):
    """``source`` with attributes renamed per ``mapping`` (old → new)."""

    __slots__ = ("source", "mapping")
    source: Node
    mapping: Tuple[Tuple[str, str], ...]


@dataclass(frozen=True)
class Union(Node):
    """Set union of two union-compatible sources."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


@dataclass(frozen=True)
class Difference(Node):
    """Rows of ``left`` that are in no completion of ``right``... under
    the chosen mode — see the evaluator for the exact three-valued
    reading."""

    __slots__ = ("left", "right")
    left: Node
    right: Node


def operands(node: Node) -> Tuple[Node, ...]:
    """A node's input subtrees, left to right (none for a scan)."""
    if isinstance(node, Scan):
        return ()
    if isinstance(node, (Select, Project, Rename)):
        return (node.source,)
    if isinstance(node, (Join, Union, Difference)):
        return (node.left, node.right)
    raise QueryError(f"not a query node: {node!r}")


def relation_names(node: Node) -> Tuple[str, ...]:
    """Every base relation the tree scans, first-occurrence order."""
    seen: Dict[str, None] = {}

    def walk(current: Node) -> None:
        if isinstance(current, Scan):
            seen.setdefault(current.name)
        for child in operands(current):
            walk(child)

    walk(node)
    return tuple(seen)


def _merge_domain(first: DomainLike, second: DomainLike) -> DomainLike:
    """Domain of a join-shared attribute: the consistent intersection."""
    if not first.is_finite:
        return second
    if not second.is_finite:
        return first
    shared = [value for value in first if value in second]
    if not shared:
        # the intersection is empty; equality on this attribute can
        # still hold between nulls under *no* grounding, which the
        # evaluator discovers — statically we just lose the domain.
        return UNBOUNDED
    return Domain(shared)


def output_schema(
    node: Node, catalog: Mapping[str, RelationSchema], name: str = "answer"
) -> RelationSchema:
    """The scheme a query tree produces, or :class:`QueryError`.

    ``catalog`` maps relation name → scheme (a :class:`repro.Database`'s
    relations, a server's, or any ad-hoc environment).
    """
    attrs, domains = _check(node, catalog)
    return RelationSchema(name, attrs, domains=domains)


def _check(
    node: Node, catalog: Mapping[str, RelationSchema]
) -> Tuple[Tuple[str, ...], Dict[str, DomainLike]]:
    if isinstance(node, Scan):
        schema = catalog.get(node.name)
        if schema is None:
            known = ", ".join(sorted(catalog)) or "(none)"
            raise QueryError(
                f"unknown relation {node.name!r} (known: {known})",
                code="E_UNKNOWN_RELATION",
            )
        return schema.attributes, {
            attr: schema.domain(attr) for attr in schema.attributes
        }

    if isinstance(node, Select):
        attrs, domains = _check(node.source, catalog)
        missing = [
            attr
            for attr in referenced_attributes(node.pred)
            if attr not in attrs
        ]
        if missing:
            raise QueryError(
                f"predicate references unknown attribute(s) "
                f"{', '.join(repr(a) for a in missing)} "
                f"(input scheme: {' '.join(attrs)})",
                code="E_UNKNOWN_ATTR",
            )
        return attrs, domains

    if isinstance(node, Project):
        attrs, domains = _check(node.source, catalog)
        if not node.attributes:
            raise QueryError(
                "projection needs at least one attribute", code="E_ARITY"
            )
        if len(set(node.attributes)) != len(node.attributes):
            raise QueryError(
                f"duplicate attribute in projection "
                f"{' '.join(node.attributes)}",
                code="E_ARITY",
            )
        missing = [attr for attr in node.attributes if attr not in attrs]
        if missing:
            raise QueryError(
                f"cannot project onto unknown attribute(s) "
                f"{', '.join(repr(a) for a in missing)} "
                f"(input scheme: {' '.join(attrs)})",
                code="E_UNKNOWN_ATTR",
            )
        return tuple(node.attributes), {
            attr: domains[attr] for attr in node.attributes
        }

    if isinstance(node, Join):
        left_attrs, left_domains = _check(node.left, catalog)
        right_attrs, right_domains = _check(node.right, catalog)
        attrs = left_attrs + tuple(
            attr for attr in right_attrs if attr not in left_attrs
        )
        domains: Dict[str, DomainLike] = dict(right_domains)
        domains.update(left_domains)
        for attr in left_attrs:
            if attr in right_domains:
                domains[attr] = _merge_domain(
                    left_domains[attr], right_domains[attr]
                )
        return attrs, domains

    if isinstance(node, Rename):
        attrs, domains = _check(node.source, catalog)
        mapping = dict(node.mapping)
        if len(mapping) != len(node.mapping):
            raise QueryError(
                "rename maps the same attribute twice", code="E_ARITY"
            )
        missing = [old for old in mapping if old not in attrs]
        if missing:
            raise QueryError(
                f"cannot rename unknown attribute(s) "
                f"{', '.join(repr(a) for a in missing)} "
                f"(input scheme: {' '.join(attrs)})",
                code="E_UNKNOWN_ATTR",
            )
        renamed = tuple(mapping.get(attr, attr) for attr in attrs)
        if len(set(renamed)) != len(renamed):
            raise QueryError(
                f"rename collides attributes: {' '.join(renamed)}",
                code="E_ARITY",
            )
        return renamed, {
            mapping.get(attr, attr): domains[attr] for attr in attrs
        }

    if isinstance(node, (Union, Difference)):
        op = "union" if isinstance(node, Union) else "difference"
        left_attrs, left_domains = _check(node.left, catalog)
        right_attrs, right_domains = _check(node.right, catalog)
        if left_attrs != right_attrs:
            raise QueryError(
                f"{op} needs identical schemes on both sides, got "
                f"({' '.join(left_attrs)}) vs ({' '.join(right_attrs)})",
                code="E_ARITY",
            )
        domains = {}
        for attr in left_attrs:
            left_dom, right_dom = left_domains[attr], right_domains[attr]
            if isinstance(node, Difference):
                # rows come from the left side only
                domains[attr] = left_dom
            elif left_dom.is_finite and right_dom.is_finite:
                merged = list(left_dom)
                merged.extend(v for v in right_dom if v not in left_dom)
                domains[attr] = Domain(merged)
            else:
                domains[attr] = UNBOUNDED
        return left_attrs, domains

    raise QueryError(f"not a query node: {node!r}")
