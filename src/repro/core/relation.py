"""Relation instances (possibly containing nulls).

A :class:`Relation` is an ordered collection of :class:`repro.core.tuples.Row`
objects over one schema.  Order matters only for display and for
deterministic iteration; the semantics used by every algorithm is that of a
set of tuples (with nulls compared by identity).

The module implements the paper's completion sets:

* ``AP(t, R')`` — :meth:`repro.core.tuples.Row.completions`;
* ``AP(r, R')`` — :meth:`Relation.completions`, every instance obtained by
  substituting constants for all nulls (optionally restricted to a subset of
  attributes, and optionally constrained by null-equality classes so that
  nulls in the same class receive the same constant — needed by section 6).
"""

from __future__ import annotations

import itertools
import math
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import DomainError, NullsNotAllowedError, SchemaError
from .attributes import AttrsInput, parse_attrs
from .domain import Domain, effective_domain
from .schema import RelationSchema
from .tuples import Row
from .values import NOTHING, Null, is_constant, is_null


class Relation:
    """An instance ``r`` of a relation scheme ``R``."""

    __slots__ = ("schema", "rows")

    def __init__(
        self, schema: RelationSchema, rows: Iterable[Sequence[Any] | Row] = ()
    ) -> None:
        self.schema = schema
        materialized: List[Row] = []
        for row in rows:
            if isinstance(row, Row):
                if row.schema.attributes != schema.attributes:
                    raise SchemaError(
                        f"row scheme {row.schema!r} does not match {schema!r}"
                    )
                materialized.append(row)
            else:
                materialized.append(Row(schema, row))
        self.rows = materialized

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_dicts(
        cls, schema: RelationSchema, dicts: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build an instance from attribute→value mappings."""
        return cls(schema, [Row.from_mapping(schema, d) for d in dicts])

    def with_rows(self, rows: Iterable[Sequence[Any] | Row]) -> "Relation":
        """A new instance with extra rows appended."""
        return Relation(self.schema, list(self.rows) + list(Relation(self.schema, rows).rows))

    # -- collection protocol ---------------------------------------------------

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int) -> Row:
        return self.rows[index]

    def __eq__(self, other: object) -> bool:
        """Set equality of rows (order-insensitive, duplicates collapsed)."""
        if not isinstance(other, Relation):
            return NotImplemented
        if self.schema.attributes != other.schema.attributes:
            return False
        return set(self.rows) == set(other.rows)

    def __hash__(self) -> int:  # pragma: no cover - relations rarely hashed
        return hash((self.schema.attributes, frozenset(self.rows)))

    def __repr__(self) -> str:
        return f"Relation({self.schema!r}, {len(self.rows)} rows)"

    # -- null structure -----------------------------------------------------------

    def has_nulls(self, attributes: AttrsInput | None = None) -> bool:
        """True when some row has a null among ``attributes`` (default all)."""
        return any(row.has_null(attributes) for row in self.rows)

    def nulls(self) -> Tuple[Null, ...]:
        """Every null object in the instance, in row-major order, deduplicated."""
        seen: Dict[int, Null] = {}
        for row in self.rows:
            for value in row.nulls():
                seen.setdefault(id(value), value)
        return tuple(seen.values())

    def null_count(self) -> int:
        """Number of null *cells* (a shared null counts once per occurrence)."""
        return sum(len(row.null_attributes()) for row in self.rows)

    def is_total(self) -> bool:
        """True when the instance is null-free (and NOTHING-free)."""
        return not self.has_nulls() and not any(
            value is NOTHING for row in self.rows for value in row.values
        )

    def require_total(self, operation: str) -> None:
        """Raise unless the instance is null-free; used by classical code."""
        if not self.is_total():
            raise NullsNotAllowedError(
                f"{operation} is defined on null-free instances only "
                f"(instance has {self.null_count()} null cells)"
            )

    # -- columns and domains -----------------------------------------------------

    def column(self, attribute: str) -> Tuple[Any, ...]:
        """All values of one attribute, in row order."""
        position = self.schema.position(attribute)
        return tuple(row.values[position] for row in self.rows)

    def column_constants(self, attribute: str) -> Tuple[Any, ...]:
        """Distinct constants occurring in a column, first-occurrence order."""
        seen: set = set()
        out: List[Any] = []
        for value in self.column(attribute):
            if is_constant(value) and value not in seen:
                seen.add(value)
                out.append(value)
        return tuple(out)

    def enumeration_domain(self, attribute: str) -> Domain:
        """The finite domain used when enumerating completions of a column.

        The declared domain when finite; otherwise the *effective domain*
        built from the column (see :func:`repro.core.domain.effective_domain`).
        """
        declared = self.schema.domain(attribute)
        if declared.is_finite:
            return declared  # type: ignore[return-value]
        return effective_domain(self.column(attribute), None, attribute)

    # -- projections ---------------------------------------------------------------

    def project(
        self, attributes: AttrsInput, distinct: bool = True, name: str = ""
    ) -> "Relation":
        """Projection ``r[X]`` as a new relation instance.

        With ``distinct=True`` duplicate rows (under null-identity equality)
        are collapsed, matching set semantics.
        """
        sub_schema = self.schema.project(attributes, name=name)
        projected = [
            Row(sub_schema, row.project(sub_schema.attributes)) for row in self.rows
        ]
        if distinct:
            unique: List[Row] = []
            seen: set = set()
            for row in projected:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            projected = unique
        return Relation(sub_schema, projected)

    def distinct(self) -> "Relation":
        """The instance with duplicate rows collapsed.

        Section 6 (finiteness argument): "in the sequence of instances r'
        produced after an NS-rule application, all elements are distinct."
        """
        unique: List[Row] = []
        seen: set = set()
        for row in self.rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return Relation(self.schema, unique)

    # -- completions -----------------------------------------------------------------

    def completions(
        self,
        attributes: AttrsInput | None = None,
        null_classes: Mapping[Null, Any] | None = None,
        limit: Optional[int] = None,
    ) -> Iterator["Relation"]:
        """``AP(r, R')`` — every completion of the instance.

        Each completion substitutes a constant for every null among
        ``attributes`` (default: all).  Substitution is *per null object*:
        a null that occurs in several cells receives the same constant in
        all of them, and nulls mapped to the same equivalence class by
        ``null_classes`` (a null→class-key mapping, e.g. from NECs) likewise
        share their substituted value.

        ``limit`` guards against combinatorial blow-ups: if the number of
        completions would exceed it, :class:`repro.errors.DomainError` is
        raised *before* enumeration starts.
        """
        classes = self._null_classes(attributes, null_classes)
        if not classes:
            yield Relation(self.schema, list(self.rows))
            return

        total = 1
        for choices, _ in classes:
            total *= len(choices)
            if limit is not None and total > limit:
                raise DomainError(
                    f"completion enumeration would produce more than "
                    f"{limit} instances"
                )
        if total == 0:
            return  # some class has an empty choice set: no completions

        for combo in itertools.product(*(choices for choices, _ in classes)):
            substitution: Dict[Null, Any] = {}
            for (_, nulls), value in zip(classes, combo):
                for null_obj in nulls:
                    substitution[null_obj] = value
            yield Relation(
                self.schema, [row.substitute(substitution) for row in self.rows]
            )

    def completion_count(
        self,
        attributes: AttrsInput | None = None,
        null_classes: Mapping[Null, Any] | None = None,
    ) -> int:
        """Number of completions :meth:`completions` would yield."""
        return math.prod(
            len(choices)
            for choices, _ in self._null_classes(attributes, null_classes)
        )

    def _null_classes(
        self,
        attributes: AttrsInput | None,
        null_classes: Mapping[Null, Any] | None,
    ) -> List[Tuple[List[Any], List[Null]]]:
        """The null classes among ``attributes`` in first-occurrence order,
        each as (the constants it may take, its null objects).

        A class is one null object, or the nulls ``null_classes`` maps to
        one key.  It may span several attributes (NECs across columns, or
        one null in two columns); its choices are then the intersection of
        the involved enumeration domains.
        """
        attrs = (
            self.schema.attributes
            if attributes is None
            else self.schema.validate_attrs(attributes)
        )
        class_of: Callable[[Null], Any]
        if null_classes is None:
            class_of = id
        else:
            class_of = lambda n: null_classes.get(n, id(n))  # noqa: E731

        classes: Dict[Any, Tuple[List[Any], List[Null]]] = {}
        for attr in attrs:
            domain: Optional[Tuple[Any, ...]] = None
            for value in self.column(attr):
                if not is_null(value):
                    continue
                if domain is None:
                    domain = tuple(self.enumeration_domain(attr))
                    allowed = set(domain)
                key = class_of(value)
                entry = classes.get(key)
                if entry is None:
                    classes[key] = (list(domain), [value])
                    continue
                choices, nulls = entry
                choices[:] = [v for v in choices if v in allowed]
                if all(n is not value for n in nulls):
                    nulls.append(value)
        return list(classes.values())

    # -- rendering ----------------------------------------------------------------

    def to_text(self, null_symbol: str = "-") -> str:
        """A fixed-width table rendering, paper style (nulls shown as ``-``).

        Distinct nulls are distinguished (``-1``, ``-2``, ...) only when the
        instance contains a null that occurs more than once; otherwise the
        bare symbol is used, matching the paper's figures.
        """
        occurrences: Dict[int, int] = {}
        for row in self.rows:
            for value in row.values:
                if is_null(value):
                    occurrences[id(value)] = occurrences.get(id(value), 0) + 1
        show_labels = any(count > 1 for count in occurrences.values())

        def render(value: Any) -> str:
            if is_null(value):
                return f"{null_symbol}{value.label}" if show_labels else null_symbol
            if value is NOTHING:
                return "!"
            return str(value)

        header = list(self.schema.attributes)
        body = [[render(v) for v in row.values] for row in self.rows]
        widths = [
            max(len(header[i]), *(len(line[i]) for line in body)) if body else len(header[i])
            for i in range(len(header))
        ]
        lines = [
            "  ".join(header[i].ljust(widths[i]) for i in range(len(header))),
            "  ".join("-" * widths[i] for i in range(len(header))),
        ]
        for line in body:
            lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(header))))
        return "\n".join(lines)
