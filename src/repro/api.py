"""The unified read-answer schema: one shape for every read surface.

Every read in the system — :meth:`repro.ChaseSession.check` /
:meth:`~repro.ChaseSession.result`, :class:`repro.Database` relation
reads, the server's read verbs, and the query layer's answer sets — now
speaks one schema:

* ``tag`` — ``"certain"`` (true under *every* completion of the
  instance) or ``"maybe"`` (true under some completion but not all):
  the paper's strong/weak duality, carried on every answer;
* ``rows`` + ``attributes`` — the answer tuples (engine values: nulls
  stay :class:`~repro.core.values.Null` objects, so identity — which
  unknowns are the *same* unknown — survives into the answer);
* ``as_of`` — the journal seq of the consistent cut the answer was
  computed against (``None`` for a bare in-memory session; a
  ``{relation: seq}`` mapping for multi-relation query answers);
* ``provenance`` — where each answer null came from: answer-scoped
  null name → ``{"relation", "attribute", "id"}`` (``id`` is the
  relation codec's canonical null id when known);
* ``meta`` — verb-specific extras (``satisfied``/``witness`` for
  checks, ``has_nothing`` for fixpoints, counters for stats).

On the wire every answer-shaped response carries ``"v":``
:data:`WIRE_VERSION` so clients can dispatch on schema revisions.  Of
the legacy top-level response fields only a ``check``'s ``satisfied``
(and its ``witness``) remain, alongside the same values in ``meta``.

Answers are first-class relations: :meth:`Answer.relation` materializes
the rows as a :class:`~repro.core.relation.Relation` that can seed a
chase or a :class:`~repro.ChaseSession` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from .core.domain import Domain
from .core.relation import Relation
from .core.schema import RelationSchema
from .core.values import Null, is_null
from .errors import ReproError

#: the wire-schema revision carried as ``"v"`` on every answer-shaped
#: response; bump when the unified schema changes incompatibly.
WIRE_VERSION = 1

TAG_CERTAIN = "certain"
TAG_MAYBE = "maybe"
_TAGS = (TAG_CERTAIN, TAG_MAYBE)


def provenance_of(
    rows: Sequence[Sequence[Any]],
    attributes: Sequence[str],
    relation_name: str = "",
    null_id: Optional[Any] = None,
) -> Dict[str, Dict[str, Any]]:
    """Provenance for every null in ``rows``: label → origin record.

    ``relation_name`` names the relation the rows came from;
    ``null_id(null) -> str | None`` (optional) supplies the relation
    codec's canonical id for the null, when the codec knows it.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for row in rows:
        for attribute, value in zip(attributes, row):
            if not is_null(value) or value.label in out:
                continue
            record: Dict[str, Any] = {"attribute": attribute}
            if relation_name:
                record["relation"] = relation_name
            if null_id is not None:
                known = null_id(value)
                if known is not None:
                    record["id"] = known
            out[value.label] = record
    return out


@dataclass
class Answer:
    """One answer set: rows + certainty tag + cut + null provenance."""

    tag: str
    attributes: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    as_of: Any = None
    live: bool = True
    provenance: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    meta: Dict[str, Any] = field(default_factory=dict)
    domains: Optional[Dict[str, Domain]] = None

    def __post_init__(self) -> None:
        if self.tag not in _TAGS:
            raise ReproError(
                f"unknown answer tag {self.tag!r}; expected one of {_TAGS}"
            )
        self.attributes = tuple(self.attributes)
        self.rows = tuple(tuple(row) for row in self.rows)

    # -- collection protocol ----------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        """Checks answer their verdict; answer sets answer non-emptiness."""
        if "satisfied" in self.meta:
            return bool(self.meta["satisfied"])
        return bool(self.rows)

    # -- materialization ---------------------------------------------------

    def relation(self, name: str = "answer") -> Relation:
        """The answer set as a first-class relation instance.

        Null objects are carried through by identity, so the result can
        seed a chase or a :class:`~repro.ChaseSession` and shared
        unknowns stay shared.
        """
        schema = RelationSchema(name, self.attributes, domains=self.domains)
        return Relation(schema, [list(row) for row in self.rows])

    # -- the wire shape ----------------------------------------------------

    def to_payload(self, encode: Optional[Any] = None) -> Dict[str, Any]:
        """The versioned wire object (``encode`` maps one engine value to
        its wire token; identity when omitted)."""
        encode = encode or (lambda value: value)
        payload: Dict[str, Any] = {
            "v": WIRE_VERSION,
            "tag": self.tag,
            "attrs": list(self.attributes),
            "rows": [[encode(value) for value in row] for row in self.rows],
            "as_of": self.as_of,
            "live": self.live,
        }
        if self.provenance:
            payload["provenance"] = {
                label: dict(record)
                for label, record in self.provenance.items()
            }
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], decode: Optional[Any] = None
    ) -> "Answer":
        """Parse a versioned wire object back into an :class:`Answer`."""
        version = payload.get("v")
        if version != WIRE_VERSION:
            raise ReproError(
                f"unsupported answer schema version {version!r} "
                f"(this client speaks v{WIRE_VERSION})"
            )
        decode = decode or (lambda token: token)
        return cls(
            tag=str(payload["tag"]),
            attributes=tuple(payload["attrs"]),
            rows=tuple(
                tuple(decode(token) for token in row)
                for row in payload.get("rows", ())
            ),
            as_of=payload.get("as_of"),
            live=bool(payload.get("live", True)),
            provenance=dict(payload.get("provenance", {})),
            meta=dict(payload.get("meta", {})),
        )


@dataclass
class ResultSet:
    """A query's full answer: the certain set and the maybe set.

    ``certain`` holds the rows true under **every** completion of the
    database; ``maybe`` the rows true under *some* completion but not
    provably all.  ``possible()`` is their union — the paper's weak
    (possible-answer) set.  Both answers share attributes, cut, and
    provenance.
    """

    certain: Answer
    maybe: Answer

    def __post_init__(self) -> None:
        if self.certain.tag != TAG_CERTAIN:
            raise ReproError("ResultSet.certain must carry tag='certain'")
        if self.maybe.tag != TAG_MAYBE:
            raise ReproError("ResultSet.maybe must carry tag='maybe'")

    @property
    def attributes(self) -> Tuple[str, ...]:
        return self.certain.attributes

    @property
    def as_of(self) -> Any:
        return self.certain.as_of

    @property
    def live(self) -> bool:
        return self.certain.live and self.maybe.live

    def possible(self) -> Answer:
        """Certain ∪ maybe as one ``maybe``-tagged answer set."""
        provenance = dict(self.certain.provenance)
        provenance.update(self.maybe.provenance)
        return Answer(
            tag=TAG_MAYBE,
            attributes=self.attributes,
            rows=self.certain.rows + self.maybe.rows,
            as_of=self.as_of,
            live=self.live,
            provenance=provenance,
            domains=self.certain.domains,
        )

    def relation(self, name: str = "answer") -> Relation:
        """The possible-answer set materialized as a relation."""
        return self.possible().relation(name)

    def to_payload(self, encode: Optional[Any] = None) -> Dict[str, Any]:
        payload = {
            "v": WIRE_VERSION,
            "attrs": list(self.attributes),
            "certain": self.certain.to_payload(encode),
            "maybe": self.maybe.to_payload(encode),
            "as_of": self.as_of,
            "live": self.live,
        }
        return payload

    @classmethod
    def from_payload(
        cls, payload: Mapping[str, Any], decode: Optional[Any] = None
    ) -> "ResultSet":
        version = payload.get("v")
        if version != WIRE_VERSION:
            raise ReproError(
                f"unsupported answer schema version {version!r} "
                f"(this client speaks v{WIRE_VERSION})"
            )
        return cls(
            certain=Answer.from_payload(payload["certain"], decode),
            maybe=Answer.from_payload(payload["maybe"], decode),
        )
