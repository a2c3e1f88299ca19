"""Canonical, identity-preserving serialization of values and schemas.

Badia & Lemire's point about storing incomplete relations is that the
null-marker *semantics* must survive storage end-to-end: a naive row dump
loses exactly the three things the paper's chase maintains — shared nulls
(one unknown occupying several cells), forced substitutions, and the
NOTHING state.  This module is the codec layer the durable subsystem
(:mod:`repro.db`) builds on:

* **Canonical null ids.**  A :class:`ValueCodec` names each distinct
  :class:`~repro.core.values.Null` object by its *first-occurrence order*
  within the codec's scope (``n0``, ``n1``, ...), not by ``id()`` — so two
  runs of the same op script produce **byte-identical** dumps, and a dump
  decoded in a fresh process reconstructs the exact sharing structure:
  cells that held one null object again hold one null object.
* **Tagged values.**  Constants that are JSON scalars pass through
  untouched; nulls become ``{"n": <canonical id>}``; ``NOTHING`` becomes
  ``{"!": true}``; ``None`` (a legal constant) is wrapped as
  ``{"v": null}`` so it cannot be confused with a missing field.  Any
  other constant type raises :class:`~repro.errors.CodecError` — refusing
  is better than a lossy ``repr`` round-trip.
* **Schema and FD specs.**  :func:`schema_to_spec` /
  :func:`schema_from_spec` serialize a
  :class:`~repro.core.schema.RelationSchema` (finite domains via
  :meth:`~repro.core.domain.Domain.to_spec`; unbounded domains are simply
  absent), and :func:`fds_to_spec` / :func:`fds_from_spec` use the FD
  arrow notation, which :meth:`~repro.core.fd.FD.parse` round-trips.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence

from ..errors import CodecError
from .domain import Domain
from .fd import FD, FDInput, as_fd
from .schema import RelationSchema
from .values import NOTHING, Null, is_null, null

#: JSON-scalar constant types the codec passes through untagged.  ``bool``
#: is a subclass of ``int`` but listed for clarity; ``None`` is handled by
#: the tagged ``{"v": ...}`` form.
_SCALARS = (str, int, float, bool)


class ValueCodec:
    """Encode/decode cell values with canonical, stable null identity.

    One codec instance defines one naming scope — for the durable layer,
    one *relation* (checkpoint plus op-log tail share the scope, so a null
    introduced before a checkpoint and referenced after it resolves to the
    same object).  Encoding is deterministic: canonical ids are assigned in
    first-encounter order, never from ``id()``.

    Decoding is deliberately *lenient* about unknown ids: a log record may
    reference a null that no longer occurs in the checkpointed rows (every
    row holding it was deleted while the caller kept the object alive).
    All live occurrences of such an id necessarily come from post-checkpoint
    records, so materializing a fresh null at first reference — and reusing
    it for every later reference — reconstructs the sharing structure
    exactly.
    """

    def __init__(self) -> None:
        #: id(null object) -> canonical id
        self._ids: Dict[int, str] = {}
        #: canonical id -> null object (also keeps the object alive, so a
        #: garbage-collected null can never donate its ``id()`` to a new one)
        self._objects: Dict[str, Null] = {}
        self._next = 0

    # -- scope bookkeeping ---------------------------------------------------

    @property
    def null_counter(self) -> int:
        """The next canonical id to assign (persisted by checkpoints so
        post-recovery encodings keep numbering where the crashed process
        stopped, instead of reusing retired ids)."""
        return self._next

    def seed_counter(self, value: int) -> None:
        """Fast-forward the id counter (checkpoint recovery)."""
        if value > self._next:
            self._next = value

    def id_of(self, null_obj: Null) -> str:
        """The canonical id of a null, assigning one on first encounter."""
        key = id(null_obj)
        canonical = self._ids.get(key)
        if canonical is None:
            # skip ids already registered by decoding (recovery without a
            # checkpoint replays records whose ids must stay reserved —
            # reusing one would alias a new unknown onto an old one)
            canonical = f"n{self._next}"
            while canonical in self._objects:  # pragma: no cover - belt
                self._next += 1
                canonical = f"n{self._next}"
            self._next += 1
            self._ids[key] = canonical
            self._objects[canonical] = null_obj
        return canonical

    def table(self) -> Dict[str, Null]:
        """Canonical id → null object, for the whole scope (a copy).

        The bridge between two scopes that encoded the same logical
        instance: matching ids identify corresponding unknowns, which is
        how the differential recovery suite aligns recovered nulls with
        the reference session's.
        """
        return dict(self._objects)

    def knows(self, canonical: str) -> bool:
        """Has this scope minted (or decoded) the canonical null id?

        Unlike :meth:`object_of`, asking never mints: this is the static
        membership test the batch linter uses to flag references to nulls
        the relation has never named (lenient decoding would silently
        materialize a fresh unknown instead).
        """
        return canonical in self._objects

    def object_of(self, canonical: str) -> Null:
        """The null object behind a canonical id (creating it if unseen —
        see the class docstring on lenient decoding).

        The object is minted by :func:`~repro.core.values.null`, so its
        label is process-unique: canonical ids are scoped per codec, and
        two relations' ``n0`` must not share a label wherever answers key
        nulls by label (query provenance, the served query encoding).
        Encoding goes through ``_ids`` by identity, so the wire token is
        still the canonical id."""
        null_obj = self._objects.get(canonical)
        if null_obj is None:
            null_obj = null()
            self._objects[canonical] = null_obj
            self._ids[id(null_obj)] = canonical
            # decoded ids reserve their number: fresh nulls encoded after
            # a recovery must continue numbering where the log stopped,
            # exactly as the uninterrupted process would have
            if canonical.startswith("n"):
                try:
                    self._next = max(self._next, int(canonical[1:]) + 1)
                except ValueError:
                    pass
        return null_obj

    # -- values ----------------------------------------------------------------

    def encode(self, value: Any) -> Any:
        """One cell value as a JSON-able token."""
        if is_null(value):
            return {"n": self.id_of(value)}
        if value is NOTHING:
            return {"!": True}
        if value is None:
            return {"v": None}
        if isinstance(value, _SCALARS):
            return value
        raise CodecError(
            f"constant {value!r} of type {type(value).__name__} is not "
            "JSON-serializable; durable relations need scalar constants"
        )

    def decode(self, token: Any) -> Any:
        """Invert :meth:`encode`."""
        if isinstance(token, dict):
            if "n" in token:
                canonical = token["n"]
                if not isinstance(canonical, str):
                    raise CodecError(f"malformed null token {token!r}")
                return self.object_of(canonical)
            if "!" in token:
                return NOTHING
            if "v" in token:
                return token["v"]
            raise CodecError(f"unknown value token {token!r}")
        if token is None or isinstance(token, _SCALARS):
            return token
        raise CodecError(f"unknown value token {token!r}")

    # -- rows -------------------------------------------------------------------

    def encode_row(self, values: Sequence[Any]) -> List[Any]:
        return [self.encode(value) for value in values]

    def decode_row(self, tokens: Sequence[Any]) -> List[Any]:
        if not isinstance(tokens, (list, tuple)):
            raise CodecError(f"malformed row {tokens!r}")
        return [self.decode(token) for token in tokens]


# ---------------------------------------------------------------------------
# schema and FD specs
# ---------------------------------------------------------------------------


def schema_to_spec(schema: RelationSchema) -> dict:
    """A JSON-able description of a relation scheme.

    Finite domains serialize through :meth:`Domain.to_spec`; attributes
    with unbounded domains are omitted from the ``domains`` map (the
    schema constructor defaults them back to ``UNBOUNDED``).
    """
    domains = {}
    for attr in schema.attributes:
        declared = schema.domain(attr)
        if declared.is_finite:
            domains[attr] = declared.to_spec()  # type: ignore[union-attr]
    return {
        "name": schema.name,
        "attributes": list(schema.attributes),
        "domains": domains,
    }


def schema_from_spec(spec: dict) -> RelationSchema:
    """Rebuild a relation scheme from :func:`schema_to_spec` output."""
    try:
        domains = {
            attr: Domain.from_spec(sub)
            for attr, sub in spec.get("domains", {}).items()
        }
        return RelationSchema(spec["name"], spec["attributes"], domains=domains)
    except (TypeError, KeyError) as error:
        raise CodecError(f"malformed schema spec: {error}") from None


def fds_to_spec(fds: Iterable[FDInput]) -> List[str]:
    """FDs in arrow notation (``"A B -> C"``), which ``FD.parse`` inverts."""
    return [repr(as_fd(fd)) for fd in fds]


def fds_from_spec(spec: Iterable[str]) -> List[FD]:
    return [FD.parse(text) for text in spec]
