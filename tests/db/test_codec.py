"""The canonical value/schema codec: identity preservation + determinism.

Two contracts:

* **round-trip exactness** — nulls decode to one object per canonical id
  (sharing structure preserved), NOTHING and every scalar constant
  round-trip, schemas round-trip with their finite domains;
* **byte determinism** — two runs of the same op script (each run
  creating its own fresh ``Null`` objects, with whatever process-global
  labels they happen to get) produce byte-identical WAL and checkpoint
  files, because canonical ids are assigned by first-occurrence order,
  never from object identity.
"""

import pytest

from repro.core.codec import (
    ValueCodec,
    fds_from_spec,
    fds_to_spec,
    schema_from_spec,
    schema_to_spec,
)
from repro.core.domain import UNBOUNDED, Domain
from repro.core.values import NOTHING, is_null, null
from repro.errors import CodecError, DomainError

from ..helpers import schema_of


class TestValues:
    def test_scalars_pass_through(self):
        codec = ValueCodec()
        for value in ("a", "", 0, 3, 2.5, True, False):
            assert codec.decode(codec.encode(value)) == value

    def test_none_is_a_legal_constant(self):
        codec = ValueCodec()
        token = codec.encode(None)
        assert token == {"v": None}
        assert codec.decode(token) is None

    def test_nothing_round_trips(self):
        codec = ValueCodec()
        assert codec.decode(codec.encode(NOTHING)) is NOTHING

    def test_shared_nulls_stay_shared(self):
        codec = ValueCodec()
        shared, lonely = null(), null()
        tokens = codec.encode_row([shared, lonely, shared])
        decoder = ValueCodec()
        decoded = decoder.decode_row(tokens)
        assert decoded[0] is decoded[2]
        assert decoded[0] is not decoded[1]
        assert all(is_null(value) for value in decoded)

    def test_same_codec_round_trips_to_the_same_objects(self):
        codec = ValueCodec()
        unknown = null()
        token = codec.encode(unknown)
        assert codec.decode(token) is unknown

    def test_canonical_ids_are_first_occurrence_ordered(self):
        codec = ValueCodec()
        first, second = null(), null()
        assert codec.encode(second) == {"n": "n0"}
        assert codec.encode(first) == {"n": "n1"}
        assert codec.encode(second) == {"n": "n0"}

    def test_lenient_decode_of_unknown_ids(self):
        # a WAL record may reference a null absent from the checkpoint
        # rows; first reference materializes it, later ones re-share it
        codec = ValueCodec()
        a = codec.decode({"n": "n7"})
        b = codec.decode({"n": "n7"})
        assert a is b and is_null(a)

    def test_decoded_ids_reserve_their_numbers(self):
        # recovery without a checkpoint: decoding n0/n1 from the log must
        # push the counter past them, or a fresh null encoded afterwards
        # would alias onto an existing unknown (spurious sharing on the
        # *next* recovery)
        codec = ValueCodec()
        codec.decode({"n": "n0"})
        codec.decode({"n": "n4"})
        assert codec.encode(null()) == {"n": "n5"}

    def test_counter_seeding_prevents_id_reuse(self):
        codec = ValueCodec()
        codec.seed_counter(5)
        assert codec.encode(null()) == {"n": "n5"}
        codec.seed_counter(3)  # never rewinds
        assert codec.encode(null()) == {"n": "n6"}

    def test_unserializable_constant_is_refused(self):
        codec = ValueCodec()
        with pytest.raises(CodecError):
            codec.encode(("tu", "ple"))
        with pytest.raises(CodecError):
            codec.encode(object())

    def test_malformed_tokens_are_refused(self):
        codec = ValueCodec()
        for token in ({"q": 1}, {"n": 3}, ["list"]):
            with pytest.raises(CodecError):
                codec.decode(token)
        with pytest.raises(CodecError):
            codec.decode_row("not-a-list")


class TestSchemaSpecs:
    def test_schema_round_trip_with_domains(self):
        schema = schema_of("A B C", domains={"B": ["x", "y"]})
        rebuilt = schema_from_spec(schema_to_spec(schema))
        assert rebuilt == schema
        assert list(rebuilt.domain("B")) == ["x", "y"]
        assert rebuilt.domain("A") is UNBOUNDED

    def test_domain_spec_round_trip(self):
        domain = Domain(["a", 1, 2.5, None], name="mixed")
        assert Domain.from_spec(domain.to_spec()) == domain

    def test_domain_spec_refuses_object_values(self):
        with pytest.raises(DomainError):
            Domain([("a", "b")], name="bad").to_spec()

    def test_domain_malformed_spec(self):
        with pytest.raises(DomainError):
            Domain.from_spec({"nope": 1})

    def test_schema_malformed_spec(self):
        with pytest.raises(CodecError):
            schema_from_spec({"name": "R"})

    def test_fds_round_trip(self):
        spec = fds_to_spec(["A B -> C", "C -> A"])
        assert spec == ["A B -> C", "C -> A"]
        fds = fds_from_spec(spec)
        assert [repr(fd) for fd in fds] == spec


class TestByteDeterminism:
    def _script(self, db):
        """The same logical op script, with per-run fresh nulls."""
        relation = db.create("r", "A B C", ["A -> B"])
        shared = null()
        relation.insert(("a1", shared, "c1"))
        relation.insert(("a1", null(), shared))
        relation.insert(("a2", "b2", NOTHING))
        relation.update(1, {"C": null()})
        relation.snapshot()
        relation.delete(0)
        relation.rollback()
        db.checkpoint()
        relation.insert(("a3", null(), "c3"))
        relation.fill(3, "B", "b9")
        return relation

    def test_two_runs_produce_byte_identical_dumps(self, tmp_path):
        from repro.db import Database
        from repro.db.storage import CHECKPOINT_NAME, SCHEMA_NAME, WAL_NAME

        blobs = []
        for run in ("one", "two"):
            with Database.open(tmp_path / run, sync="flush") as db:
                self._script(db)
            base = tmp_path / run / "relations" / "r"
            blobs.append(
                tuple(
                    (base / name).read_bytes()
                    for name in (SCHEMA_NAME, WAL_NAME, CHECKPOINT_NAME)
                )
            )
        assert blobs[0] == blobs[1]


class TestOpRecordLayout:
    """``decode_op`` inverts ``encode_op`` for every op-record shape."""

    def records(self):
        shared = null()
        return [
            ("insert", ("a1", shared, NOTHING)),
            ("insert", (shared, None, null())),
            ("delete", 0),
            ("update", 1, {"B": shared, "C": None}),
            ("replace", 2, (shared, "b9", 7)),
            ("fill", 0, "B", "b1"),
            ("fill", 1, "C", None),
            ("reset", (("a", shared, NOTHING), (None, 2.5, shared))),
            ("reset", ()),
            ("adopt",),
            ("snapshot",),
            ("rollback",),
            ("discard",),
            # the session journals both: a no-op update, a bool index
            ("update", 0, {}),
            ("delete", True),
        ]

    def test_every_record_shape_round_trips(self):
        from repro.db.log import decode_op, encode_op

        codec = ValueCodec()
        for seq, record in enumerate(self.records(), start=1):
            payload = encode_op(seq, record, codec)
            assert decode_op(payload["op"], payload, codec.decode) == record

    def test_the_layout_survives_a_fresh_scope(self):
        # recovery decodes with a codec that never saw the objects: the
        # sharing pattern, NOTHING and the {"v": None} escape come back
        from repro.db.log import decode_op, encode_op

        encoder, decoder = ValueCodec(), ValueCodec()
        payloads = [
            encode_op(seq, record, encoder)
            for seq, record in enumerate(self.records(), start=1)
        ]
        assert payloads[0]["row"][2] == {"!": True}
        assert payloads[3]["set"]["C"] == {"v": None}
        decoded = [decode_op(p["op"], p, decoder.decode) for p in payloads]
        shared = decoded[0][1][1]
        assert is_null(shared)
        assert decoded[0][1][2] is NOTHING
        assert decoded[1][1][0] is shared and decoded[1][1][1] is None
        assert decoded[3][2] == {"B": shared, "C": None}
        assert decoded[7][1][0][1] is shared and decoded[7][1][1][2] is shared
        again = [encode_op(p["seq"], r, decoder) for p, r in zip(payloads, decoded)]
        assert again == payloads

    def test_a_log_the_session_writes_reopens(self, tmp_path):
        from repro.db import Database

        with Database.open(tmp_path, sync="flush") as db:
            relation = db.create("r", "A B C", ["A -> B"])
            relation.insert(("a1", null(), "c1"))
            relation.insert(("a2", "b2", "c2"))
            relation.update(0, {})
            relation.delete(True)  # row 1
        with Database.open(tmp_path, sync="flush") as db:
            recovered = db["r"]
            assert recovered.recovery_info["replayed"] == 4
            (row,) = recovered.session.rows
            assert row.values[0::2] == ("a1", "c1") and is_null(row.values[1])

    def test_the_wire_refuses_what_a_client_should_not_send(self):
        from repro.db.log import decode_request
        from repro.errors import OpError

        codec = ValueCodec()
        for request, code in [
            ({"do": "update", "index": 0, "set": {}}, "E_BAD_REQUEST"),
            ({"do": "delete", "index": True}, "E_BAD_INT"),
            ({"do": "fill", "index": False, "attr": "B", "value": 1}, "E_BAD_INT"),
        ]:
            with pytest.raises(OpError) as excinfo:
                decode_request(request["do"], request, codec.decode)
            assert excinfo.value.code == code
        # a stray bool field on a verb without an index is ignored, as before
        request = {"do": "insert", "row": ["a", "b", "c"], "index": True}
        assert decode_request("insert", request, codec.decode) == (
            "insert",
            ("a", "b", "c"),
        )
