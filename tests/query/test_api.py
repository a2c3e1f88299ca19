"""The unified answer schema: round-trips, integration.

Every read surface returns :class:`repro.api.Answer` /
:class:`~repro.api.ResultSet` shapes now; these tests pin the wire
contract (versioned payloads) and the first-class-result property
(answers materialize as relations that can seed a chase, nulls
surviving by identity).
"""

import warnings

import pytest

from repro import ChaseSession, Database, FDSet
from repro.api import (
    TAG_CERTAIN,
    TAG_MAYBE,
    WIRE_VERSION,
    Answer,
    ResultSet,
)
from repro.core.codec import ValueCodec
from repro.core.values import is_null, null
from repro.errors import ReproError
from repro.query import evaluate, parse_query

from ..helpers import rel


class TestAnswerShape:
    def test_rows_and_len_and_iter(self):
        answer = Answer(TAG_CERTAIN, ("A",), (("a",), ("b",)))
        assert len(answer) == 2
        assert list(answer) == [("a",), ("b",)]
        assert bool(answer)

    def test_bool_prefers_the_check_verdict(self):
        empty_but_satisfied = Answer(
            TAG_CERTAIN, (), (), meta={"satisfied": True}
        )
        assert bool(empty_but_satisfied)
        nonempty_failed = Answer(
            TAG_MAYBE, ("A",), (("a",),), meta={"satisfied": False}
        )
        assert not bool(nonempty_failed)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ReproError, match="unknown answer tag"):
            Answer("definitely", ("A",), ())

    def test_wire_round_trip_preserves_null_identity(self):
        x = null()
        answer = Answer(
            TAG_MAYBE,
            ("A", "B"),
            ((x, "b"), (x, "c")),
            as_of=7,
            provenance={x.label: {"relation": "r", "attribute": "A"}},
            meta={"mode": "least"},
        )
        codec = ValueCodec()
        payload = answer.to_payload(encode=codec.encode)
        assert payload["v"] == WIRE_VERSION
        assert payload["as_of"] == 7

        nulls = {}

        def decode(token):
            if isinstance(token, dict) and "n" in token:
                return nulls.setdefault(token["n"], null(str(token["n"])))
            return token

        back = Answer.from_payload(payload, decode=decode)
        assert back.attributes == answer.attributes
        assert back.as_of == 7 and back.meta == {"mode": "least"}
        # the two occurrences of x decode to ONE null object again
        assert back.rows[0][0] is back.rows[1][0]

    def test_version_mismatch_rejected(self):
        answer = Answer(TAG_CERTAIN, ("A",), ())
        payload = answer.to_payload()
        payload["v"] = WIRE_VERSION + 1
        with pytest.raises(ReproError, match="schema version"):
            Answer.from_payload(payload)

    def test_attribute_access_does_not_warn(self):
        answer = Answer(TAG_CERTAIN, ("A",), (("a",),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert answer.rows == (("a",),)
            assert answer.tag == TAG_CERTAIN


class TestResultSetShape:
    def build(self):
        x = null()
        env = {"r": rel("A B", [["a", "b"], [x, "b"]],
                        domains={"A": ["a", "c"]})}
        return evaluate(parse_query("r where A = 'a'"), env)

    def test_tags_are_enforced(self):
        good = self.build()
        with pytest.raises(ReproError, match="tag='certain'"):
            ResultSet(certain=good.maybe, maybe=good.maybe)

    def test_possible_is_the_union(self):
        result = self.build()
        assert result.possible().rows == (
            result.certain.rows + result.maybe.rows
        )
        assert result.possible().tag == TAG_MAYBE

    def test_payload_round_trip(self):
        result = self.build()
        codec = ValueCodec()
        payload = result.to_payload(encode=codec.encode)
        assert payload["v"] == WIRE_VERSION
        back = ResultSet.from_payload(payload)
        assert back.attributes == result.attributes
        assert len(back.certain) == 1 and len(back.maybe) == 1


class TestAnswersAsChaseInputs:
    def test_query_result_seeds_a_chase_session(self):
        """A maybe-answer relation feeds straight into a ChaseSession —
        nulls keep their identity so the chase can equate them."""
        x = null()
        env = {
            "r": rel("A B", [["k", x]], domains={"B": ["p", "q"]}),
            "s": rel("B C", [[x, "c"]], domains={"B": ["p", "q"]}),
        }
        result = evaluate(parse_query("r join s"), env)
        relation = result.relation(name="joined")
        assert relation.schema.attributes == ("A", "B", "C")

        session = ChaseSession(relation.schema, FDSet.parse("A -> B C"))
        for row in relation.rows:
            session.insert(list(row.values))
        outcome = session.result()
        assert [r.values for r in outcome.relation.rows] == [
            ("k", x, "c")
        ]

    def test_materialized_answer_carries_finite_domains(self):
        env = {"r": rel("A B", [["a", "b"]], domains={"A": ["a", "z"]})}
        result = evaluate(parse_query("r"), env)
        relation = result.relation()
        assert relation.schema.domain("A").is_finite


class TestSessionAnswers:
    def test_result_is_chase_result_and_answerable(self):
        session = ChaseSession(
            rel("A B", []).schema, FDSet.parse("A -> B")
        )
        session.insert(["a", "b"])
        outcome = session.result()
        # the old surface is intact...
        assert [r.values for r in outcome.relation.rows] == [("a", "b")]
        assert outcome.has_nothing is False
        # ...and the unified answer rides along
        answer = outcome.answer()
        assert answer.tag == TAG_CERTAIN
        assert answer.as_of is None and answer.rows == (("a", "b"),)
        assert answer.meta["has_nothing"] is False

    def test_check_answers_both_shapes(self):
        session = ChaseSession(
            rel("A B", []).schema, FDSet.parse("A -> B")
        )
        session.insert(["a", "b"])
        session.insert(["c", null()])
        outcome = session.check()
        assert outcome.satisfied in (True, False)  # old tuple surface
        answer = outcome.answer()
        assert answer.tag in (TAG_CERTAIN, TAG_MAYBE)
        assert answer.meta["satisfied"] == outcome.satisfied
        assert bool(answer) == outcome.satisfied

    def test_database_reads_carry_the_cut_seq(self, tmp_path):
        db = Database.open(tmp_path / "db", create=True)
        try:
            emp = db.create("emp", "A B", fds=["A -> B"])
            emp.insert(["a", "b"])
            result = emp.result()
            assert result.as_of == 1
            assert result.answer().as_of == 1
            emp.insert(["c", "d"])
            assert emp.check().as_of == 2
        finally:
            db.close()
