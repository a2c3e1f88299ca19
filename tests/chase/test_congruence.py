"""Extended-rule cases from the congruence-closure reading of Theorem 4
(the DST construction: equal arguments force equal results).

They run through ``chase()``'s extended-mode default, the vector engine;
the property suites hold it to the sweep engine's fixpoint.
"""

from hypothesis import given, settings

from repro.chase.engine import MODE_EXTENDED, chase
from repro.chase.minimal import canonical_form
from repro.core.relation import Relation
from repro.core.values import NOTHING, null

from ..helpers import rel, schema_of
from ..strategies import fd_sets, instances


class TestBasicBehaviour:
    def test_substitution(self):
        r = rel("A B", [("a", "-"), ("a", "b1")])
        result = chase(r, ["A -> B"])
        assert result.relation[0]["B"] == "b1"

    def test_nec(self):
        r = rel("A B", [("a", "-"), ("a", "-")])
        result = chase(r, ["A -> B"])
        assert result.relation[0]["B"] is result.relation[1]["B"]
        assert len(result.nec_classes) == 1

    def test_poisoning_and_propagation(self):
        r = rel("A B", [("a", "b1"), ("a", "b2"), ("z", "b1")])
        result = chase(r, ["A -> B"])
        assert result.relation[2]["B"] is NOTHING

    def test_cascade_through_merged_signatures(self):
        # merging B-classes changes the X-signature of B -> C applications:
        # the re-signing path must fire them
        r = rel("A B C", [("a", "-", "-"), ("a", "-", "c5")])
        result = chase(r, ["A -> B", "B -> C"])
        assert result.relation[0]["C"] == "c5"

    def test_section6_example(self):
        r = rel("A B C", [("a", "-", "c1"), ("a", "-", "c2")])
        result = chase(r, ["A -> B", "B -> C"])
        assert result.has_nothing

    def test_figure5_unique_nothing_column(self):
        r = rel(
            "A B C",
            [("a1", "-", "c1"), ("a1", "b1", "c2"), ("a2", "b2", "c1")],
        )
        result = chase(r, ["A -> B", "C -> B"])
        assert all(row["B"] is NOTHING for row in result.relation)

    def test_no_fds_identity(self):
        r = rel("A B", [("a", "-")])
        result = chase(r, [])
        assert canonical_form(result.relation) == canonical_form(r)


class TestDeepCascades:
    def test_long_chain(self):
        # A -> B, B -> C, ..., each level unlocked by the previous merge
        fds = ["A -> B", "B -> C", "C -> D"]
        r = rel(
            "A B C D",
            [
                ("a", "-", "-", "-"),
                ("a", "b0", "-", "-"),
                ("z", "b0", "c0", "-"),
                ("w", "q", "c0", "d0"),
            ],
        )
        result = chase(r, fds)
        expected = chase(r, fds, mode=MODE_EXTENDED, engine="sweep")
        assert canonical_form(result.relation) == canonical_form(expected.relation)

    def test_shared_nulls_across_columns(self):
        n = null()
        schema = schema_of("A B")
        r = Relation(schema, [(n, n), ("a", "x")])
        result = chase(r, ["A -> B"])
        expected = chase(r, ["A -> B"], mode=MODE_EXTENDED, engine="sweep")
        assert canonical_form(result.relation) == canonical_form(expected.relation)


# ---------------------------------------------------------------------------
# property-based equivalence with the sweep engine
# ---------------------------------------------------------------------------

_pool = ("A -> B", "B -> C", "A -> C", "C -> B", "A B -> C", "C -> A B")


@given(
    instances(attributes="A B C", max_rows=5, shared_nulls=0, allow_nothing=False),
    fd_sets(pool=_pool),
)
@settings(max_examples=200, deadline=None)
def test_congruence_equals_extended_fixpoint(instance, fds):
    fast = chase(instance, fds)
    slow = chase(instance, fds, mode=MODE_EXTENDED, engine="sweep")
    assert canonical_form(fast.relation) == canonical_form(slow.relation)
    assert fast.has_nothing == slow.has_nothing


@given(
    instances(attributes="A B C", max_rows=4, shared_nulls=0, allow_nothing=False),
    fd_sets(pool=_pool, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_congruence_substitutions_match(instance, fds):
    fast = chase(instance, fds)
    slow = chase(instance, fds, mode=MODE_EXTENDED, engine="sweep")
    fast_subs = {id(k): v for k, v in fast.substitutions.items()}
    slow_subs = {id(k): v for k, v in slow.substitutions.items()}
    assert fast_subs == slow_subs
