"""Engine-equivalence tests for the fast extended-mode chase paths.

``chase(mode="extended")`` runs the vector engine (maintained per-column
root arrays); :class:`~repro.chase.ChaseSession` runs the journalled
worklist core.  Both replace the sweep engine's per-firing group rebuild
with incrementally maintained structures; Theorem 4 (finite Church-Rosser
in extended mode) is what licenses the different firing order.  These
tests pin the stronger, implementation-level contract: ``relation`` (up to
null *identity*, not just canonical form), ``nec_classes`` and
``substitutions`` are **field-identical** across the sweep engine (the
paper's Figure 5 chase, the reference), the vector engine and the session
core, on randomized instances with constants, fresh nulls, shared nulls
and NOTHING cells.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import ChaseSession
from repro.chase.engine import (
    MODE_BASIC,
    MODE_EXTENDED,
    STRATEGY_FD_ORDER,
    STRATEGY_RANDOM,
    STRATEGY_ROUND_ROBIN,
    chase,
)
from repro.chase.vector import VectorChaseState
from repro.core.values import NOTHING

from ..helpers import rel
from ..strategies import assert_field_identical, fd_sets, instances

_STRATEGIES = (STRATEGY_FD_ORDER, STRATEGY_ROUND_ROBIN, STRATEGY_RANDOM)


# ---------------------------------------------------------------------------
# directed cases
# ---------------------------------------------------------------------------


class TestWorklistBehaviour:
    def test_substitution(self):
        r = rel("A B", [("a", "-"), ("a", "b1")])
        result = chase(r, ["A -> B"])
        assert result.relation[0]["B"] == "b1"

    def test_cascade_through_rebucketing(self):
        # the A -> B nec must regroup both rows for B -> C and fire it
        r = rel("A B C", [("a", "-", "-"), ("a", "-", "c5")])
        result = chase(r, ["A -> B", "B -> C"])
        assert result.relation[0]["C"] == "c5"

    def test_poisoning_propagates_through_interning(self):
        r = rel("A B", [("a", "b1"), ("a", "b2"), ("z", "b1")])
        result = chase(r, ["A -> B"])
        assert result.relation[2]["B"] is NOTHING

    def test_figure5_unique_nothing_column(self):
        r = rel(
            "A B C",
            [("a1", "-", "c1"), ("a1", "b1", "c2"), ("a2", "b2", "c1")],
        )
        result = chase(r, ["A -> B", "C -> B"])
        assert all(row["B"] is NOTHING for row in result.relation)

    def test_chase_defaults_to_indexed_in_extended_mode(self):
        """The extended-mode default is the vector engine."""
        r = rel("A B", [("a", "-"), ("a", "b1")])
        via_chase = chase(r, ["A -> B"], mode=MODE_EXTENDED)
        state = VectorChaseState(r, ["A -> B"])
        state.run_vectorized()
        direct = state.result(STRATEGY_ROUND_ROBIN)
        assert_field_identical(via_chase, direct)
        assert via_chase.applications == direct.applications
        assert via_chase.passes == direct.passes

    def test_unknown_engine_rejected(self):
        r = rel("A B", [("a", "b")])
        for engine in ("nope", "indexed", "congruence", "vector"):
            with pytest.raises(ValueError):
                chase(r, ["A -> B"], engine=engine)

    def test_fixpoint_has_no_applications_when_rechased(self):
        r = rel("A B C", [("a", "-", "c1"), ("a", "-", "c2")])
        once = chase(r, ["A -> B", "B -> C"])
        twice = chase(once.relation, ["A -> B", "B -> C"])
        assert twice.applications == []
        # relation is unchanged; nec_classes/substitutions legitimately
        # differ — the rechase's input holds ONE shared null object where
        # the original held a two-member NEC class
        assert [r.values for r in twice.relation.rows] == [
            r.values for r in once.relation.rows
        ]


# ---------------------------------------------------------------------------
# randomized equivalence (the acceptance property)
# ---------------------------------------------------------------------------


@given(
    instances(),
    fd_sets(max_size=5),
    st.sampled_from(_STRATEGIES),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=250, deadline=None)
def test_indexed_equals_sweep_on_random_instances(instance, fds, strategy, seed):
    """The default extended engine equals sweep under every strategy."""
    fast = chase(instance, fds)
    slow = chase(
        instance, fds, mode=MODE_EXTENDED, strategy=strategy, seed=seed,
        engine="sweep",
    )
    assert_field_identical(fast, slow)


@given(instances(), fd_sets())
@settings(max_examples=150, deadline=None)
def test_all_three_engines_field_identical(instance, fds):
    """Sweep, vector and the session core: one fixpoint."""
    fast = chase(instance, fds)
    session = ChaseSession(instance, fds).result()
    slow = chase(instance, fds, mode=MODE_EXTENDED, engine="sweep")
    assert_field_identical(fast, slow)
    assert_field_identical(session, slow)


@given(
    instances(max_rows=5),
    fd_sets(),
    st.sampled_from(_STRATEGIES),
)
@settings(max_examples=100, deadline=None)
def test_basic_mode_unaffected_by_engine_param(instance, fds, strategy):
    """Basic mode keeps the sweep path: auto and explicit sweep coincide."""
    auto = chase(instance, fds, mode=MODE_BASIC, strategy=strategy)
    explicit = chase(
        instance, fds, mode=MODE_BASIC, strategy=strategy, engine="sweep"
    )
    assert_field_identical(auto, explicit)
    assert auto.applications == explicit.applications
    assert auto.passes == explicit.passes
