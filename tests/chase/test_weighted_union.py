"""Occurrence-weighted union: the invariant and its observable neutrality.

The vector engine and the session's worklist core both weigh every
union-find node by its cell-occurrence count, so a merge keeps the
occurrence-heavy class as root and moves the short occurrence list.  Two
things need pinning:

* the **invariant** — the heavier class really does become the root, in
  particular when an interned constant (one node, many cells) meets a
  multi-node null class that union-by-size would have favored;
* **neutrality** — root choice is pure bookkeeping: chase results are a
  function of the final partition alone, so they must be field-identical
  regardless of the merge order that produced them (FD list order is the
  lever that permutes merge order without changing the fixpoint).
"""

from hypothesis import given, settings

from repro.chase import ChaseSession
from repro.chase.engine import MODE_EXTENDED, chase
from repro.chase.vector import VectorChaseState
from repro.core.relation import Relation
from repro.core.values import null

from ..helpers import schema_of
from ..strategies import assert_field_identical, fd_sets, instances


class TestOccurrenceWeightInvariant:
    def _state(self):
        """Column B: one constant interned across six cells (weight 6).
        Column A: three nulls (weight 1 each) plus three constants."""
        nulls = [null(), null(), null()]
        rows = [(n, "c") for n in nulls] + [
            ("a1", "c"), ("a2", "c"), ("a3", "c")
        ]
        state = VectorChaseState(Relation(schema_of("A B"), rows), [])
        return state, nulls

    def test_interned_constant_carries_its_occurrence_weight(self):
        state, _ = self._state()
        const_node = state.cells[0][1]
        assert state.uf.weight[state.uf.find(const_node)] == 6

    def test_heavier_class_becomes_root(self):
        state, _ = self._state()
        uf = state.uf
        null_nodes = [state.cells[i][0] for i in range(3)]
        state._merge(null_nodes[0], null_nodes[1])
        state._merge(null_nodes[0], null_nodes[2])
        null_root = uf.find(null_nodes[0])
        const_root = uf.find(state.cells[0][1])
        # the null class has three nodes to the constant's one; union by
        # size would root it — occurrence weight (3 cells vs 6) must not
        assert uf.size[null_root] == 3 > uf.size[const_root]
        assert uf.weight[null_root] == 3 < uf.weight[const_root]
        assert state._merge(null_root, const_root) == const_root

    def test_occurrence_index_follows_the_merge(self):
        state, _ = self._state()
        null_root = state._merge(state.cells[0][0], state.cells[1][0])
        const_root = state.uf.find(state.cells[0][1])
        survivor = state._merge(null_root, const_root)
        assert survivor == const_root
        # the two moved cells joined the constant's six
        assert sorted(state._occ[survivor]) == sorted(
            [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 1), (0, 0), (1, 0)]
        )
        assert null_root not in state._occ


# ---------------------------------------------------------------------------
# merge-order invariance (the neutrality half)
# ---------------------------------------------------------------------------


@given(instances(max_rows=5), fd_sets())
@settings(max_examples=100, deadline=None)
def test_indexed_chase_invariant_under_fd_order(instance, fds):
    """The batch extended chase (the vector engine)."""
    forward = chase(instance, fds)
    backward = chase(instance, list(reversed(fds)))
    assert_field_identical(backward, forward)


@given(instances(max_rows=5), fd_sets())
@settings(max_examples=100, deadline=None)
def test_congruence_chase_invariant_under_fd_order(instance, fds):
    """The session's worklist core — congruence closure's signature table
    and use list, maintained incrementally."""
    forward = ChaseSession(instance, fds).result()
    backward = ChaseSession(instance, list(reversed(fds))).result()
    assert_field_identical(backward, forward)


@given(instances(max_rows=4), fd_sets(max_size=3))
@settings(max_examples=75, deadline=None)
def test_fd_order_invariance_holds_across_engines(instance, fds):
    """Reversing the FD list and switching engines at the same time still
    lands on the same fields — partition-determined extraction composed
    with Theorem 4's unique fixpoint."""
    reference = chase(instance, fds, mode=MODE_EXTENDED, engine="sweep")
    flipped = ChaseSession(instance, list(reversed(fds))).result()
    assert_field_identical(flipped, reference)
