"""Tests for the union-find substrate."""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import ChaseSession, VectorChaseState
from repro.chase.unionfind import UnionFind
from repro.core.relation import Relation
from repro.core.values import null

from ..helpers import schema_of


class TestBasics:
    def test_initial_singletons(self):
        uf = UnionFind(3)
        assert not uf.same(0, 1)
        assert uf.find(2) == 2

    def test_union_merges(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        assert uf.same(0, 1)
        assert not uf.same(0, 2)

    def test_union_returns_surviving_root(self):
        uf = UnionFind(2)
        root = uf.union(0, 1)
        assert uf.find(0) == uf.find(1) == root

    def test_union_by_size(self):
        uf = UnionFind(4)
        big = uf.union(0, 1)
        survivor = uf.union(big, 2)
        assert survivor == big  # the larger class keeps its root
        assert uf.union(survivor, 3) == big

    def test_merge_count(self):
        uf = UnionFind(3)
        uf.union(0, 1)
        uf.union(0, 1)  # no-op
        uf.union(1, 2)
        assert uf.merges == 2

    def test_add_grows(self):
        uf = UnionFind(1)
        node = uf.add()
        assert node == 1
        assert len(uf) == 2
        uf.union(0, node)
        assert uf.same(0, 1)

    def test_classes(self):
        uf = UnionFind(4)
        uf.union(0, 1)
        classes = uf.classes()
        sizes = sorted(len(members) for members in classes.values())
        assert sizes == [1, 1, 2]


class TestWeightedUnion:
    def test_default_weights_coincide_with_union_by_size(self):
        uf = UnionFind(4)
        big = uf.union(0, 1)
        assert uf.union(big, 2) == big
        assert uf.weight[big] == 3 == uf.size[big]

    def test_heavier_singleton_beats_larger_class(self):
        # one node of weight 10 (an interned constant in 10 cells) vs a
        # class of three weight-1 nodes: node count says the trio wins,
        # occurrence weight says the constant does
        uf = UnionFind(4)
        uf.set_weight(3, 10)
        trio = uf.union(0, 1)
        trio = uf.union(trio, 2)
        assert uf.size[trio] == 3
        assert uf.union(trio, 3) == 3
        assert uf.weight[3] == 13
        assert uf.size[3] == 4

    def test_weights_accumulate_across_merges(self):
        uf = UnionFind(3)
        uf.set_weight(0, 4)
        uf.set_weight(1, 2)
        root = uf.union(0, 1)
        assert root == 0
        assert uf.weight[0] == 6
        assert uf.union(0, 2) == 0
        assert uf.weight[0] == 7

    def test_set_weight_rejects_non_singletons(self):
        uf = UnionFind(3)
        root = uf.union(0, 1)
        absorbed = 1 if root == 0 else 0
        with pytest.raises(ValueError):
            uf.set_weight(absorbed, 5)  # not a root
        with pytest.raises(ValueError):
            uf.set_weight(root, 5)  # a root, but no longer a singleton
        uf.set_weight(2, 5)  # untouched singleton: fine


@given(st.lists(st.tuples(st.integers(0, 19), st.integers(0, 19)), max_size=40))
@settings(max_examples=100, deadline=None)
def test_matches_naive_partition(pairs):
    """Union-find agrees with a naive partition refinement."""
    uf = UnionFind(20)
    naive = {i: {i} for i in range(20)}
    for a, b in pairs:
        uf.union(a, b)
        if naive[a] is not naive[b]:
            merged = naive[a] | naive[b]
            for member in merged:
                naive[member] = merged
    for i in range(20):
        for j in range(20):
            assert uf.same(i, j) == (naive[i] is naive[j])


@given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=20))
@settings(max_examples=100, deadline=None)
def test_class_count_decreases_by_real_merges(pairs):
    uf = UnionFind(10)
    for a, b in pairs:
        uf.union(a, b)
    assert len(uf.classes()) == 10 - uf.merges


def _merged_states():
    """A vector state and a session, each after NS-rule merges (and the
    session after a snapshot, a poisoning insert and its rollback)."""
    schema, fds = schema_of("A B C"), ["A -> B", "B -> C"]
    rows = [("a", null(), "c"), ("a", "b", null()), ("x", "y", "z")]
    state = VectorChaseState(Relation(schema, rows), fds)
    state.run_vectorized()
    session = ChaseSession(schema, fds, rows)
    session.snapshot()
    session.insert(("a", "b9", "c"))
    session.rollback()
    return state, session


def test_chase_states_are_freed_without_the_cycle_collector():
    # the union-find holds no callback into its state, so neither state
    # is a reference cycle: dropping the last reference frees it
    gc.disable()
    try:
        refs = [weakref.ref(state) for state in _merged_states()]
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
