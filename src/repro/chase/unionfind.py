"""Disjoint-set forest (union-find) used by the NS-rule engines.

Plain integer-keyed DSU with path halving and *weighted* union.  The chase
engines layer *value tags* on top of the partition; keeping the DSU itself
generic keeps both engines honest about where the semantics lives.

Weighted union: every node carries a weight (default 1, so the default is
classic union by size) and the heavier class survives a merge.  The chase
core sets each node's weight to its **cell-occurrence count** — an interned
constant appearing in 500 cells is one node but weighs 500 — so the class
whose occurrence list would be expensive to move is always the one that
stays put.  Union by node count would happily absorb that constant into a
three-null class and then move 500 occurrence entries; union by occurrence
weight moves 3.

Backtracking: a *trail* (installed via :attr:`trail`) turns the structure
into a backtrackable union-find.  Every successful union appends a
``("uf", survivor, absorbed)`` entry; :meth:`undo_union` inverts one entry
exactly, provided entries are undone in reverse order.  Two invariants make
the inversion exact:

* **no path compression while trailing** — :meth:`find` skips path halving
  when a trail is installed, because halving rewrites parent pointers of
  nodes *inside* an absorbed subtree to point above the absorbed root;
  undoing the union by resetting ``parent[absorbed]`` would then strand
  them in the wrong class.  Weighted union alone still bounds tree depth
  logarithmically, so trailing costs ``O(log n)`` finds instead of
  near-``O(1)``;
* **reverse-order undo** — ``size``/``weight`` totals of the absorbed root
  are untouched between the union and its undo only if every later
  mutation (further unions, :meth:`add_weight` bumps) is undone first.

:class:`repro.chase.session.ChaseSession` owns the trail and journals its
own bookkeeping (tags, occurrence lists, signature buckets and their
member lists, per-row merge-witness counts) onto the same list, so one
reverse sweep restores the whole engine state.  The one mutation class
that is deliberately *not* journalled is the session's in-place row
retirement: it excises a provably merge-free row from the layered
structures without touching the partition, then fences the trail below
that moment off from future rewinds (the session's ratchet + generation
bump), because the excised suffix can no longer be reconstructed
entry-by-entry.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple


class UnionFind:
    """Union-find over the integers ``0 .. n-1`` (growable).

    Structures layered on top of the partition (the chase core's occurrence
    index, for instance) are moved by the caller of :meth:`union`, which
    returns the survivor, so it can move exactly the bookkeeping attached
    to the absorbed class — no full rescan.
    """

    __slots__ = ("parent", "size", "weight", "merges", "trail")

    def __init__(self, count: int = 0) -> None:
        self.parent: List[int] = list(range(count))
        self.size: List[int] = [1] * count
        #: per-class weight; roots hold their class's total.  Defaults to 1
        #: per node (weighted union then coincides with union by size);
        #: engines that know better call :meth:`set_weight` before merging.
        self.weight: List[int] = [1] * count
        #: number of successful (class-reducing) unions so far
        self.merges: int = 0
        #: optional shared journal; installing one makes the structure
        #: backtrackable (unions are recorded, path compression stops)
        self.trail: Optional[List[Tuple[Any, ...]]] = None

    def add(self) -> int:
        """Create a fresh singleton node; returns its id."""
        node = len(self.parent)
        self.parent.append(node)
        self.size.append(1)
        self.weight.append(1)
        return node

    def set_weight(self, node: int, weight: int) -> None:
        """Assign a singleton node's weight (before any union touches it).

        Weights are class totals maintained by summation; reassigning a
        non-root (or a root that already absorbed others) would corrupt the
        totals, so this is restricted to fresh singletons.
        """
        if self.parent[node] != node or self.size[node] != 1:
            raise ValueError("set_weight is only valid on singleton roots")
        self.weight[node] = weight

    def find(self, node: int) -> int:
        """Root of ``node``'s class (path halving; plain walk if trailing)."""
        parent = self.parent
        if self.trail is None:
            while parent[node] != node:
                parent[node] = parent[parent[node]]
                node = parent[node]
            return node
        # backtrackable mode: compression would make undo_union inexact
        while parent[node] != node:
            node = parent[node]
        return node

    def union(self, first: int, second: int) -> int:
        """Merge the two classes; returns the surviving root.

        The heavier class wins (weighted union), which both bounds tree
        depth — weights are positive, so the absorbed side at most halves
        the total, giving the usual logarithmic move count — and makes
        "move the absorbed class's occurrences" the cheap side in the
        chase core.
        """
        a, b = self.find(first), self.find(second)
        if a == b:
            return a
        if self.weight[a] < self.weight[b]:
            a, b = b, a
        self.parent[b] = a
        self.size[a] += self.size[b]
        self.weight[a] += self.weight[b]
        self.merges += 1
        if self.trail is not None:
            self.trail.append(("uf", a, b))
        return a

    # -- backtracking ------------------------------------------------------

    def undo_union(self, survivor: int, absorbed: int) -> None:
        """Invert one recorded union (strict reverse-order discipline)."""
        self.parent[absorbed] = absorbed
        self.size[survivor] -= self.size[absorbed]
        self.weight[survivor] -= self.weight[absorbed]
        self.merges -= 1

    def add_weight(self, root: int, delta: int) -> None:
        """Adjust a class total in place (new cell occurrences of an
        existing class).  Unlike :meth:`set_weight` this is valid on any
        root at any time; callers undo it by adding ``-delta`` back."""
        self.weight[root] += delta

    def drop_newest(self, node: int) -> None:
        """Remove the most recently added node (undo of :meth:`add`).

        Valid only while the node is the last one and still a singleton
        root — guaranteed when undoing a trail in reverse order, since any
        union involving the node was undone first.
        """
        if node != len(self.parent) - 1 or self.parent[node] != node:
            raise ValueError("drop_newest must undo the most recent add")
        self.parent.pop()
        self.size.pop()
        self.weight.pop()

    def same(self, first: int, second: int) -> bool:
        return self.find(first) == self.find(second)

    def __len__(self) -> int:
        return len(self.parent)

    def classes(self) -> Dict[int, List[int]]:
        """root -> members, for inspection and result extraction."""
        out: Dict[int, List[int]] = {}
        for node in range(len(self.parent)):
            out.setdefault(self.find(node), []).append(node)
        return out
