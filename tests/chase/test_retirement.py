"""In-place row retirement: the session delete/update fast path (PR 4).

Two contracts are pinned here, on top of the session suite's global
invariant (``session.result()`` field-identical to a from-scratch chase):

* **when the fast path fires** — old settled rows (no NS-rule ever fired
  on them, no shared nulls) must be served by ``retire_fast`` with zero
  rewinds and zero rebuilds, asserted through :meth:`ChaseSession.stats`
  rather than inferred from timing; merge witnesses and shared-null
  holders must fall back to the journal paths;
* **structural integrity** — after *any* randomized op sequence the
  layered engine structures must exactly mirror each other: the
  occurrence index holds precisely the live cells, every live ``(fd,
  row)`` pair is signed with its current signature, the per-bucket
  member lists partition the signed pairs, anchors are members of their
  own buckets, and witness counts never go negative.  This is the
  member-list ⇄ occurrence-index cross-check the retirement excision
  relies on.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import ChaseSession, chase
from repro.core.tuples import Row
from repro.core.values import NOTHING, is_null, null

from ..helpers import schema_of
from ..strategies import assert_field_identical

SCHEMA = schema_of("A B C")
FDS = ["A -> B", "B -> C", "A B -> C", "C -> B"]


def from_scratch(session):
    return chase(session.raw_relation(), list(session.fds))


def assert_session_identical(session):
    assert_field_identical(session.result(), from_scratch(session))


def assert_core_integrity(session):
    """The layered structures mirror each other exactly."""
    live = list(session._slots)
    assert len(live) == len(set(live)) == len(session._raw_rows)
    assert len(session._marks) == len(session._raw_rows)
    find = session.uf.find

    # occurrence index == exactly the live cells, grouped by class root
    expected_occ = {}
    for slot in live:
        for col, node in enumerate(session.cells[slot]):
            expected_occ.setdefault(find(node), set()).add((slot, col))
    actual_occ = {
        root: set(cells) for root, cells in session._occ.items() if cells
    }
    assert actual_occ == expected_occ
    for root, cells in session._occ.items():
        assert len(cells) == len(set(cells))  # no duplicate entries

    # every live (fd, row) pair is signed with its *current* signature
    expected_sigs = {}
    for k, cols in enumerate(session._lhs_cols):
        for slot in live:
            cells_row = session.cells[slot]
            if len(cols) == 1:
                sig = find(cells_row[cols[0]])
            else:
                sig = tuple(find(cells_row[col]) for col in cols)
            expected_sigs[(k, slot)] = sig
    assert session._sigs == expected_sigs

    # member lists partition the signed pairs; anchors are members
    expected_members = {}
    for (k, slot), sig in session._sigs.items():
        expected_members.setdefault((k, sig), set()).add(slot)
    actual_members = {
        key: set(bucket) for key, bucket in session._members.items()
    }
    assert actual_members == expected_members
    for key, anchor in session._anchors.items():
        assert anchor in session._members[key]

    # witness counts are counts
    assert all(count >= 0 for count in session._row_witness.values())


def settled_session(n=16, fds=FDS):
    """A session over n ground rows with unique values everywhere: no
    NS-rule ever fires, so every row is retirable."""
    session = ChaseSession(SCHEMA, fds)
    for i in range(n):
        session.insert((f"a{i}", f"b{i}", f"c{i}"))
    return session


class TestFastPath:
    def test_old_row_deletes_all_retire(self):
        session = settled_session()
        # a recent merge-heavy tail on top (deep trail behind the victims)
        session.insert(("hot", null(), "cz"))
        session.insert(("hot", "bz", null()))
        for _ in range(10):
            session.delete(0)
            assert_session_identical(session)
            assert_core_integrity(session)
        stats = session.stats()
        assert stats["retire_fast"] == 10
        assert stats["trail_replay"] == 0
        assert stats["level_rebuild"] == 0

    def test_merge_witness_falls_back(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c0"))
        session.insert(("a", null(), "c1"))  # row 0 witnesses the grounding
        for i in range(12):
            session.insert((f"z{i}", f"y{i}", f"x{i}"))
        session.delete(0)
        stats = session.stats()
        assert stats["retire_fast"] == 0
        assert stats["trail_replay"] + stats["level_rebuild"] == 1
        assert_session_identical(session)
        assert_core_integrity(session)
        # the grounding dissolved with its forcer
        assert is_null(session.result().relation[0]["B"])

    def test_shared_null_falls_back(self):
        shared = null()
        session = ChaseSession(SCHEMA, [])
        session.insert(("a0", shared, "c0"))
        for i in range(1, 10):
            session.insert((f"a{i}", f"b{i}", f"c{i}"))
        session.insert(("a10", shared, "c10"))
        session.delete(0)  # holds a null that survives in row 10
        assert session.stats()["retire_fast"] == 0
        assert_session_identical(session)
        assert_core_integrity(session)

    def test_exclusive_null_retires_and_leaves_registry(self):
        session = settled_session(8, fds=[])
        lonely = null()
        session.insert(("x", lonely, "y"))
        for i in range(16):  # enough suffix that rewinding would not pay
            session.insert((f"t{i}", f"u{i}", f"v{i}"))
        session.delete(8)  # the lonely-null row; null occurs nowhere else
        assert session.stats()["retire_fast"] == 1
        assert lonely not in session.substitutions()
        assert all(
            obj is not lonely for obj in session._null_objects.values()
        )
        assert_session_identical(session)
        assert_core_integrity(session)

    def test_nothing_bearing_victim_clears_verdict(self):
        session = ChaseSession(SCHEMA, FDS)
        session.insert(("q", NOTHING, "r"))
        assert session.has_nothing
        for i in range(10):
            session.insert((f"a{i}", f"b{i}", f"c{i}"))
        session.delete(0)  # the old NOTHING-bearing row
        assert session.stats()["retire_fast"] == 1
        assert not session.has_nothing
        assert_session_identical(session)
        assert_core_integrity(session)

    def test_recent_eligible_victim_prefers_the_rewind(self):
        # retiring fences the trail off; a recent victim whose rewind is
        # cheap must keep the replay path even though it is retirable
        session = settled_session(12)
        session.delete(11)
        stats = session.stats()
        assert stats["retire_fast"] == 0
        assert stats["trail_replay"] == 1
        assert_session_identical(session)
        assert_core_integrity(session)

    def test_anchor_promotion_keeps_future_collisions_firing(self):
        # rows 0 and 1 share an A-signature but agree on B/C, so their
        # collision fired without merging (witness-free).  Retire the
        # bucket's anchor; a later colliding insert must still fire
        # against the promoted member.
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b", "c1"))
        session.insert(("a", "b", "c2"))
        for i in range(10):
            session.insert((f"f{i}", f"g{i}", f"h{i}"))
        session.delete(0)
        assert session.stats()["retire_fast"] == 1
        assert_core_integrity(session)
        session.insert(("a", null(), "c3"))  # must ground against row 0
        assert session.result().relation[-1]["B"] == "b"
        assert_session_identical(session)

    def test_retired_constant_is_clean_for_reuse(self):
        session = settled_session(8)
        session.delete(0)  # retires the row holding a0/b0/c0
        session.insert(("a0", null(), "c9"))
        session.insert(("a0", "b9", "c9"))
        assert session.result().relation[-2]["B"] == "b9"
        assert_session_identical(session)
        assert_core_integrity(session)


class TestReplaceFastPath:
    def test_ground_replacement_rotates_in_place(self):
        session = settled_session(8)
        session.replace(3, ("R", "S", "T"))
        assert [row["A"] for row in session.rows][3] == "R"
        assert session.stats()["retire_fast"] == 1
        assert_session_identical(session)
        assert_core_integrity(session)

    def test_update_uses_the_fast_path(self):
        session = settled_session(8)
        session.update(2, {"B": "patched"})
        assert session.rows[2]["B"] == "patched"
        assert session.stats()["retire_fast"] == 1
        assert_session_identical(session)

    def test_null_bearing_replacement_falls_back(self):
        session = settled_session(8)
        session.replace(3, ("R", null(), "T"))
        assert session.stats()["retire_fast"] == 0
        assert_session_identical(session)
        assert_core_integrity(session)

    def test_fast_replace_then_rewind_delete_stays_exact(self):
        # marks are non-monotone after the rotation; the ratchet must send
        # affected rewinds to the rebuild path instead of corrupting state
        session = settled_session(10)
        session.replace(4, ("R", "S", "T"))
        session.insert(("tail1", "u1", "w1"))
        session.insert(("tail2", null(), "w2"))
        session.delete(10)  # recent victim, above the ratchet
        assert_session_identical(session)
        assert_core_integrity(session)
        session.delete(4)  # the rotated row itself (below the ratchet)
        assert_session_identical(session)
        assert_core_integrity(session)


class TestSnapshotInterplay:
    def test_rollback_across_a_retirement_rebuilds_exactly(self):
        session = settled_session(10)
        session.snapshot()
        session.delete(0)
        assert session.stats()["retire_fast"] == 1
        session.rollback()  # gen bumped: must take the rebuild fallback
        assert len(session) == 10
        assert [row["A"] for row in session.rows][0] == "a0"
        assert_session_identical(session)
        assert_core_integrity(session)

    def test_snapshot_after_retirement_still_fast(self):
        session = settled_session(10)
        session.delete(0)
        session.snapshot()
        rebuilds = session.stats()["level_rebuild"]
        session.insert(("n1", null(), "n2"))
        session.rollback()  # no rewind since the snapshot: trail path
        assert session.stats()["level_rebuild"] == rebuilds
        assert len(session) == 9
        assert_session_identical(session)
        assert_core_integrity(session)


class TestStats:
    def test_keys_and_counts_on_old_row_script(self):
        session = settled_session(24)
        session.insert(("hot", null(), "h1"))
        session.insert(("hot", "hb", null()))
        for _ in range(12):
            session.delete(0)
        stats = session.stats()
        assert set(stats) == {"retire_fast", "trail_replay", "level_rebuild"}
        assert stats["retire_fast"] == 12
        assert stats["level_rebuild"] == 0  # bounded: the fast path served all
        # counters survive an explicit rebuild
        session.compact()
        assert session.stats()["retire_fast"] == 12
        assert session.stats()["level_rebuild"] == 1

    def test_stats_returns_a_copy(self):
        session = settled_session(2)
        stats = session.stats()
        stats["retire_fast"] = 999
        assert session.stats()["retire_fast"] == 0


class TestCompactionAndResetInterplay:
    """compact()/reset() after a retire-heavy workload: counters survive,
    the members ⇄ sigs ⇄ occurrence-index mirror is rebuilt exactly, and
    the tombstoned slots actually disappear."""

    def retire_heavy_session(self, n=24, deletes=10):
        session = settled_session(n)
        session.insert(("hot", null(), "h1"))
        session.insert(("hot", "hb", null()))
        for _ in range(deletes):
            session.delete(0)  # old settled victims: all retire in place
        assert session.stats()["retire_fast"] == deletes
        return session

    def test_compact_after_retire_heavy_workload(self):
        session = self.retire_heavy_session()
        before = session.stats()
        rows_before = [tuple(row.values) for row in session.rows]
        assert len(session.cells) > len(session)  # tombstoned slots linger
        session.compact()
        after = session.stats()
        # cumulative counters survive the rebuild; the rebuild is counted
        assert after["retire_fast"] == before["retire_fast"]
        assert after["trail_replay"] == before["trail_replay"]
        assert after["level_rebuild"] == before["level_rebuild"] + 1
        # the rebuild dropped the tombstones and rebuilt the mirrors
        assert len(session.cells) == len(session)
        assert [tuple(row.values) for row in session.rows] == rows_before
        assert_core_integrity(session)
        assert_session_identical(session)

    def test_retirement_keeps_working_after_compact(self):
        session = self.retire_heavy_session()
        session.compact()
        rebuilds = session.stats()["level_rebuild"]
        # rows are "recent" again right after a rebuild (fresh trail), so
        # age the trail with a merge-heavy tail before deleting old rows
        session.insert(("hot2", null(), "t1"))
        session.insert(("hot2", "tb", null()))
        retired = session.stats()["retire_fast"]
        session.delete(0)
        assert session.stats()["retire_fast"] == retired + 1
        assert session.stats()["level_rebuild"] == rebuilds
        assert_core_integrity(session)
        assert_session_identical(session)

    def test_reset_after_retire_heavy_workload(self):
        session = self.retire_heavy_session()
        before = session.stats()
        session.reset([("r0", "s0", "t0"), ("r1", "s1", "t1")])
        after = session.stats()
        assert after["retire_fast"] == before["retire_fast"]
        assert after["level_rebuild"] == before["level_rebuild"] + 1
        assert len(session) == 2
        assert len(session.cells) == 2  # tombstones gone
        assert_core_integrity(session)
        assert_session_identical(session)

    def test_snapshot_across_compact_takes_the_rebuild_fallback(self):
        session = self.retire_heavy_session(n=16, deletes=4)
        session.snapshot()
        session.compact()
        rebuilds = session.stats()["level_rebuild"]
        session.rollback()  # compaction invalidated the trail mark
        assert session.stats()["level_rebuild"] == rebuilds + 1
        assert len(session) == 14  # 16 - 4 + the 2 hot rows
        assert_core_integrity(session)
        assert_session_identical(session)

    def test_randomized_retire_then_compact_then_churn(self):
        import random

        rng = random.Random(91)
        session = self.retire_heavy_session()
        for step in range(30):
            roll = rng.random()
            if roll < 0.45 or not len(session):
                session.insert(
                    (
                        f"k{rng.randrange(6)}",
                        null() if rng.random() < 0.3 else f"m{rng.randrange(6)}",
                        f"c{rng.randrange(4)}",
                    )
                )
            elif roll < 0.7:
                session.delete(rng.randrange(len(session)))
            elif roll < 0.9:
                session.update(
                    rng.randrange(len(session)), {"B": f"u{rng.randrange(5)}"}
                )
            else:
                session.compact()
            assert_core_integrity(session)
            assert_session_identical(session)
        counters = session.stats()
        assert counters["retire_fast"] >= 10  # the seed workload's retirements


# ---------------------------------------------------------------------------
# randomized integrity driver: members ⇄ sigs ⇄ occurrence index, always
# ---------------------------------------------------------------------------

_constants = ["v0", "v1", "v2"]
_cell = st.sampled_from(_constants + ["fresh", "s0", "s1", "nothing"])
_fd_lists = st.lists(st.sampled_from(FDS), min_size=1, max_size=3, unique=True)


@st.composite
def op_sequences(draw):
    n_ops = draw(st.integers(min_value=1, max_value=12))
    ops = []
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["insert", "insert", "insert", "delete", "delete", "update",
                 "replace", "fill", "adopt", "compact", "snapshot", "rollback"]
            )
        )
        ops.append(
            (
                kind,
                [draw(_cell) for _ in range(3)],
                draw(st.integers(min_value=0, max_value=11)),
                draw(st.sampled_from("ABC")),
                draw(st.sampled_from(_constants)),
            )
        )
    return ops


def _materialize(tokens, shared):
    out = []
    for token in tokens:
        if token == "fresh":
            out.append(null())
        elif token == "nothing":
            out.append(NOTHING)
        elif token.startswith("s"):
            out.append(shared[int(token[1:])])
        else:
            out.append(token)
    return out


@given(op_sequences(), _fd_lists)
@settings(max_examples=120, deadline=None)
def test_structures_stay_mirrored_after_every_op(ops, fds):
    session = ChaseSession(SCHEMA, fds)
    shared = [null(), null()]
    for kind, cells, index, attr, value in ops:
        if kind == "insert":
            session.insert(Row(SCHEMA, _materialize(cells, shared)))
        elif kind in ("delete", "update", "replace", "fill"):
            if not len(session):
                continue
            index %= len(session)
            if kind == "delete":
                session.delete(index)
            elif kind == "update":
                session.update(
                    index, {attr: _materialize([cells[0]], shared)[0]}
                )
            elif kind == "replace":
                session.replace(index, Row(SCHEMA, _materialize(cells, shared)))
            else:
                if not is_null(session.rows[index][attr]):
                    continue
                session.fill(index, attr, value)
        elif kind == "adopt":
            session.adopt()
        elif kind == "compact":
            session.compact()
        elif kind == "snapshot":
            session.snapshot()
            continue
        else:  # rollback: to any outstanding snapshot, popping those above
            if not session.snapshots:
                continue
            for _ in range(len(session.snapshots) - index % len(session.snapshots)):
                session.rollback()
        assert_core_integrity(session)
        assert_session_identical(session)
