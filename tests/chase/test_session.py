"""Differential suite for ChaseSession: every operation leaves the session
field-identical to a from-scratch chase of its raw rows.

The acceptance contract of the session is a single invariant: after *any*
sequence of insert / delete / update / fill / snapshot / rollback, ::

    session.result()  ==  chase(Relation(schema, session.rows), fds)

field by field (rows, NEC classes, substitutions with null identity,
``has_nothing``) — including NOTHING-bearing (poisoned) states.  The
oracle is independent of the session: ``chase()`` runs the vector
engine, which shares none of the session's worklist core.  The
hypothesis driver below mirrors the session's raw semantics op by op and
asserts the invariant after every single step, so a journaling bug in any
trail entry kind surfaces with a minimal counterexample.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chase import ChaseSession, chase
from repro.core.relation import Relation
from repro.core.tuples import Row
from repro.core.values import NOTHING, is_null, null
from repro.errors import ReproError, SchemaError

from ..helpers import schema_of
from ..strategies import assert_field_identical

SCHEMA = schema_of("A B C")
FDS = ["A -> B", "B -> C", "A B -> C", "C -> B"]


def from_scratch(session):
    return chase(session.raw_relation(), list(session.fds))


def assert_session_identical(session):
    assert_field_identical(session.result(), from_scratch(session))


def assert_firings_name_rows(result):
    """Every recorded NS-rule firing names two rows of the result that
    agree on its FD's left-hand side (classes only ever merge)."""
    rows = result.relation.rows
    for app in result.applications:
        first, second = rows[app.first_row], rows[app.second_row]
        assert first.project(app.fd.lhs) == second.project(app.fd.lhs), app


# ---------------------------------------------------------------------------
# unit coverage of each operation and both rewind paths
# ---------------------------------------------------------------------------


class TestBasics:
    def test_empty(self):
        session = ChaseSession(SCHEMA, FDS)
        assert len(session) == 0
        assert not session.has_nothing
        assert session.result().relation.rows == []

    def test_relation_source(self):
        relation = Relation(SCHEMA, [("a", "b", "c"), ("a", null(), "c")])
        session = ChaseSession(relation, ["A -> B"])
        assert len(session) == 2
        assert session.result().relation[1]["B"] == "b"
        assert_session_identical(session)

    def test_insert_returns_index(self):
        session = ChaseSession(SCHEMA, FDS)
        assert session.insert(("a", "b", "c")) == 0
        assert session.insert(("d", "e", "f")) == 1

    def test_arity_error_leaves_state_untouched(self):
        session = ChaseSession(SCHEMA, FDS)
        session.insert(("a", "b", "c"))
        with pytest.raises(SchemaError):
            session.insert(("only", "two"))
        assert len(session) == 1
        assert_session_identical(session)

    def test_bad_indices(self):
        session = ChaseSession(SCHEMA, FDS)
        session.insert(("a", "b", "c"))
        for op in (
            lambda: session.delete(1),
            lambda: session.update(-1, {"A": "x"}),
            lambda: session.replace(5, ("x", "y", "z")),
            lambda: session.fill(2, "A", "v"),
        ):
            with pytest.raises(SchemaError):
                op()

    def test_update_unknown_attribute(self):
        session = ChaseSession(SCHEMA, FDS)
        session.insert(("a", "b", "c"))
        with pytest.raises(SchemaError):
            session.update(0, {"Z": 1})

    def test_fill_non_null_rejected(self):
        session = ChaseSession(SCHEMA, FDS)
        session.insert(("a", "b", "c"))
        with pytest.raises(ReproError):
            session.fill(0, "A", "x")


class TestDeleteRewinds:
    def test_delete_last_row_unpoisons(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c"))
        session.insert(("a", "b2", "c"))
        assert session.has_nothing
        session.delete(1)  # recent row: trail rewind path
        assert not session.has_nothing
        assert_session_identical(session)

    def test_delete_first_row_rebuilds(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c"))
        for i in range(6):
            session.insert(("a", null(), f"c{i}"))
        session.delete(0)  # old row: level-rebuild path
        assert len(session) == 6
        assert_session_identical(session)
        # the b1 grounding came only from the deleted row
        assert all(is_null(row["B"]) for row in session.result().relation)

    def test_delete_shifts_indices(self):
        session = ChaseSession(SCHEMA, FDS)
        session.insert(("a", "b", "c"))
        session.insert(("d", "e", "f"))
        session.insert(("g", "h", "i"))
        session.delete(1)
        assert [row["A"] for row in session.rows] == ["a", "g"]


class TestFill:
    def test_fill_shared_null_fills_everywhere(self):
        shared = null()
        session = ChaseSession(SCHEMA, [])
        session.insert(("a", shared, "c1"))
        session.insert(("d", shared, "c2"))
        session.fill(0, "B", "v")
        assert [row["B"] for row in session.rows] == ["v", "v"]
        assert_session_identical(session)

    def test_fill_multi_column_null(self):
        shared = null()
        session = ChaseSession(SCHEMA, ["B -> C"])
        session.insert((shared, shared, "c0"))
        session.insert(("z", "v", "c1"))
        session.fill(0, "A", "v")  # now both rows have B = v: C conflict
        assert session.has_nothing
        assert_session_identical(session)

    def test_fill_conflicting_forced_value_poisons(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c"))
        session.insert(("a", null(), "c"))
        # the second row's B is already forced to b1 by the chase
        session.fill(1, "B", "b2")
        assert session.has_nothing
        assert_session_identical(session)

    def test_fill_forced_value_accepted_silently(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c"))
        session.insert(("a", null(), "c"))
        session.fill(1, "B", "b1")
        assert not session.has_nothing
        assert_session_identical(session)


class TestRatchetGuard:
    """A fill's (or adopt's) in-place row rewrites must survive later
    structural ops on *other* rows, on both rewind paths.

    Regression: the trail-undo path of delete/update used to peel the
    fill's ``rawset`` entries off rows the survivor replay never
    re-inserts, silently reverting user-supplied constants.
    """

    def _filled_session(self, n_rows=24, fill_at=20):
        session = ChaseSession(schema_of("A B"), [])
        for i in range(n_rows):
            session.insert((f"a{i}", null() if i == fill_at else f"b{i}"))
        session.fill(fill_at, "B", "FILLED")
        return session

    def test_fill_survives_deleting_a_younger_row(self):
        session = self._filled_session()
        session.delete(23)  # young victim: would take the rewind path
        assert session.rows[20]["B"] == "FILLED"
        assert_field_identical(
            session.result(), chase(session.raw_relation(), [])
        )

    def test_fill_survives_deleting_an_older_row(self):
        session = self._filled_session()
        session.delete(0)  # old victim: rebuild path
        assert session.rows[19]["B"] == "FILLED"

    def test_fill_survives_updating_a_younger_row(self):
        session = self._filled_session()
        session.update(23, {"A": "zz"})
        assert session.rows[20]["B"] == "FILLED"

    def test_adopt_survives_deleting_a_younger_row(self):
        session = ChaseSession(schema_of("A B"), ["A -> B"])
        session.insert(("a0", "b0"))
        session.insert(("a0", null()))
        for i in range(2, 16):
            session.insert((f"a{i}", f"b{i}"))
        session.adopt()
        session.delete(15)
        assert session.rows[1]["B"] == "b0"

    def test_rollback_still_crosses_a_fill(self):
        # an explicit rollback *should* revert the fill — that is its job
        session = ChaseSession(schema_of("A B"), [])
        unknown = null()
        session.insert(("a", unknown))
        session.snapshot()
        session.fill(0, "B", "v")
        session.rollback()
        assert session.rows[0]["B"] is unknown
        # and a fresh fill afterwards works on the restored null
        session.fill(0, "B", "w")
        assert session.rows[0]["B"] == "w"


class TestSnapshots:
    def test_rollback_fast_path(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", null(), "c"))
        session.snapshot()
        session.insert(("a", "b1", "c"))
        session.insert(("a", "b2", "c"))
        assert session.has_nothing
        session.rollback()
        assert len(session) == 1
        assert not session.has_nothing
        assert is_null(session.result().relation[0]["B"])
        assert_session_identical(session)

    def test_rollback_after_rewind_rebuilds(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", null(), "c"))
        session.insert(("d", "e", "f"))
        session.snapshot()
        session.delete(0)  # rewinds below the snapshot's mark
        session.insert(("g", "h", "i"))
        session.rollback()
        assert [row["A"] for row in session.rows] == ["a", "d"]
        assert_session_identical(session)

    def test_nested_rollbacks(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b", "c"))
        assert session.snapshot() == 1
        session.insert(("d", "e", "f"))
        assert session.snapshot() == 2
        session.insert(("g", "h", "i"))
        assert session.rollback() == 2
        assert len(session) == 2
        assert session.rollback() == 1
        assert len(session) == 1
        assert session.snapshots == []
        assert_session_identical(session)


class TestAdoptAndReset:
    def test_adopt_commits_substitutions_into_raw_rows(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c"))
        session.insert(("a", null(), "c"))
        committed = session.adopt()
        assert list(committed.values()) == ["b1"]
        assert session.rows[1]["B"] == "b1"  # raw, not just the view
        assert session.substitutions() == {}  # the null left the registry
        assert_session_identical(session)
        # adopted information is data: it survives deleting the forcer
        session.delete(0)
        assert session.rows[0]["B"] == "b1"
        assert_session_identical(session)

    def test_adopt_collapses_nec_classes(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", null(), "c1"))
        session.insert(("a", null(), "c2"))
        session.adopt()
        assert session.rows[0]["B"] is session.rows[1]["B"]
        assert session.result().nec_classes == []
        assert_session_identical(session)

    def test_rollback_over_adopt_restores_unadopted_rows(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c"))
        unknown = null()
        session.insert(("a", unknown, "c"))
        session.snapshot()
        session.adopt()
        session.rollback()
        assert session.rows[1]["B"] is unknown
        assert session.substitutions() == {unknown: "b1"}
        assert_session_identical(session)

    def test_adopt_of_cross_column_grounding_rebuilds_encoding(self):
        # regression: committing a null that spans columns writes the same
        # literal into two columns; a fresh encoding interns each copy into
        # its column's constant node, creating signature collisions the
        # maintained partition (old class, merely tagged) never saw — adopt
        # must fall back to a rebuild so both views agree
        schema = schema_of("A B C D")
        fds = ["A -> B", "C -> D"]
        session = ChaseSession(schema, fds)
        shared = null()
        session.insert(("a", shared, shared, "p"))
        session.insert(("a", "w", "w", "q"))
        session.adopt()
        assert session.has_nothing  # C -> D now fires on the committed 'w'
        assert_session_identical(session)

    def test_adopt_of_poisoned_state_rebuilds_encoding(self):
        # regression: committing a poisoned state writes NOTHING literals
        # into the rows, but the maintained partition still held the
        # poisoned *constants* merged into the nothing class — a later
        # insert reusing such a constant would spuriously poison where a
        # fresh chase of the adopted rows does not
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c"))
        session.insert(("a", "b2", "c"))
        session.adopt()
        session.insert(("z", "b1", "c"))  # b1 must be a fresh, clean constant
        assert session.result().relation[2]["B"] == "b1"
        assert_session_identical(session)

    def test_reset_replaces_contents(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b1", "c"))
        session.reset([("x", null(), "z"), ("x", "y", "z")])
        assert len(session) == 2
        assert session.result().relation[0]["B"] == "y"
        assert_session_identical(session)

    def test_compact_sheds_history_and_keeps_state(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.snapshot()
        session.insert(("a", null(), "c1"))
        session.insert(("a", "b1", "c1"))  # grounding merges journal
        session.adopt()                    # rawset + dereg entries journal
        trail_before = len(session._trail)
        session.compact()
        # the fresh trail re-encodes two fully grounded rows: no null
        # nodes, no merges, no adoption entries — strictly less history
        assert len(session._trail) < trail_before
        assert_session_identical(session)
        # ops keep working on the compacted state
        session.insert(("a", "b9", "c9"))
        assert session.has_nothing is chase(
            session.raw_relation(), ["A -> B"]
        ).has_nothing
        session.delete(1)
        assert_session_identical(session)
        # a pre-compact snapshot is honored through the rebuild fallback
        session.rollback()
        assert len(session) == 0
        assert_session_identical(session)


class TestViews:
    def test_check_against_maintained_instance(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", null(), "c1"))
        session.insert(("a", "b1", "c2"))
        outcome = session.check()
        assert outcome.satisfied  # the fixpoint grounded the null
        # both rows now share B = b1 with distinct C constants
        assert not session.check(["B -> C"], convention="weak").satisfied

    def test_explain_mentions_verdict(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        session.insert(("a", "b", "c"))
        assert "chase" in session.explain()

    def test_substitutions_view_matches_result(self):
        session = ChaseSession(SCHEMA, ["A -> B", "B -> C"])
        session.insert(("a", null(), null()))
        session.insert(("a", "b1", "c1"))
        assert session.substitutions() == session.result().substitutions

    def test_firings_name_rows_after_an_in_place_retirement(self):
        session = ChaseSession(SCHEMA, ["A -> B"])
        for i in range(20):
            session.insert((f"k{i}", f"b{i}", f"c{i}"))
        session.insert(("a", "b", "c"))
        session.insert(("a", null(), "c2"))
        session.delete(0)  # old and merge-free: retired in place
        assert session.stats()["retire_fast"] == 1
        [app] = session.result().applications
        assert (app.first_row, app.second_row) == (19, 20)
        assert "on rows 19,20 at B" in session.explain()
        assert [
            (a.first_row, a.second_row)
            for a in from_scratch(session).applications
        ] == [(19, 20)]


# ---------------------------------------------------------------------------
# randomized differential driver
# ---------------------------------------------------------------------------

_constants = ["v0", "v1", "v2"]
_cell = st.sampled_from(_constants + ["fresh", "s0", "s1", "nothing"])
#: ground prefix cells: mostly constants no later op writes, so old rows
#: stay merge-free (retirable); ``v0`` lets later rows fire against them
_ground = st.sampled_from(["w0", "w1", "w2", "w3", "w4", "w5", "v0"])
#: half the indices aim at the two oldest rows
_index = st.one_of(
    st.sampled_from([0, 1]), st.integers(min_value=0, max_value=11)
)
_fd_lists = st.lists(
    st.sampled_from(FDS), min_size=1, max_size=3, unique=True
)


@st.composite
def op_sequences(draw):
    """A program over the session's full vocabulary, after a ground
    prefix.

    The prefix inserts two to eight ground rows, so the ops after it meet
    old rows deep in the trail; with half the indices aimed at rows 0
    and 1, deletes and replaces reach in-place retirement (a merge-free
    victim in the lower half of the trail) and a replace's slot
    rotation.  Cells name constants, fresh nulls, one of two *shared*
    null objects (so fills and NECs cross rows), or NOTHING.  Indices
    and snapshot choices are drawn as raw integers and resolved modulo
    the live state when the program runs.
    """
    prefix = draw(
        st.lists(st.lists(_ground, min_size=3, max_size=3), min_size=2, max_size=8)
    )
    ops = [("insert", cells, 0, "A", _constants[0]) for cells in prefix]
    n_ops = draw(st.integers(min_value=1, max_value=14))
    for _ in range(n_ops):
        kind = draw(
            st.sampled_from(
                ["insert", "insert", "insert", "delete", "update", "fill",
                 "replace", "adopt", "compact", "snapshot", "rollback"]
            )
        )
        ops.append(
            (
                kind,
                [draw(_cell) for _ in range(3)],
                draw(_index),
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
def test_session_field_identical_after_every_op(ops, fds):
    session = ChaseSession(SCHEMA, fds)
    shared = [null(), null()]
    mirror = []  # raw rows maintained independently of the session
    snapshots = []
    for kind, cells, index, attr, value in ops:
        if kind == "insert":
            row = Row(SCHEMA, _materialize(cells, shared))
            session.insert(row)
            mirror.append(row)
        elif kind == "delete":
            if not mirror:
                continue
            index %= len(mirror)
            session.delete(index)
            mirror.pop(index)
        elif kind == "update":
            if not mirror:
                continue
            index %= len(mirror)
            changes = {attr: _materialize([cells[0]], shared)[0]}
            session.update(index, changes)
            mapping = mirror[index].as_dict()
            mapping.update(changes)
            mirror[index] = Row.from_mapping(SCHEMA, mapping)
        elif kind == "fill":
            if not mirror:
                continue
            index %= len(mirror)
            cell = mirror[index][attr]
            if not is_null(cell):
                continue
            session.fill(index, attr, value)
            mirror = [row.substitute({cell: value}) for row in mirror]
        elif kind == "replace":
            if not mirror:
                continue
            index %= len(mirror)
            row = Row(SCHEMA, _materialize(cells, shared))
            session.replace(index, row)
            mirror[index] = row
        elif kind == "adopt":
            session.adopt()
            mirror = list(chase(Relation(SCHEMA, mirror), fds).relation.rows)
        elif kind == "compact":
            session.compact()  # semantic no-op; mirror unchanged
        elif kind == "snapshot":
            session.snapshot()
            snapshots.append(list(mirror))
            continue
        else:  # rollback: to any outstanding snapshot, popping those above
            if not snapshots:
                continue
            depth = index % len(snapshots)
            while len(snapshots) > depth:
                session.rollback()
                mirror = snapshots.pop()
        assert [tuple(r.values) for r in session.rows] == [
            tuple(r.values) for r in mirror
        ]
        assert_field_identical(
            session.result(), chase(Relation(SCHEMA, mirror), fds)
        )
        assert session.has_nothing == chase(
            Relation(SCHEMA, mirror), fds
        ).has_nothing
        assert_firings_name_rows(session.result())


@given(op_sequences(), _fd_lists)
@settings(max_examples=40, deadline=None)
def test_session_check_agrees_with_stateless_check(ops, fds):
    """session.check() == check_fds on a freshly chased instance."""
    from repro.testfd import check_fds

    session = ChaseSession(SCHEMA, fds)
    shared = [null(), null()]
    for kind, cells, index, attr, value in ops:
        if kind != "insert":
            continue
        session.insert(_materialize(cells, shared))
    if session.has_nothing:
        return  # TEST-FDs rejects NOTHING-bearing instances by contract
    reference = check_fds(
        chase(session.raw_relation(), fds).relation, fds, convention="weak"
    )
    assert session.check().satisfied == reference.satisfied


def test_nothing_cells_rechase_identically_after_inconsistency():
    """Found by the differential above, shrunk and pinned here.  The
    fill's fast path poisons row 0's class (C ground to v1, filled v0),
    and the poisoned class must join the one nothing class: the later
    NOTHING cell then matches it under C -> B, so B turns NOTHING too, as
    in a from-scratch chase."""
    fds = ["A -> B", "B -> C", "C -> B"]
    session = ChaseSession(SCHEMA, fds)
    session.insert(Row(SCHEMA, ["v0", "v0", "v0"]))
    session.replace(0, Row(SCHEMA, ["v1", "v1", null()]))
    session.insert(Row(SCHEMA, ["v1", "v1", "v1"]))
    session.fill(0, "C", "v0")  # forces C: v0 vs v1 under B -> C: NOTHING
    session.insert(Row(SCHEMA, ["v0", "v0", NOTHING]))
    mirror = Relation(
        SCHEMA,
        [
            ["v1", "v1", "v0"],
            ["v1", "v1", "v1"],
            ["v0", "v0", NOTHING],
        ],
    )
    rechased = chase(mirror, fds)
    assert session.has_nothing and rechased.has_nothing
    assert_field_identical(session.result(), rechased)
