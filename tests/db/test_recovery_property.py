"""The crash-recovery differential property (the PR's acceptance bar).

For randomized op sequences over the full durable vocabulary — insert /
delete / update / replace / fill / reset / adopt / snapshot / rollback,
with checkpoints injected at random positions — and for **every prefix
length L**:

    apply ops[:L] to a Database relation, crash (abandon the handles,
    optionally tear the next record's first bytes onto the log), reopen
    with ``Database.open`` →  the recovered relation is field-identical
    (`assert_field_identical`, through the canonical-null alignment) to an
    uninterrupted in-memory ``ChaseSession`` that replayed the same
    ops[:L] — including shared-null identity, forced substitutions, and
    NOTHING states.

The per-prefix directories are snapshotted from one continuously-running
database (copytree after each op), so what is tested is the actual byte
trail a crash at that instant would leave — not a convenient re-run.
"""

import random
import shutil

import pytest

from repro.chase import ChaseSession
from repro.core.values import NOTHING, is_null, null
from repro.db import Database, ManagedRelation
from repro.db.storage import WAL_NAME
from repro.errors import ReproError

from ..helpers import schema_of
from ..strategies import assert_recovered_identical

SCHEMA = schema_of("A B C")
FDS = ["A -> B", "B -> C", "A B -> C", "C -> A"]

_CONSTANTS = ["v0", "v1", "v2"]
_TOKENS = _CONSTANTS + ["fresh", "s0", "s1", "nothing"]
_KINDS = (
    ["insert"] * 5
    + ["delete", "update", "replace", "fill", "adopt"]
    + ["reset", "snapshot", "rollback", "checkpoint"]
)


def _materialize(rng, shared):
    values = []
    for _ in range(len(SCHEMA)):
        token = rng.choice(_TOKENS)
        if token == "fresh":
            values.append(null())
        elif token == "nothing":
            values.append(NOTHING)
        elif token.startswith("s"):
            values.append(shared[int(token[1:])])
        else:
            values.append(token)
    return tuple(values)


def make_ops(seed, n_ops):
    """A materialized op sequence; null objects are shared between the
    database run and every reference replay."""
    rng = random.Random(seed)
    shared = [null(), null()]
    depth = 0
    ops = []
    for _ in range(n_ops):
        kind = rng.choice(_KINDS)
        if kind == "rollback" and depth == 0:
            kind = "insert"
        if kind == "checkpoint" and depth:
            kind = "discard"  # a checkpoint refuses outstanding snapshots
        if kind == "snapshot":
            depth += 1
        elif kind == "rollback":
            depth -= 1
        elif kind == "discard":
            depth = 0
        ops.append(
            (
                kind,
                _materialize(rng, shared),
                rng.randrange(64),
                rng.choice(SCHEMA.attributes),
                rng.choice(_CONSTANTS),
                tuple(_materialize(rng, shared) for _ in range(2)),
            )
        )
    return ops


def apply_op(target, op):
    """One op against either side (db relation or reference session).

    Index-dependent ops resolve their target row modulo the current size
    — both sides are at the same state, so they resolve identically.
    """
    kind, values, index, attr, constant, reset_rows = op
    size = len(target)
    if kind == "insert":
        target.insert(values)
    elif kind in ("delete", "update", "replace", "fill"):
        if not size:
            return
        row = index % size
        if kind == "delete":
            target.delete(row)
        elif kind == "update":
            target.update(row, {attr: values[0]})
        elif kind == "replace":
            target.replace(row, values)
        else:
            cell = target.rows[row][attr]
            if is_null(cell):
                target.fill(row, attr, constant)
    elif kind == "adopt":
        target.adopt()
    elif kind == "reset":
        target.reset(list(reset_rows))
    elif kind == "snapshot":
        target.snapshot()
    elif kind == "rollback":
        target.rollback()
    elif kind == "discard":
        target.discard_snapshots()
    elif kind == "checkpoint":
        if isinstance(target, ManagedRelation):
            target.checkpoint()
    else:  # pragma: no cover
        raise AssertionError(kind)


def reference_after(ops):
    """The uninterrupted in-memory session after ``ops``."""
    session = ChaseSession(SCHEMA, FDS)
    for op in ops:
        apply_op(session, op)
    return session


@pytest.mark.parametrize("seed", [7, 23, 61, 101])
def test_recovery_is_field_identical_at_every_prefix(seed, tmp_path):
    ops = make_ops(seed, n_ops=12)
    live_dir = tmp_path / "live"
    prefix_dirs = [tmp_path / f"prefix{i}" for i in range(len(ops) + 1)]

    database = Database.open(live_dir, sync="flush")
    relation = database.create("r", SCHEMA, FDS)
    shutil.copytree(live_dir, prefix_dirs[0])
    for i, op in enumerate(ops):
        apply_op(relation, op)
        # the byte trail a crash immediately after op i+1 would leave
        shutil.copytree(live_dir, prefix_dirs[i + 1])

    for length in range(len(ops) + 1):
        reference = reference_after(ops[:length])
        recovered = Database.open(prefix_dirs[length], sync="flush")["r"]
        assert_recovered_identical(recovered, reference)
        assert recovered.verify()


@pytest.mark.parametrize("seed", [13, 47])
def test_recovery_with_a_torn_tail_lands_on_the_previous_op(seed, tmp_path):
    """Tearing the first bytes of op L+1's record onto prefix L's log must
    recover to exactly the state after op L (the torn op never applied)."""
    ops = make_ops(seed, n_ops=10)
    live_dir = tmp_path / "live"
    database = Database.open(live_dir, sync="flush")
    relation = database.create("r", SCHEMA, FDS)

    for i, op in enumerate(ops):
        crash_dir = tmp_path / f"crash{i}"
        shutil.copytree(live_dir, crash_dir)
        with open(crash_dir / "relations" / "r" / WAL_NAME, "a") as handle:
            handle.write('{"seq":9999,"op":"ins')  # op i+1, torn mid-append
        reference = reference_after(ops[:i])
        recovered = Database.open(crash_dir, sync="flush")["r"]
        assert_recovered_identical(recovered, reference)
        apply_op(relation, op)


def test_double_crash_is_stable(tmp_path):
    """Recovering, mutating, crashing again, and recovering again keeps
    matching the uninterrupted reference throughout."""
    ops = make_ops(5, n_ops=8)
    extra = make_ops(6, n_ops=6)
    live_dir = tmp_path / "live"
    relation = Database.open(live_dir, sync="flush").create("r", SCHEMA, FDS)
    for op in ops:
        apply_op(relation, op)
    second = Database.open(live_dir, sync="flush")["r"]  # crash #1
    for op in extra:
        apply_op(second, op)
    third = Database.open(live_dir, sync="flush")["r"]  # crash #2
    reference = reference_after(ops + extra)
    assert_recovered_identical(third, reference)
    assert third.verify()
