"""Concurrency differential harness: the served relation vs a serial oracle.

Randomized multi-client op schedules run against an in-process
:class:`~repro.server.ReproServer`; every *acknowledged* mutation is
recorded with the ``seq`` the server assigned it.  The acked stream,
replayed **serially** through a plain single-caller :class:`Database`
using the same wire payloads and the same decode path, must produce a
field-identical final state — pinning that the writer task imposes one
serial order and that group commit, queueing and interleaving add no
observable behavior beyond that order.

Snapshot reads are differentially checked too: every read response
carries ``as_of`` (the cut's seq), and its rows must equal the serial
replay's state after exactly that prefix — i.e. every concurrent read
equals *some serial prefix* of the acked op stream.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.db import Database
from repro.server import ReproServer
from repro.server import protocol

from ..strategies import assert_recovered_identical

ATTRS = "A B C"
FDS = "A -> B; B -> C"
SEEDS = (101, 202, 303)


def normalize(rows):
    """Wire rows with nulls renamed by first occurrence (row-major).

    The server scope and the replay scope may assign different canonical
    null ids (reads interleave differently with encodes), so comparisons
    go through this order-of-appearance normal form — same idea as
    ``tests.strategies.null_alignment``, at the wire level.
    """
    seen = {}
    out = []
    for row in rows:
        cells = []
        for token in row:
            if isinstance(token, dict) and "n" in token:
                name = token["n"]
                if name not in seen:
                    seen[name] = f"#{len(seen)}"
                cells.append({"n": seen[name]})
            else:
                cells.append(token)
        out.append(cells)
    return out


def random_op(rng: random.Random, client: int, step: int) -> dict:
    """One weighted-random mutation request (no id/rel; caller adds)."""
    roll = rng.random()
    if roll < 0.45:
        cells = []
        for col in range(3):
            pick = rng.random()
            if pick < 0.5:
                cells.append(f"v{rng.randrange(4)}")
            elif pick < 0.75:
                cells.append({"n": None})  # fresh, server-named
            else:
                cells.append({"n": f"shared{rng.randrange(3)}"})
        return {"do": "insert", "row": cells}
    if roll < 0.55:
        return {"do": "delete", "index": rng.randrange(12)}
    if roll < 0.65:
        return {
            "do": "update",
            "index": rng.randrange(12),
            "set": {rng.choice(["B", "C"]): f"v{rng.randrange(4)}"},
        }
    if roll < 0.72:
        return {
            "do": "fill",
            "index": rng.randrange(12),
            "attr": rng.choice(["A", "B", "C"]),
            "value": f"v{rng.randrange(4)}",
        }
    if roll < 0.79:
        return {
            "do": "replace",
            "index": rng.randrange(12),
            "row": [f"v{rng.randrange(4)}", {"n": None}, f"v{rng.randrange(4)}"],
        }
    if roll < 0.86:
        return {"do": "adopt"}
    if roll < 0.93:
        return {"do": "snapshot"}
    return {"do": "rollback"}


async def run_schedule(tmp_path, seed: int, n_clients: int = 4, n_ops: int = 22):
    """Drive one randomized schedule; return (acked, reads, db_path)."""
    rng = random.Random(seed)
    server = ReproServer(tmp_path / "served", sync="flush", create=True)
    await server.start()
    await server.handle({"do": "create", "name": "r", "attrs": ATTRS, "fds": FDS})

    acked = []  # (seq, request) for every ok mutation
    reads = []  # (as_of, normalized rows, has_nothing)

    async def client(c: int) -> None:
        crng = random.Random(seed * 1000 + c)
        for step in range(n_ops):
            if crng.random() < 0.2:
                response = await server.handle(
                    {"id": f"{c}r{step}", "do": "result", "rel": "r"}
                )
                assert response["ok"], response
                reads.append(
                    (
                        response["as_of"],
                        normalize(response["rows"]),
                        response["meta"]["has_nothing"],
                    )
                )
                continue
            request = random_op(crng, c, step)
            request.update(id=f"{c}m{step}", rel="r")
            response = await server.handle(request)
            if response["ok"]:
                acked.append((response["seq"], request))
            if step % 5 == c % 5:
                await asyncio.sleep(0)  # shake up interleavings

    await asyncio.gather(*(client(c) for c in range(n_clients)))
    final = await server.handle({"id": "fin", "do": "result", "rel": "r"})
    assert final["ok"]
    reads.append((final["as_of"], normalize(final["rows"]), final["meta"]["has_nothing"]))
    await server.stop()
    return acked, reads


def replay_serially(tmp_path, acked, wanted_prefixes):
    """Apply the acked stream in seq order through a plain Database.

    Returns the replay relation (left open; caller closes) plus the
    normalized result rows captured after each wanted prefix seq.
    """
    db = Database.open(tmp_path / "replay", sync="none", create=True)
    relation = db.create("r", ATTRS, [f for f in FDS.split(";")])
    prefix_states = {}

    def capture(seq: int) -> None:
        if seq in wanted_prefixes:
            result = relation.result()
            rows = [
                [relation.encode_value(v) for v in row.values]
                for row in result.relation.rows
            ]
            prefix_states[seq] = (normalize(rows), relation.has_nothing)

    capture(0)
    for seq, request in sorted(acked, key=lambda pair: pair[0]):
        apply_fn = protocol.mutation(relation, request["do"], request)
        fields = apply_fn()
        assert fields["seq"] == seq, (
            f"serial replay disagrees on seq: applied as {fields['seq']}, "
            f"server acked {seq} for {request}"
        )
        capture(seq)
    return db, relation, prefix_states


@pytest.mark.parametrize("seed", SEEDS)
def test_concurrent_schedule_matches_serial_replay(tmp_path, seed):
    acked, reads = asyncio.run(run_schedule(tmp_path, seed))
    assert acked, "schedule produced no acknowledged ops"

    # acked seqs are a contiguous 1..N: one writer, one journal order
    seqs = sorted(seq for seq, _ in acked)
    assert seqs == list(range(1, len(seqs) + 1))

    wanted = {as_of for as_of, _, _ in reads} | {0}
    db, replayed, prefix_states = replay_serially(tmp_path, acked, wanted)
    try:
        # every snapshot read equals the serial state after exactly its
        # as_of prefix
        for as_of, rows, has_nothing in reads:
            expected_rows, expected_nothing = prefix_states[as_of]
            assert rows == expected_rows, f"read at seq {as_of} diverges"
            assert has_nothing == expected_nothing

        # final state: recover the served directory and compare
        # field-identically against the serial replay
        recovered = Database.open(tmp_path / "served", sync="none", create=False)
        try:
            assert_recovered_identical(recovered["r"], replayed)
            assert recovered["r"].verify()
        finally:
            recovered.close()
    finally:
        db.close()


def test_group_commit_batches_under_concurrency(tmp_path):
    """With a latch window and clients in flight, batches actually form
    (multiple records per append) and every op still acks."""

    async def run():
        server = ReproServer(tmp_path / "db", sync="flush", create=True, window_s=0.005)
        await server.start()
        await server.handle({"do": "create", "name": "r", "attrs": "A B", "fds": "A -> B"})

        async def client(c):
            for i in range(10):
                response = await server.handle(
                    {"id": f"{c}:{i}", "do": "insert", "rel": "r",
                     "row": [f"a{c}", f"b{c}"]}
                )
                assert response["ok"], response

        await asyncio.gather(*(client(c) for c in range(8)))
        stats = await server.handle({"id": "s", "do": "stats", "rel": "r"})
        await server.stop()
        return stats["stats"]

    stats = asyncio.run(run())
    assert stats["batched_records"] == 80
    assert stats["largest_batch"] >= 2, stats
    assert stats["batches"] < 80, "no batching happened at all"


def test_reads_during_write_storm_are_consistent_prefixes(tmp_path):
    """Isolated readers under a write storm: every answer is a prefix of
    the single-writer history (row count == as_of for an insert-only
    stream) and the writer never waits on them."""

    async def run():
        server = ReproServer(tmp_path / "db", sync="flush", create=True)
        await server.start()
        await server.handle({"do": "create", "name": "r", "attrs": "A B", "fds": []})
        observations = []

        async def writer_client():
            for i in range(60):
                response = await server.handle(
                    {"id": f"w{i}", "do": "insert", "rel": "r", "row": [f"a{i}", f"b{i}"]}
                )
                assert response["ok"], response

        async def reader_client(c):
            for i in range(12):
                response = await server.handle(
                    {"id": f"r{c}:{i}", "do": "result", "rel": "r", "isolated": True}
                )
                assert response["ok"], response
                observations.append((response["as_of"], len(response["rows"])))
                await asyncio.sleep(0)

        await asyncio.gather(writer_client(), *(reader_client(c) for c in range(3)))
        await server.stop()
        return observations

    observations = asyncio.run(run())
    assert observations
    for as_of, n_rows in observations:
        # insert-only stream: the state after prefix k has exactly k rows
        assert n_rows == as_of, observations
