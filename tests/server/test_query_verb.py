"""The ``query`` verb vs a serial oracle: every answer is a prefix cut.

Same shape as the mutation differential in
``test_concurrent_property.py``: randomized multi-client schedules mix
mutations on two relations with ``query`` requests; every query answer
carries ``as_of`` (a scalar for one scanned relation, a
``{relation: seq}`` map otherwise).  Replaying the acked mutation
streams serially and evaluating the same query with the library
evaluator over the per-relation prefix states must reproduce the
certain and maybe row lists exactly — i.e. every concurrent query
equals the serial evaluation at *some* consistent cut, per relation.
"""

from __future__ import annotations

import asyncio
import random

import pytest

from repro.core.values import is_null
from repro.db import Database
from repro.query import evaluate, parse_query, relation_names
from repro.server import ReproServer, protocol

R_ATTRS, R_FDS = "A B C", "A -> B"
S_ATTRS, S_FDS = "C D", "C -> D"
SEEDS = (11, 47)

QUERIES = (
    "r",
    "r[A, B]",
    "r where A = 'v0'",
    "r where B != 'v1'",
    "r join s",
    "r join s [A, D]",
    "r[C] union s[C]",
    "r[C] minus s[C]",
)
MODES = ("least", "kleene")


def normalize_wire(rows):
    """Wire rows with null tokens renamed by first occurrence."""
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


def normalize_values(rows):
    """Engine-value rows in the same normal form (nulls by identity)."""
    seen = {}
    out = []
    for row in rows:
        cells = []
        for value in row:
            if is_null(value):
                if id(value) not in seen:
                    seen[id(value)] = f"#{len(seen)}"
                cells.append({"n": seen[id(value)]})
            else:
                cells.append(value)
        out.append(cells)
    return out


def random_mutation(rng: random.Random, rel: str) -> dict:
    arity = 3 if rel == "r" else 2
    roll = rng.random()
    if roll < 0.6:
        cells = []
        for _ in range(arity):
            pick = rng.random()
            if pick < 0.55:
                cells.append(f"v{rng.randrange(3)}")
            elif pick < 0.8:
                cells.append({"n": None})
            else:
                cells.append({"n": f"shared{rng.randrange(2)}"})
        return {"do": "insert", "rel": rel, "row": cells}
    if roll < 0.8:
        return {"do": "delete", "rel": rel, "index": rng.randrange(8)}
    return {
        "do": "fill",
        "rel": rel,
        "index": rng.randrange(8),
        "attr": "B" if rel == "r" else "D",
        "value": f"v{rng.randrange(3)}",
    }


async def run_schedule(tmp_path, seed: int, n_clients: int = 3, n_ops: int = 18):
    rng = random.Random(seed)
    server = ReproServer(tmp_path / "served", sync="flush", create=True)
    await server.start()
    await server.handle({"do": "create", "name": "r", "attrs": R_ATTRS, "fds": R_FDS})
    await server.handle({"do": "create", "name": "s", "attrs": S_ATTRS, "fds": S_FDS})

    acked = {"r": [], "s": []}  # per relation: (seq, request)
    answers = []  # (q, mode, as_of, certain rows, maybe rows)

    async def client(c: int) -> None:
        crng = random.Random(seed * 1000 + c)
        for step in range(n_ops):
            if crng.random() < 0.3:
                q = crng.choice(QUERIES)
                mode = crng.choice(MODES)
                response = await server.handle(
                    {"id": f"{c}q{step}", "do": "query", "q": q, "mode": mode}
                )
                if not response["ok"]:
                    # an FD-inconsistent cut (NOTHING in the fixpoint) has
                    # no completions; refusing it is the correct answer
                    assert "NOTHING" in response["error"], response
                    continue
                answers.append(
                    (
                        q,
                        mode,
                        response["certain"]["as_of"],
                        normalize_wire(response["certain"]["rows"]),
                        normalize_wire(response["maybe"]["rows"]),
                    )
                )
                continue
            relation = crng.choice(("r", "r", "s"))
            request = random_mutation(crng, relation)
            request["id"] = f"{c}m{step}"
            response = await server.handle(request)
            if response["ok"]:
                acked[relation].append((response["seq"], request))
            if step % 4 == c % 4:
                await asyncio.sleep(0)

    await asyncio.gather(*(client(c) for c in range(n_clients)))
    await server.stop()
    return acked, answers


def prefix_relations(tmp_path, name, attrs, fds, acked, wanted):
    """Serial replay of one relation; {seq: fixpoint Relation} snapshots."""
    db = Database.open(tmp_path / f"replay_{name}", sync="none", create=True)
    relation = db.create(name, attrs, [fds])
    states = {}

    def capture(seq: int) -> None:
        if seq in wanted:
            states[seq] = relation.result().relation

    capture(0)
    for seq, request in sorted(acked, key=lambda pair: pair[0]):
        fields = protocol.mutation(relation, request["do"], request)()
        assert fields["seq"] == seq
        capture(seq)
    return db, states


@pytest.mark.parametrize("seed", SEEDS)
def test_query_answers_match_serial_prefix_evaluation(tmp_path, seed):
    acked, answers = asyncio.run(run_schedule(tmp_path, seed))
    assert answers, "schedule produced no query answers"

    # collect the cuts each relation was queried at
    wanted = {"r": {0}, "s": {0}}
    for q, _, as_of, _, _ in answers:
        names = relation_names(parse_query(q))
        cuts = as_of if isinstance(as_of, dict) else {names[0]: as_of}
        for name, seq in cuts.items():
            wanted[name].add(seq)

    db_r, states_r = prefix_relations(
        tmp_path, "r", R_ATTRS, R_FDS, acked["r"], wanted["r"]
    )
    db_s, states_s = prefix_relations(
        tmp_path, "s", S_ATTRS, S_FDS, acked["s"], wanted["s"]
    )
    states = {"r": states_r, "s": states_s}
    try:
        for q, mode, as_of, certain_rows, maybe_rows in answers:
            node = parse_query(q)
            names = relation_names(node)
            cuts = as_of if isinstance(as_of, dict) else {names[0]: as_of}
            assert set(cuts) == set(names)
            env = {name: states[name][seq] for name, seq in cuts.items()}
            result = evaluate(node, env, mode=mode)
            label = f"{q!r} ({mode}) at {cuts}"
            assert certain_rows == normalize_values(
                result.certain.rows
            ), f"certain answers diverge for {label}"
            assert maybe_rows == normalize_values(
                result.maybe.rows
            ), f"maybe answers diverge for {label}"
    finally:
        db_r.close()
        db_s.close()


def test_query_refused_by_lint_leases_nothing(tmp_path):
    """A refused query must not touch the writers: no lease, no stall —
    the writer's pending queue is untouched and a subsequent mutation
    acks immediately."""

    async def go():
        server = ReproServer(tmp_path / "db", sync="flush", create=True)
        await server.start()
        await server.handle(
            {"do": "create", "name": "r", "attrs": "A B", "fds": "A -> B"}
        )
        refused = await server.handle(
            {"id": 1, "do": "query", "q": "ghost[A]"}
        )
        assert refused["ok"] is False
        assert refused["diagnostics"][0]["code"] == "E_UNKNOWN_RELATION"
        ack = await server.handle(
            {"id": 2, "do": "insert", "rel": "r", "row": ["a", "b"]}
        )
        assert ack["ok"] is True and ack["seq"] == 1
        await server.stop()

    asyncio.run(go())


def test_single_relation_query_carries_scalar_as_of(tmp_path):
    async def go():
        server = ReproServer(tmp_path / "db", sync="flush", create=True)
        await server.start()
        await server.handle(
            {"do": "create", "name": "r", "attrs": "A B", "fds": "A -> B"}
        )
        await server.handle(
            {"id": 1, "do": "insert", "rel": "r", "row": ["a", "b"]}
        )
        response = await server.handle({"id": 2, "do": "query", "q": "r"})
        assert response["ok"]
        assert response["certain"]["as_of"] == 1
        assert response["v"] == 1
        await server.stop()

    asyncio.run(go())


def test_multi_relation_answer_keeps_distinct_nulls_distinct(tmp_path):
    """Codec ids are per relation, so the first null of ``r`` and the
    first null of ``s`` are both ``n0``; a join answer qualifies each
    token by its origin relation, while a one-relation answer keeps the
    bare codec token."""

    async def go():
        server = ReproServer(tmp_path / "db", sync="flush", create=True)
        await server.start()
        await server.handle({"do": "create", "name": "r", "attrs": "A B"})
        await server.handle({"do": "create", "name": "s", "attrs": "B C"})
        await server.handle(
            {"do": "insert", "rel": "r", "row": [{"n": None}, "b"]}
        )
        await server.handle(
            {"do": "insert", "rel": "s", "row": ["b", {"n": None}]}
        )
        joined = await server.handle({"do": "query", "q": "r join s"})
        single = await server.handle({"do": "query", "q": "r"})
        await server.stop()
        return joined, single

    joined, single = asyncio.run(go())
    assert joined["ok"] and single["ok"]
    assert joined["certain"]["rows"] == [[{"n": "r/n0"}, "b", {"n": "s/n0"}]]
    assert single["certain"]["rows"] == [[{"n": "n0"}, "b"]]


def test_two_relations_named_nulls_keep_their_own_tokens(tmp_path):
    """``{"n": "x"}`` sent to ``r`` and to ``s`` names two unknowns, one
    per relation codec.  A union over both must answer two tokens, each
    qualified by its own relation, and attribute each unknown's
    provenance to the relation it came from."""

    async def go():
        server = ReproServer(tmp_path / "db", sync="flush", create=True)
        await server.start()
        await server.handle(
            {"do": "create", "name": "r", "attrs": "A C", "fds": "A -> C"}
        )
        await server.handle(
            {"do": "create", "name": "s", "attrs": "C D", "fds": "C -> D"}
        )
        await server.handle(
            {"do": "insert", "rel": "r", "row": ["a", {"n": "x"}]}
        )
        await server.handle(
            {"do": "insert", "rel": "s", "row": [{"n": "x"}, "d"]}
        )
        union = await server.handle(
            {"do": "query", "q": "r[C] union s[C]", "mode": "kleene"}
        )
        single = await server.handle({"do": "query", "q": "s", "mode": "kleene"})
        await server.stop()
        return union, single

    union, single = asyncio.run(go())
    assert union["ok"] and single["ok"]
    rows = union["certain"]["rows"] + union["maybe"]["rows"]
    assert sorted(row[0]["n"] for row in rows) == ["r/x", "s/x"]
    provenance = dict(union["certain"].get("provenance", {}))
    provenance.update(union["maybe"].get("provenance", {}))
    assert sorted(
        (record["relation"], record["id"]) for record in provenance.values()
    ) == [("r", "x"), ("s", "x")]
    # a one-relation answer keeps the bare codec token
    assert single["certain"]["rows"] == [[{"n": "x"}, "d"]]
