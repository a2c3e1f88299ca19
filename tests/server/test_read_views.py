"""Query read state is built once per cut.

Each relation's writer holds a read view (:class:`ReadView`): the
maintained fixpoint, its stats and the raw rows' stats, keyed by the
session's cut.  The first query at a cut builds the parts it needs;
every later query at that cut reuses them, and any mutation moves the
cut, so the next query rebuilds.  These tests count the builds — calls
to ``ChaseSession.result`` and ``relation_stats`` on the served
sessions' relations — and hold every answer to an evaluation over a
from-scratch chase of the same rows.
"""

from __future__ import annotations

import asyncio
from collections import Counter

import pytest

from repro.chase.session import ChaseSession
from repro.query import optimize, parse_query
from repro.query.evaluate import Evaluator
from repro.server import ReproServer

from .test_query_verb import normalize_values, normalize_wire

QUERIES = (
    ("r join s", "least"),
    ("r where A = 'a1' [A, B]", "kleene"),
    ("(r where B = 'b1' [A]) minus (r where C = 'c1' [A])", "least"),
)

#: the uncounted stats builder the reference evaluation uses
RELATION_STATS = optimize.relation_stats

#: one request per mutation verb, each leaving ``r`` changed
MUTATIONS = (
    {"do": "insert", "rel": "r", "row": ["a3", {"n": None}, "c3"]},
    {"do": "delete", "rel": "r", "index": 0},
    {"do": "update", "rel": "r", "index": 1, "set": {"C": "c9"}},
    {"do": "fill", "rel": "r", "index": 1, "attr": "B", "value": "b1"},
    {"do": "reset", "rel": "r", "rows": [["a1", {"n": None}, "c1"], ["a1", "b2", "c2"]]},
    {"do": "adopt", "rel": "r"},
)


class Builds:
    """Counts read-state builds per served relation name."""

    def __init__(self, monkeypatch, server):
        self.server = server
        self.results = Counter()
        self.stats = Counter()
        result = ChaseSession.result
        relation_stats = optimize.relation_stats
        builds = self

        def counted_result(session, *args, **kwargs):
            name = builds.served(session)
            if name is not None:
                builds.results[name] += 1
            return result(session, *args, **kwargs)

        def counted_stats(relation):
            builds.stats[relation.schema.name] += 1
            return relation_stats(relation)

        monkeypatch.setattr(ChaseSession, "result", counted_result)
        monkeypatch.setattr(optimize, "relation_stats", counted_stats)

    def served(self, session):
        db = self.server.db
        for name in db.names():
            if db.relation(name).session is session:
                return name
        return None

    def snapshot(self):
        return dict(self.results), dict(self.stats)


async def started(tmp_path):
    server = ReproServer(tmp_path / "db", sync="flush", create=True)
    await server.start()
    for name, attrs, fds in (("r", "A B C", "A -> B"), ("s", "B D", "B -> D"), ("t", "K V", "K -> V")):
        await server.handle({"do": "create", "name": name, "attrs": attrs, "fds": fds})
    shared = {"n": None}
    for row in (["a1", shared, "c1"], ["a1", {"n": None}, "c2"], ["a2", "b1", "c1"]):
        assert (await server.handle({"do": "insert", "rel": "r", "row": row}))["ok"]
    for row in (["b1", "d1"], [{"n": None}, "d2"]):
        assert (await server.handle({"do": "insert", "rel": "s", "row": row}))["ok"]
    assert (await server.handle({"do": "insert", "rel": "t", "row": ["k", "v"]}))["ok"]
    return server


def reference(server, q, mode):
    """The query evaluated over a from-scratch chase of each scanned
    relation's rows: no view, no maintained fixpoint."""
    node = parse_query(q)
    env = {}
    for name in ("r", "s"):
        if name in q.split() or f"({name}" in q:
            session = server.db.relation(name).session
            env[name] = ChaseSession(session.schema, session.fds, list(session.rows)).result().relation
    stats = {name: RELATION_STATS(relation) for name, relation in env.items()}
    result = Evaluator(env, stats=stats).run(node, mode=mode)
    return normalize_values(result.certain.rows), normalize_values(result.maybe.rows)


async def ask(server, q, mode, **extra):
    response = await server.handle({"do": "query", "q": q, "mode": mode, **extra})
    assert response["ok"], response
    assert (
        normalize_wire(response["certain"]["rows"]),
        normalize_wire(response["maybe"]["rows"]),
    ) == reference(server, q, mode), q
    return response


def test_one_build_per_scanned_relation_per_cut(tmp_path, monkeypatch):
    async def go():
        server = await started(tmp_path)
        builds = Builds(monkeypatch, server)
        for _ in range(3):
            for q, mode in QUERIES:
                await ask(server, q, mode)
        # a write to the unscanned t moves no scanned cut
        assert (await server.handle({"do": "insert", "rel": "t", "row": ["k2", "v"]}))["ok"]
        await ask(server, *QUERIES[0])
        await server.stop()
        return builds.snapshot()

    results, stats = asyncio.run(go())
    assert results == {"r": 1, "s": 1}
    # the raw rows' stats (the plan linter's) and the fixpoint's
    assert stats == {"r": 2, "s": 2}


@pytest.mark.parametrize("mutation", MUTATIONS, ids=lambda m: m["do"])
def test_every_mutation_forces_a_rebuild(tmp_path, monkeypatch, mutation):
    async def go():
        server = await started(tmp_path)
        builds = Builds(monkeypatch, server)
        await ask(server, *QUERIES[0])
        before = builds.snapshot()
        response = await server.handle(dict(mutation))
        assert response["ok"], response
        after_write = builds.snapshot()
        for q, mode in QUERIES:
            await ask(server, q, mode)
        after = builds.snapshot()
        await server.stop()
        return before, after_write, after

    before, after_write, after = asyncio.run(go())
    # the write path builds no stats (an adopt reads the fixpoint itself)
    assert after_write[1] == before[1]
    # then one fixpoint and two stats builds for r serve all three queries
    assert after[0]["r"] == after_write[0]["r"] + 1
    assert after[0]["s"] == before[0]["s"]
    assert after[1] == {"r": before[1]["r"] + 2, "s": before[1]["s"]}


def test_rollback_forces_a_rebuild_and_checkpoint_keeps_the_view(tmp_path, monkeypatch):
    async def go():
        server = await started(tmp_path)
        builds = Builds(monkeypatch, server)
        assert (await server.handle({"do": "snapshot", "rel": "r"}))["ok"]
        await ask(server, *QUERIES[1])
        assert (await server.handle({"do": "insert", "rel": "r", "row": ["a5", "b5", "c5"]}))["ok"]
        await ask(server, *QUERIES[1])
        assert (await server.handle({"do": "rollback", "rel": "r"}))["ok"]
        await ask(server, *QUERIES[1])
        rolled_back = builds.snapshot()
        assert (await server.handle({"do": "checkpoint", "rel": "r"}))["ok"]
        await ask(server, *QUERIES[1])
        checkpointed = builds.snapshot()
        await server.stop()
        return rolled_back, checkpointed

    rolled_back, checkpointed = asyncio.run(go())
    assert rolled_back[0] == {"r": 3}
    assert checkpointed == rolled_back


def test_isolated_reads_neither_read_nor_fill_the_view(tmp_path, monkeypatch):
    async def go():
        server = await started(tmp_path)
        builds = Builds(monkeypatch, server)
        writer = server._writers["r"]
        session = server.db.relation("r").session
        # an isolated read at a fresh cut leaves no view behind
        await ask(server, *QUERIES[1], isolated=True)
        assert writer._view is None or writer._view.cut != session.cut
        isolated_first = builds.snapshot()
        # a shared read builds it; an isolated one then builds its own
        await ask(server, *QUERIES[1])
        shared = builds.snapshot()
        view = writer._view
        response = await ask(server, *QUERIES[1], isolated=True)
        assert response["certain"]["live"] is False
        assert writer._view is view
        isolated_again = builds.snapshot()
        await server.stop()
        return isolated_first, shared, isolated_again

    isolated_first, shared, isolated_again = asyncio.run(go())
    # the isolated reads chase a private copy: no result() on the served
    # session, and their own raw and fixpoint stats
    assert isolated_first == ({}, {"r": 2})
    assert shared == ({"r": 1}, {"r": 4})
    assert isolated_again == ({"r": 1}, {"r": 6})


def test_a_refused_batch_keeps_the_view(tmp_path, monkeypatch):
    """A batch is decided by a dry run on the live session; one undone by
    a trail pop leaves the session's cut, and so the view, as it was."""

    async def go():
        server = await started(tmp_path)
        builds = Builds(monkeypatch, server)
        await ask(server, *QUERIES[0])
        before = builds.snapshot()
        refused = await server.handle(
            {"do": "batch", "rel": "r", "ops": [{"do": "delete", "index": 99}]}
        )
        assert refused["ok"] is False
        assert refused["diagnostics"][0]["code"] == "E_BAD_INDEX"
        await ask(server, *QUERIES[0])
        after = builds.snapshot()
        await server.stop()
        return before, after

    before, after = asyncio.run(go())
    assert after == before


def test_explain_builds_raw_stats_for_the_scanned_relation_only(tmp_path, monkeypatch):
    """``explain: true`` analyzes the tree over the raw rows' stats of the
    relations it scans: no fixpoint, no copy of any other relation."""

    async def go():
        server = await started(tmp_path)
        builds = Builds(monkeypatch, server)
        response = await server.handle(
            {"do": "query", "q": "s where B = 'b1'", "mode": "least", "explain": True}
        )
        await server.stop()
        return response, builds.snapshot()

    response, (results, stats) = asyncio.run(go())
    assert response["ok"], response
    assert response["plan"] == (
        "Select B = 'b1' rows<=2 nullable=B keys=(B) ground<=3\n"
        "  Scan s rows<=2 nullable=B keys=(B)"
    )
    assert results == {}
    assert stats == {"s": 1}
