"""Every read verb answers from its cut's read view.

One :class:`~repro.server.writer.ReadView` per relation and cut answers
``result``, ``check``, ``explain``, ``has_nothing`` and ``query``: the
maintained fixpoint (Theorem 4's unique minimally incomplete instance)
is built once per cut, whichever verbs read it.  A read with writes
queued, or an ``isolated`` one, answers the same from a private view
over a lease instead.  ``rows`` never chases, and ``as_of`` is the
journal seq at the moment a read is served, which a ``snapshot`` record
moves without moving the cut.
"""

from __future__ import annotations

import asyncio

from repro.chase.session import ChaseSession, ReadLease
from repro.server import ReproServer

#: every read verb that reads the fixpoint, over ``r``
READS = (
    {"do": "result", "rel": "r"},
    {"do": "check", "rel": "r"},
    {"do": "check", "rel": "r", "fds": "C -> A", "convention": "strong"},
    {"do": "explain", "rel": "r"},
    {"do": "has_nothing", "rel": "r"},
    {"do": "query", "q": "r where A = 'a1'", "mode": "least"},
)

INSERT = {"do": "insert", "rel": "r", "row": ["a4", "b4", "c4"]}


async def started(tmp_path):
    server = ReproServer(tmp_path / "db", sync="flush", create=True)
    await server.start()
    await server.handle(
        {"do": "create", "name": "r", "attrs": "A B C", "fds": "A -> B"}
    )
    shared = {"n": None}
    for row in (
        ["a1", shared, "c1"],
        ["a1", "b1", "c2"],
        ["a2", shared, "c1"],
        ["a3", {"n": None}, "c3"],
    ):
        assert (await server.handle({"do": "insert", "rel": "r", "row": row}))["ok"]
    return server


class Counts:
    """Counts ``ChaseSession.result`` calls on the served session of
    ``r`` and the private sessions ``ReadLease.instance`` builds."""

    def __init__(self, monkeypatch, server):
        self.results = 0
        self.private = 0
        served = server.db.relation("r").session
        result = ChaseSession.result
        instance = ReadLease.instance
        counts = self

        def counted_result(session, *args, **kwargs):
            if session is served:
                counts.results += 1
            return result(session, *args, **kwargs)

        def counted_instance(lease, detached=False):
            if lease._detached is None and (detached or not lease.fresh):
                counts.private += 1
            return instance(lease, detached)

        monkeypatch.setattr(ChaseSession, "result", counted_result)
        monkeypatch.setattr(ReadLease, "instance", counted_instance)


async def with_writes_queued(server, request):
    """``request`` answered while two inserts wait in ``r``'s writer
    queue; returns the answer and the inserts' acks."""
    inserts = [asyncio.create_task(server.handle(dict(INSERT))) for _ in range(2)]
    await asyncio.sleep(0)  # the inserts reach the queue; the writer has not run
    assert server._writers["r"].pending() == 2
    response = await server.handle(dict(request))
    return response, await asyncio.gather(*inserts)


def without(response, *fields):
    return {key: value for key, value in response.items() if key not in fields}


def test_every_read_verb_at_one_cut_builds_the_fixpoint_once(tmp_path, monkeypatch):
    async def go():
        server = await started(tmp_path)
        counts = Counts(monkeypatch, server)
        responses = [await server.handle(dict(read)) for read in READS]
        await server.stop()
        return responses, counts

    responses, counts = asyncio.run(go())
    for response in responses:
        assert response["ok"], response
        assert response["live"] is True
    assert counts.results == 1
    assert counts.private == 0


def test_isolated_and_queued_reads_answer_as_the_live_one(tmp_path, monkeypatch):
    """The private view over a lease answers what the shared view does at
    the same cut; only ``live`` tells them apart."""

    async def go():
        server = await started(tmp_path)
        live = [await server.handle(dict(read)) for read in READS]
        counts = Counts(monkeypatch, server)
        isolated = [
            await server.handle(dict(read, isolated=True)) for read in READS
        ]
        queued = []
        for read in READS:
            response, acks = await with_writes_queued(server, read)
            assert all(ack["ok"] for ack in acks), acks
            queued.append(response)
            # back to the live cut the answers are compared at
            for _ in acks:
                deleted = await server.handle({"do": "delete", "rel": "r", "index": 4})
                assert deleted["ok"], deleted
        await server.stop()
        return live, isolated, queued, counts

    live, isolated, queued, counts = asyncio.run(go())
    for want, got in zip(live, isolated):
        assert got["live"] is False
        assert without(got, "live", "certain", "maybe") == without(
            want, "live", "certain", "maybe"
        )
    for want, got in zip(live, queued):
        assert got["live"] is False
        # the queued inserts and the deletes that undo them move the seq
        assert without(got, "live", "as_of", "certain", "maybe") == without(
            want, "live", "as_of", "certain", "maybe"
        )
    for want, got in zip(live[-1:], isolated[-1:] + queued[-1:]):
        for side in ("certain", "maybe"):
            assert got[side]["rows"] == want[side]["rows"]
    # isolated and queued reads chase private sessions, never the served one
    assert counts.results == 0
    assert counts.private == 2 * len(READS)


def test_rows_never_chases(tmp_path, monkeypatch):
    async def go():
        server = await started(tmp_path)
        seq = server.db.relation("r").seq
        counts = Counts(monkeypatch, server)
        isolated = await server.handle({"do": "rows", "rel": "r", "isolated": True})
        queued, _ = await with_writes_queued(server, {"do": "rows", "rel": "r"})
        rows_builds = counts.private
        # the counter does see a read that chases with writes queued
        result, _ = await with_writes_queued(server, {"do": "result", "rel": "r"})
        await server.stop()
        return seq, isolated, queued, result, rows_builds, counts

    seq, isolated, queued, result, rows_builds, counts = asyncio.run(go())
    assert rows_builds == 0
    for response in (isolated, queued):
        assert response["ok"], response
        assert response["live"] is True
        assert response["as_of"] == seq
        assert len(response["rows"]) == 4  # the queued inserts not yet applied
    assert isolated == queued
    assert result["live"] is False and len(result["rows"]) == 6
    assert counts.private == 1
    assert counts.results == 0


def test_as_of_follows_a_snapshot_record(tmp_path):
    """A snapshot or discard record moves ``seq`` but not the session's
    cut: the shared view stays, and every read's ``as_of`` moves."""

    async def go():
        server = await started(tmp_path)
        writer = server._writers["r"]
        before = await server.handle(dict(READS[-1]))  # fills the shared view
        view = writer._view
        reads = []
        for record in ("snapshot", "discard"):
            ack = await server.handle({"do": record, "rel": "r"})
            assert ack["ok"], ack
            answers = [
                await server.handle(dict(read))
                for read in READS + ({"do": "rows", "rel": "r"},)
            ]
            reads.append((ack["seq"], answers))
        kept = writer._view is view
        await server.stop()
        return before, reads, kept

    before, reads, kept = asyncio.run(go())
    assert kept
    assert [seq for seq, _ in reads] == [before["as_of"] + 1, before["as_of"] + 2]
    for seq, answers in reads:
        for response in answers:
            assert response["ok"], response
            assert response["as_of"] == seq
