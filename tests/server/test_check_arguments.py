"""The served ``check`` refuses arguments it cannot answer.

``convention`` follows :func:`repro.testfd.check_fds`'s rule (``weak``
or ``strong``, anything else a :class:`~repro.errors.ConventionError`),
the rule the library and :meth:`ChaseSession.check` share; ``fds`` must
be a string or a list of strings, refused before any lease is taken.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.server import ReproServer
from repro.server.writer import RelationWriter


async def served(tmp_path):
    server = ReproServer(tmp_path / "db", sync="flush", create=True)
    await server.start()
    await server.handle({"do": "create", "name": "r", "attrs": "A B", "fds": "A -> B"})
    await server.handle({"do": "insert", "rel": "r", "row": ["a", "b"]})
    return server


def answer(tmp_path, request):
    async def run():
        server = await served(tmp_path)
        try:
            return await server.handle(request)
        finally:
            await server.stop()

    return asyncio.run(run())


def test_an_unknown_convention_is_refused(tmp_path):
    reply = answer(tmp_path, {"do": "check", "rel": "r", "convention": "bogus"})
    assert not reply["ok"]
    assert "ConventionError" in reply["error"] and "'bogus'" in reply["error"]


@pytest.mark.parametrize("fds", [5, ["A -> B", 3], {"A": "B"}])
def test_fds_neither_text_nor_a_list_of_texts_is_refused_before_a_lease(
    tmp_path, monkeypatch, fds
):
    leases = []
    lease = RelationWriter.lease
    monkeypatch.setattr(
        RelationWriter, "lease", lambda writer: leases.append(1) or lease(writer)
    )
    reply = answer(tmp_path, {"do": "check", "rel": "r", "fds": fds, "isolated": True})
    assert not reply["ok"]
    assert "'fds' must be a string or a list of strings" in reply["error"]
    assert leases == []


def test_valid_checks_still_answer(tmp_path):
    reply = answer(
        tmp_path,
        {"do": "check", "rel": "r", "fds": ["A -> B"], "convention": "strong"},
    )
    assert reply["ok"] and reply["satisfied"] is True
    assert reply["meta"] == {"satisfied": True, "convention": "strong"}
