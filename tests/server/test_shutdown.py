"""``ReproServer.stop()`` with a client still connected.

Stopping answers every request the server has already read — its op
applies and becomes durable first — then closes each connection, so the
client's next call fails fast instead of reaching a stopped server.
"""

import asyncio

import pytest

from repro.server.app import ReproServer
from repro.server.protocol import Client, ServerError


def test_stop_answers_what_it_read_then_closes_connections(tmp_path):
    async def go():
        # the group-commit window holds the insert's ack open across stop()
        server = ReproServer(tmp_path / "db", create=True, sync="flush", window_s=0.2)
        await server.start()
        await server.handle(
            {"id": 0, "do": "create", "name": "r", "attrs": "A B", "fds": "A -> B"}
        )
        host, port = await server.listen()
        client = await Client.connect(host, port)
        issued = asyncio.ensure_future(client.call("insert", rel="r", row=["a", "b"]))
        relation = server.db.relation("r")
        while relation.seq < 1:  # the server has read and applied it
            await asyncio.sleep(0.001)
        assert not issued.done()
        await asyncio.wait_for(server.stop(), timeout=5)
        assert (await issued)["seq"] == 1
        with pytest.raises(ServerError, match="connection closed"):
            await asyncio.wait_for(client.call("ping"), timeout=5)
        await client.close()

    asyncio.run(go())
