"""Line limits on both ends of the wire.

* A request line longer than the server's :data:`~repro.server.protocol.LINE_LIMIT`
  must not cost the requests pipelined before it their acks: those
  answer, then one ``E_LINE_TOO_LONG`` refusal, then the server closes.
* :class:`~repro.server.protocol.Client` reads answers far longer than
  asyncio's default 64 KiB line, and once its connection is gone every
  call fails at once instead of waiting forever.
"""

import asyncio
import json

import pytest

from repro.server import ReproServer
from repro.server.protocol import LINE_LIMIT, Client, ServerError, encode_line


def run(coro):
    return asyncio.run(asyncio.wait_for(coro, timeout=60))


async def _server(tmp_path, name, attrs):
    server = ReproServer(tmp_path / "db", create=True, sync="flush")
    await server.start()
    await server.handle({"id": 0, "do": "create", "name": name, "attrs": attrs})
    return server


def test_oversized_request_line_refused_after_earlier_acks(tmp_path):
    async def go():
        server = await _server(tmp_path, "r", "A B")
        host, port = await server.listen()
        reader, writer = await asyncio.open_connection(host, port, limit=2**20)
        blob = b"".join(
            encode_line({"id": i, "do": "insert", "rel": "r", "row": [f"a{i}", "b"]})
            for i in range(5)
        )
        huge = {"id": 5, "do": "insert", "rel": "r", "row": ["x" * 70_000, "b"]}
        assert len(encode_line(huge)) > LINE_LIMIT
        writer.write(blob + encode_line(huge))
        await writer.drain()
        answers = []
        while True:
            line = await reader.readline()
            if not line:
                break  # EOF: the server closed the connection
            answers.append(json.loads(line))
        acks = [a for a in answers if a["id"] is not None]
        assert sorted(a["id"] for a in acks) == [0, 1, 2, 3, 4]
        assert all(a["ok"] for a in acks)
        assert answers[-1]["id"] is None and answers[-1]["ok"] is False
        assert answers[-1]["code"] == "E_LINE_TOO_LONG"
        assert len(answers) == 6
        assert server.db.relation("r").seq == 5  # the five acks are durable
        writer.close()
        await server.stop()

    run(go())


def test_client_reads_an_answer_longer_than_64_kib(tmp_path):
    async def go():
        server = await _server(tmp_path, "r", "K A B C D")
        rows = [[f"k{i}", f"a{i}", f"b{i}", f"c{i}", f"d{i}"] for i in range(2000)]
        await server.handle({"id": 1, "do": "reset", "rel": "r", "rows": rows})
        host, port = await server.listen()
        client = await Client.connect(host, port)
        answer = await client.read("r", "result")
        assert len(answer) == 2000
        assert sorted(answer.rows) == sorted(tuple(row) for row in rows)
        assert (await client.call("ping"))["pong"] is True
        await client.close()
        await server.stop()

    run(go())


def test_call_after_the_connection_closed_fails_fast():
    async def go():
        async def answer_once_then_close(reader, writer):
            request = json.loads(await reader.readline())
            writer.write(encode_line({"id": request["id"], "ok": True, "pong": True}))
            await writer.drain()
            writer.close()

        listener = await asyncio.start_server(answer_once_then_close, "127.0.0.1", 0)
        host, port = listener.sockets[0].getsockname()[:2]
        client = await Client.connect(host, port)
        assert (await client.call("ping"))["pong"] is True
        await asyncio.sleep(0.1)  # the client reads the server's EOF
        for _ in range(2):
            with pytest.raises(ServerError):
                await asyncio.wait_for(client.call("ping"), timeout=5)
        await client.close()
        listener.close()
        await listener.wait_closed()

    run(go())
