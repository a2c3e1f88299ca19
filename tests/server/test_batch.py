"""The ``batch`` verb: lint-gated contiguous mutation bundles.

The acceptance properties this file pins: a batch with any
error-severity lint finding is refused *before* any WAL byte is written
— no group-commit slot, no journal append, no session mutation — and a
batch is decided against the state it will meet, after every op queued
ahead of it.
"""

import asyncio

import pytest

from repro.server.app import ReproServer


def run(coro):
    return asyncio.run(coro)


async def _server(tmp_path, **kwargs):
    server = ReproServer(tmp_path / "db", create=True, sync="flush", **kwargs)
    await server.start()
    await server.handle(
        {
            "id": 0,
            "do": "create",
            "name": "emp",
            "attrs": "name dept mgr",
            "fds": "dept -> mgr",
        }
    )
    return server


class TestAdmittedBatches:
    def test_batch_applies_contiguously_and_acks_each_op(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            response = await server.handle(
                {
                    "id": 1,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [
                        {"do": "insert", "row": ["ada", "eng", {"n": None}]},
                        {"do": "insert", "row": ["bob", "eng", "turing"]},
                        {"do": "fill", "index": 0, "attr": "mgr", "value": "turing"},
                    ],
                }
            )
            assert response["ok"] is True
            outcomes = response["results"]
            assert [o["ok"] for o in outcomes] == [True, True, True]
            assert outcomes[0]["index"] == 0 and outcomes[1]["index"] == 1
            assert outcomes[2]["seq"] == 3
            rows = await server.handle({"id": 2, "do": "rows", "rel": "emp"})
            assert len(rows["rows"]) == 2
            await server.stop()

        run(go())

    def test_batch_is_durable_when_acked(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            await server.handle(
                {
                    "id": 1,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [{"do": "insert", "row": ["ada", "eng", "knuth"]}],
                }
            )
            relation = server.db.relation("emp")
            # flushed per record: the journal already holds the batch
            assert relation.wal.path.stat().st_size > 0
            assert relation.seq == 1
            await server.stop()

        run(go())

    def test_warnings_ride_along_without_refusing(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            response = await server.handle(
                {
                    "id": 1,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [
                        {"do": "insert", "row": ["ada", "eng", "turing"]},
                        {"do": "insert", "row": ["bob", "eng", "hopper"]},
                    ],
                }
            )
            assert response["ok"] is True
            assert [d["code"] for d in response["diagnostics"]] == [
                "E_FD_CONFLICT"
            ]
            assert response["diagnostics"][0]["severity"] == "warning"
            await server.stop()

        run(go())


class TestRefusedBatches:
    def test_lint_errors_refuse_with_diagnostics_payload(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            response = await server.handle(
                {
                    "id": 1,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [
                        {"do": "insert", "row": ["ada", "eng", "turing"]},
                        {"do": "update", "index": 9, "set": {"dept": "hr"}},
                        {"do": "update", "index": 0, "set": {"salary": "1"}},
                    ],
                }
            )
            assert response["ok"] is False
            assert "refused by lint" in response["error"]
            assert [(d["code"], d["line"]) for d in response["diagnostics"]] == [
                ("E_BAD_INDEX", 1),
                ("E_UNKNOWN_ATTR", 2),
            ]
            await server.stop()

        run(go())

    def test_refusal_happens_before_any_wal_append(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            await server.handle(
                {
                    "id": 1,
                    "do": "insert",
                    "rel": "emp",
                    "row": ["ada", "eng", "knuth"],
                }
            )
            relation = server.db.relation("emp")
            wal_before = relation.wal.path.read_bytes()
            seq_before = relation.seq
            ops_before = server._writers["emp"].ops_applied
            response = await server.handle(
                {
                    "id": 2,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [
                        # op 0 alone would be applicable — the doomed op 1
                        # must keep even op 0 out of the journal
                        {"do": "insert", "row": ["bob", "ops", "hopper"]},
                        {"do": "delete", "index": 77},
                    ],
                }
            )
            assert response["ok"] is False
            assert relation.wal.path.read_bytes() == wal_before
            assert relation.seq == seq_before
            assert len(relation.session.rows) == 1
            assert server._writers["emp"].ops_applied == ops_before
            await server.stop()

        run(go())

    def test_malformed_batch_envelope(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            for ops in (None, [], "insert"):
                response = await server.handle(
                    {"id": 1, "do": "batch", "rel": "emp", "ops": ops}
                )
                assert response["ok"] is False
                assert "ops" in response["error"]
            await server.stop()

        run(go())

    def test_batch_against_outstanding_snapshot_depth(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            await server.handle({"id": 1, "do": "snapshot", "rel": "emp"})
            ok = await server.handle(
                {
                    "id": 2,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [{"do": "rollback"}],
                }
            )
            assert ok["ok"] is True
            refused = await server.handle(
                {
                    "id": 3,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [{"do": "rollback"}],
                }
            )
            assert refused["ok"] is False
            assert refused["diagnostics"][0]["code"] == "E_ROLLBACK_UNDERFLOW"
            await server.stop()

        run(go())


class TestDecidedInTheWritersTurn:
    """A batch pipelined behind single ops is linted after they apply."""

    def test_batch_sees_the_insert_queued_ahead_of_it(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            insert, batch = await asyncio.gather(
                server.handle(
                    {"id": 1, "do": "insert", "rel": "emp", "row": ["ada", "eng", "k"]}
                ),
                server.handle(
                    {
                        "id": 2,
                        "do": "batch",
                        "rel": "emp",
                        "ops": [{"do": "delete", "index": 0}],
                    }
                ),
            )
            assert insert["ok"] is True and insert["seq"] == 1
            assert batch["ok"] is True, batch
            assert batch["results"] == [{"ok": True, "seq": 2}]
            rows = await server.handle({"id": 3, "do": "rows", "rel": "emp"})
            assert rows["rows"] == []
            await server.stop()

        run(go())

    def test_batch_is_refused_after_the_delete_queued_ahead_of_it(self, tmp_path):
        insert = {"do": "insert", "rel": "emp", "row": ["ada", "eng", "k"]}
        delete = {"do": "delete", "rel": "emp", "index": 0}

        async def go(path, batched):
            server = await _server(path)
            await server.handle({"id": 1, **insert})
            requests = [server.handle({"id": 2, **delete})]
            if batched:
                requests.append(
                    server.handle(
                        {
                            "id": 3,
                            "do": "batch",
                            "rel": "emp",
                            "ops": [{"do": "delete", "index": 0}],
                        }
                    )
                )
            responses = await asyncio.gather(*requests)
            wal = server.db.relation("emp").wal.path.read_bytes()
            await server.stop()
            return responses, wal

        (deleted, refused), wal = run(go(tmp_path / "batched", True))
        assert deleted["ok"] is True
        assert refused["ok"] is False
        assert [(d["code"], d["line"]) for d in refused["diagnostics"]] == [
            ("E_BAD_INDEX", 0)
        ]
        # the journal is what it would be had the batch never been sent
        _, reference = run(go(tmp_path / "reference", False))
        assert wal == reference

    def test_rollback_to_an_older_snapshot_is_exact(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            for i, name in enumerate(["ada", "bob", "cyd"]):
                await server.handle(
                    {"id": i, "do": "insert", "rel": "emp", "row": [name, "eng", "k"]}
                )
            await server.handle({"id": 3, "do": "snapshot", "rel": "emp"})
            await server.handle({"id": 4, "do": "delete", "rel": "emp", "index": 0})
            # the rollback restores three rows: index 3 is out of bounds...
            refused = await server.handle(
                {
                    "id": 5,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [{"do": "rollback"}, {"do": "delete", "index": 3}],
                }
            )
            assert refused["ok"] is False
            assert [(d["code"], d["line"]) for d in refused["diagnostics"]] == [
                ("E_BAD_INDEX", 1)
            ]
            # ...and index 2, a row only the rollback brings back, is not
            admitted = await server.handle(
                {
                    "id": 6,
                    "do": "batch",
                    "rel": "emp",
                    "ops": [{"do": "rollback"}, {"do": "delete", "index": 2}],
                }
            )
            assert [o["ok"] for o in admitted["results"]] == [True, True]
            rows = await server.handle({"id": 7, "do": "rows", "rel": "emp"})
            assert [row[0] for row in rows["rows"]] == ["ada", "bob"]
            await server.stop()

        run(go())


class TestBatchOverTcp:
    def test_wire_round_trip(self, tmp_path):
        async def go():
            from repro.server.protocol import Client, ServerError

            server = await _server(tmp_path)
            host, port = await server.listen()
            client = await Client.connect(host, port)
            response = await client.call(
                "batch",
                rel="emp",
                ops=[
                    {"do": "insert", "row": ["ada", "eng", "knuth"]},
                    {"do": "insert", "row": ["bob", "ops", "hopper"]},
                ],
            )
            assert [o["ok"] for o in response["results"]] == [True, True]
            with pytest.raises(ServerError):
                await client.call(
                    "batch",
                    rel="emp",
                    ops=[{"do": "delete", "index": 99}],
                )
            await client.close()
            await server.stop()

        run(go())


class TestWireOnlyRefusals:
    """The log reads back a no-op ``update`` and a bool index (the
    session journals both); a client sending either is still refused,
    alone or in a batch, before any WAL byte moves."""

    BAD = [
        ({"do": "update", "index": 0, "set": {}}, "E_BAD_REQUEST"),
        ({"do": "delete", "index": True}, "E_BAD_INT"),
    ]

    def test_single_requests_and_batches_are_refused(self, tmp_path):
        async def go():
            server = await _server(tmp_path)
            await server.handle(
                {"id": 1, "do": "insert", "rel": "emp", "row": ["ada", "eng", "k"]}
            )
            relation = server.db.relation("emp")
            for op, code in self.BAD:
                response = await server.handle({"id": 2, "rel": "emp", **op})
                assert response["ok"] is False
                response = await server.handle(
                    {"id": 3, "do": "batch", "rel": "emp", "ops": [op]}
                )
                assert response["ok"] is False
                (diagnostic,) = response["diagnostics"]
                assert diagnostic["code"] == code
            assert relation.seq == 1
            await server.stop()

        run(go())
