"""The server's wire vocabulary: JSON lines, codec-shaped cells.

One request per line, one JSON object per request::

    {"id": 7, "do": "insert", "rel": "people", "row": ["Ada", {"n": null}, "NYC"]}
    {"id": 7, "ok": true, "seq": 42, "index": 3}

Cells use the relation codec's token forms (:mod:`repro.core.codec`):
plain scalars are constants, ``{"v": ...}`` wraps a literal (escaping),
``{"n": "x0"}`` names a shared null *within the relation's scope* (send
the same name again to mean the same unknown), ``{"!": true}`` is the
NOTHING marker.  One extension over the log format: ``{"n": null}``
asks the server to mint a fresh null — clients cannot know the
relation's canonical null counter, so fresh unknowns are server-named;
the ack's decoded row is the only place the chosen name appears.

Verbs:

=============  =======================================================
mutations      ``insert`` ``delete`` ``update`` ``replace`` ``fill``
               ``reset`` ``adopt`` ``snapshot`` ``rollback``
               ``discard`` — routed through the relation's writer;
               acked (with the op's ``seq``) once durable
reads          ``rows`` ``result`` ``check`` ``has_nothing``
               ``explain`` ``stats`` — answered at the relation's
               current cut, the fixpoint verbs from its read view; the
               response carries ``as_of`` (the seq the cut covers) and
               ``live`` (False when a private chase of a lease answered)
admin          ``create`` ``relations`` ``checkpoint`` ``ping``
=============  =======================================================

Responses are ``{"id", "ok": true, ...}`` or ``{"id", "ok": false,
"error": "..."}``; a request the server cannot even parse is answered
with ``id: null``.  Responses may arrive out of order (reads overtake
group-committed writes); clients match on ``id``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
from functools import partial
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..api import WIRE_VERSION, Answer, ResultSet
from ..core.values import Null, null
from ..db.database import ManagedRelation
from ..db.log import decode_request
from ..errors import ReproError

# the wire vocabulary is derived from the shared op table, so the CLI,
# the linter, and the server agree on it by construction
from ..opschema import MUTATION_VERBS, QUERY_VERB, READ_VERBS  # noqa: F401
from ..opschema import apply_op


def decode_cell(relation: ManagedRelation, token: Any) -> Any:
    """One wire cell → an engine value (``{"n": null}`` mints a null)."""
    if isinstance(token, dict) and "n" in token and token["n"] is None:
        return null()
    return relation.decode_value(token)


def mutation(
    relation: ManagedRelation, verb: str, request: dict
) -> Callable[[], Dict[str, Any]]:
    """Build the closure the relation's writer will run for ``verb``.

    Decoding happens here, on the event loop, *before* the op enqueues —
    malformed cells fail fast without occupying the writer.  The closure
    returns the response fields; it reads ``relation.seq`` after
    applying, which is safe because the writer applies ops one at a
    time.
    """
    record = decode_request(verb, request, partial(decode_cell, relation))

    def run() -> Dict[str, Any]:
        fields = apply_op(relation, record)
        fields["seq"] = relation.seq
        return fields

    return run


def lint_batch(relation: ManagedRelation, requests: Any) -> list:
    """Decide a mutation batch by a dry run on the relation's session.

    The server calls this as a batch's admission step, in the writer's
    turn (:meth:`~repro.server.writer.RelationWriter.submit_many`): every
    op queued ahead of the batch has applied, so the session is exactly
    the state the batch will meet.  The ops run on the live session, its
    snapshot stack included, with the journal hook swapped for lint's
    probe; then the session is rolled back, its stack put back and the
    hook restored — no record is journalled, and the session is left as
    it was found.  Returns :class:`repro.analysis.Diagnostic` findings:
    error severity means the writer would fail that op, and the batch is
    refused whole.

    Cost: inserts, single-column fills, snapshots and adopts are undone
    by popping the session's trail, O(the work they caused), and such a
    dry run leaves the session's cut where it found it: a lease or read
    view taken before the batch stays fresh, and a snapshot taken before
    it still rolls back by a trail pop.  An op that rewinds, retires or
    rebuilds — a delete, update or replace, a rollback, a reset — bumps
    the session's generation, and the undo then becomes a level rebuild:
    one O(n) chase of the relation's rows per batch, after which earlier
    leases read detached and earlier snapshots roll back by a level
    rebuild.  Neither kind counts in the relation's ``stats()``: only
    applied ops do (:meth:`~repro.chase.session.ChaseSession.dry_run`).
    """
    from ..analysis import lint_requests

    session = relation.session
    return lint_requests(
        session.schema,
        session.fds,
        requests,
        target=session,
        known_null=relation.knows_null,
        decode=relation.decode_value,
    )


def encode_line(payload: dict) -> bytes:
    return (json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


#: longest request line the server reads (asyncio's default stream limit)
LINE_LIMIT = 64 * 1024
#: longest answer line :class:`Client` reads (a ``result`` on a few
#: thousand rows is a few hundred KiB)
CLIENT_LINE_LIMIT = 64 * 1024 * 1024


async def run_tcp(server: Any, host: str, port: int) -> "Listener":
    """Bind ``server.handle`` to a TCP listener (JSON lines, pipelined).

    Each request line becomes its own task, so a slow detached read never
    heads-of-line-blocks the ops pipelined behind it; a per-connection
    lock keeps response lines whole.  A request line longer than
    :data:`LINE_LIMIT` ends the connection: the requests read before it
    still answer, then one ``E_LINE_TOO_LONG`` refusal (``id: null``)
    goes out and the server closes.
    """
    #: each live connection's handler task → its reader and transport
    connections: Dict["asyncio.Task[None]", tuple] = {}

    async def on_connection(
        reader: asyncio.StreamReader, writer_stream: asyncio.StreamWriter
    ) -> None:
        handler = asyncio.current_task()
        assert handler is not None
        connections[handler] = (reader, writer_stream.transport)
        handler.add_done_callback(connections.pop)
        write_lock = asyncio.Lock()
        in_flight: Set["asyncio.Task[None]"] = set()

        async def respond(response: dict) -> None:
            async with write_lock:
                writer_stream.write(encode_line(response))
                await writer_stream.drain()

        async def run_one(line: bytes) -> None:
            try:
                request = json.loads(line)
            except (ValueError, RecursionError):  # nested past the decoder's stack
                response = {"id": None, "ok": False, "error": "request is not JSON"}
            else:
                response = await server.handle(request)
            try:
                await respond(response)
            except (ConnectionError, RuntimeError):
                pass  # client went away mid-response

        refused = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:  # the line overran LINE_LIMIT
                    refused = True
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                task = asyncio.get_running_loop().create_task(run_one(line))
                in_flight.add(task)
                task.add_done_callback(in_flight.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        if in_flight:
            await asyncio.gather(*in_flight, return_exceptions=True)
        if refused:
            try:
                await respond(
                    {
                        "id": None,
                        "ok": False,
                        "code": "E_LINE_TOO_LONG",
                        "error": f"request line longer than {LINE_LIMIT} "
                        "bytes; closing the connection",
                    }
                )
                writer_stream.write_eof()
                # read out what the client is still sending: closing with
                # unread input resets the connection, and a reset can
                # discard the answers before the client reads them
                while await reader.read(LINE_LIMIT):
                    pass
            except (ConnectionError, RuntimeError):
                pass  # client went away first
        writer_stream.close()
        try:
            await writer_stream.wait_closed()
        except ConnectionError:  # pragma: no cover - racing disconnect
            pass

    tcp = await asyncio.start_server(on_connection, host, port, limit=LINE_LIMIT)
    return Listener(tcp, connections)


class Listener:
    """A running :func:`run_tcp` front end."""

    def __init__(
        self, tcp: "asyncio.AbstractServer", connections: Dict[Any, tuple]
    ) -> None:
        self.tcp = tcp
        self._connections = connections

    @property
    def address(self) -> Tuple[str, int]:
        host, port = self.tcp.sockets[0].getsockname()[:2]
        return host, port

    async def close(self) -> None:
        """Accept and read nothing more, answer every request already
        read, then close each connection.

        A request line the server has received still runs, and its
        answer is written before its connection closes; a client's next
        call then fails with "connection closed".
        """
        self.tcp.close()
        for reader, transport in self._connections.values():
            transport.pause_reading()
            reader.feed_eof()  # the handler answers what it read, then closes
        await asyncio.gather(*self._connections, return_exceptions=True)
        await self.tcp.wait_closed()


class Client:
    """A pipelining TCP client for one connection.

    ``call`` assigns a request id, writes the line, and awaits the
    matching response — many calls may be in flight at once (that is
    what makes group commit batch).  A response with ``ok: false``
    raises :class:`ServerError`.
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = itertools.count(1)
        self._waiting: Dict[Any, "asyncio.Future[dict]"] = {}
        self._pump: Optional["asyncio.Task[None]"] = None
        self._lock = asyncio.Lock()
        #: wire null id → the client-side Null object (one per id, so
        #: shared unknowns keep identity across answers on this client)
        self._nulls: Dict[Any, Null] = {}

    @classmethod
    async def connect(cls, host: str, port: int) -> "Client":
        reader, writer = await asyncio.open_connection(
            host, port, limit=CLIENT_LINE_LIMIT
        )
        client = cls(reader, writer)
        client._pump = asyncio.get_running_loop().create_task(client._read_loop())
        return client

    async def call(self, do: str, **fields: Any) -> dict:
        if self._pump is None or self._pump.done():
            # the read loop has ended: no answer could ever arrive
            raise ServerError("connection closed")
        request_id = next(self._ids)
        request = {"id": request_id, "do": do, **fields}
        future = asyncio.get_running_loop().create_future()
        self._waiting[request_id] = future
        async with self._lock:
            self._writer.write(encode_line(request))
            await self._writer.drain()
        response = await future
        if not response.get("ok"):
            raise ServerError(response.get("error", "unspecified server error"))
        return response

    # -- the unified answer schema (repro.api) -----------------------------

    def decode_token(self, token: Any) -> Any:
        """One wire cell → a client-side value (nulls keep identity)."""
        if isinstance(token, dict) and "n" in token:
            key = token["n"]
            null_obj = self._nulls.get(key)
            if null_obj is None:
                null_obj = Null(str(key))
                self._nulls[key] = null_obj
            return null_obj
        return token

    async def read(self, rel: str, verb: str, **fields: Any) -> Answer:
        """A read verb, parsed into a unified :class:`repro.api.Answer`.

        The raw response dict stays available via :meth:`call`; this is
        the schema-checked path — it raises on a wire-version mismatch
        instead of silently misreading.
        """
        response = await self.call(verb, rel=rel, **fields)
        return Answer.from_payload(response, decode=self.decode_token)

    async def query(
        self, q: str, mode: Optional[str] = None, **fields: Any
    ) -> ResultSet:
        """A database-scoped query, parsed into certain/maybe answers."""
        if mode is not None:
            fields["mode"] = mode
        response = await self.call(QUERY_VERB, q=q, **fields)
        return ResultSet.from_payload(response, decode=self.decode_token)

    async def close(self) -> None:
        if self._pump is not None:
            self._pump.cancel()
            try:
                await self._pump
            except asyncio.CancelledError:
                pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:  # pragma: no cover - racing disconnect
            pass

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                response = json.loads(line)
                future = self._waiting.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except ConnectionError:
            pass  # a reset ends the stream as EOF does
        finally:
            for future in self._waiting.values():
                if not future.done():
                    future.set_exception(ServerError("connection closed"))
            self._waiting.clear()


class ServerError(ReproError):
    """An ``ok: false`` response, re-raised client-side."""
