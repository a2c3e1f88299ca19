"""``repro.server`` — a concurrent front end for durable chase relations.

Multiplexes many clients onto one writer task per relation:

* **group commit** — op records from a burst of concurrent mutations are
  batched into a single WAL append + fsync
  (:class:`~repro.db.log.GroupCommitter`); each client is acked only
  after its batch is durable, so N clients share one sync instead of
  paying one each;
* **snapshot-isolated reads** — every read verb answers from one read
  view per relation and cut (:class:`~repro.server.writer.ReadView`)
  and never blocks the writer: with writes queued, a lease's frozen
  rows are chased privately, off the event loop;
* **auto-checkpoints** — by WAL-tail size or wall clock, drained and
  serialized with the op stream.

Start from the CLI (``repro serve <path>``), over TCP
(:meth:`ReproServer.listen` + :class:`~repro.server.protocol.Client`),
or fully in-process (``await server.handle({...})``).  See the README's
"Serving" section and ``examples/server_tour.py``.
"""

from .app import ReproServer
from .protocol import Client, ServerError
from .writer import RelationWriter

__all__ = ["Client", "ReproServer", "RelationWriter", "ServerError"]
