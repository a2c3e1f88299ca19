"""Seeded data and request streams for the three served workloads.

Every cell comes from a hidden ground truth, so the functional
dependencies merge unknowns but never contradict each other:

* ``r(K A B C D)`` with ``K -> A``, ``A -> B``, ``B C -> D``; ``B`` is
  declared on the finite domain ``b0..b5``;
* ``s(B E)`` with ``B -> E`` (``B`` on the same domain);
* ``t(K V)`` with ``K -> V`` — the write probe's relation, which no
  query scans.

A null stands for its cell's true value.  Shared nulls are reused only
among cells of one attribute whose true value is the same, so the chase
never derives NOTHING (which would make TEST-FDs and least-mode
queries refuse).

The program never sees the truth: it only receives the generated rows
and requests.  Every request is a pure function of ``(workload, seed)``
and of the requests sent before it — never of a server response — so
two runs with one seed send the same traffic, and :class:`Digest`
proves it.  The seed spells the constants (:class:`Spelling`); the
shape of the instance and of the traffic is fixed per workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("ingest", "churn", "analytic")

R_ATTRS = ("K", "A", "B", "C", "D")
R_FDS = ("K -> A", "A -> B", "B C -> D")
S_ATTRS = ("B", "E")
S_FDS = ("B -> E",)
T_ATTRS = ("K", "V")
T_FDS = ("K -> V",)
B_DOMAIN = tuple(f"b{i}" for i in range(6))

#: rows of ``r`` in the preloaded checkpoint.  Churn and analytic are
#: smaller than ingest because their reads are costly — every query's
#: environment build scans each null's column (quadratic in the rows),
#: and a stale lease re-chases every row — and a run must hold enough
#: reads for a steady 90th percentile
PRELOAD_ROWS = {"ingest": 2000, "churn": 1000, "analytic": 400}
#: rows of ``s`` (a dimension table: a few rows per ``B`` value)
S_ROWS = 24
#: share of non-key cells that are null, per workload
NULL_DENSITY = {"ingest": 0.10, "churn": 0.10, "analytic": 0.25}
#: chance that a null cell reuses an existing null of the same truth
SHARE_NULLS = {"ingest": 0.0, "churn": 0.0, "analytic": 0.3}

#: writes in flight per connection (closed loop with a fixed window)
INGEST_WINDOW = 16
CHURN_WINDOW = 4
#: the ingest request (per connection) that is a small lint-gated
#: ``batch``.  The batch linter re-derives the whole relation, ~0.3 s
#: at 2,000 rows, so batches stay this rare or they would be all the
#: run measures; a fixed position keeps their count the same in every run
INGEST_BATCH_AT = 100
INGEST_BATCH_OPS = 4
#: every this-many-th request on ingest's first connection reloads the
#: first RESET_ROWS preloaded rows, bounding the rows (and so memory,
#: checkpoint size and recovery work) however fast the server acks.
#: The reload is one request line, and the server reads lines of at
#: most 64 KiB, so it carries only part of the preload (see NOTES.md)
INGEST_RESET_EVERY = 1500
RESET_ROWS = 500
#: WAL ops between auto-checkpoints (several cycles per measured run)
CHECKPOINT_WAL_OPS = {"ingest": 8000, "churn": 400, "analytic": 100}
#: open-loop rates (requests per second) of the fixed-rate streams
CHURN_READ_RATE = 5.0
INGEST_PROBE_RATE = 50.0
ANALYTIC_PROBE_RATE = 40.0

#: how many requests of each stream the digest covers (two runs with
#: one seed send at least this many on every stream)
DIGEST_PREFIX = 200


@dataclass(frozen=True)
class NullRef:
    """A null of the generated instance: ``key`` is its identity (equal
    keys are one shared unknown), ``truth`` the value it stands for."""

    key: str
    truth: str


Cell = Any  # a constant (str) or a NullRef


class Spelling:
    """How one seed spells every constant.

    The seed chooses the names and nothing else: ``name("a", 7)`` is an
    affine map modulo a prime (a bijection, so distinct ids keep
    distinct names), and ``b`` is the seed's order of the declared
    domain.  Which rows share a key, where nulls sit and which op comes
    when are fixed per workload, so the spread between seeds measures
    the machine, not the luck of the draw."""

    PRIME = 1_000_003

    def __init__(self, seed: int) -> None:
        rng = random.Random(f"spelling:{seed}")
        self._affine = {
            prefix: (rng.randrange(1, self.PRIME), rng.randrange(self.PRIME))
            for prefix in "kacdev"
        }
        self.b = list(B_DOMAIN)
        rng.shuffle(self.b)

    def name(self, prefix: str, ident: int) -> str:
        mult, add = self._affine[prefix]
        return f"{prefix}{(ident * mult + add) % self.PRIME}"


class Truth:
    """The hidden ground truth: one value for every functional fact.

    Keys spread evenly over ``A`` values and those evenly over ``B``
    values, so the instance's shape does not depend on chance."""

    def __init__(self, rng: random.Random, keys: int, spell: Spelling) -> None:
        self.keys = keys
        self.spell = spell
        n_a = max(8, keys // 4)
        a_ids = [k % n_a for k in range(keys)]
        rng.shuffle(a_ids)
        self.a_of_k = [spell.name("a", i) for i in a_ids]
        b_ids = [i % len(B_DOMAIN) for i in range(n_a)]
        rng.shuffle(b_ids)
        self.b_values = tuple(spell.b)
        self.b_of_a = {spell.name("a", i): spell.b[b] for i, b in enumerate(b_ids)}
        self.c_values = tuple(spell.name("c", i) for i in range(8))
        self.d_values = tuple(spell.name("d", i) for i in range(24))
        self.e_values = tuple(spell.name("e", i) for i in range(4))
        self.d_of_bc = {
            (b, c): rng.choice(self.d_values) for b in self.b_values for c in self.c_values
        }
        self.e_of_b = {b: rng.choice(self.e_values) for b in self.b_values}

    def key(self, ident: int) -> str:
        return self.spell.name("k", ident)

    def r_row(self, rng: random.Random, key: int) -> Tuple[str, ...]:
        a = self.a_of_k[key % self.keys]
        b = self.b_of_a[a]
        c = rng.choice(self.c_values)
        return (self.key(key), a, b, c, self.d_of_bc[(b, c)])


class Nulls:
    """Mints nulls for generated cells, sharing only same-truth ones.

    Every draw comes from the caller's ``rng``, so each request stream
    stays a function of its own seed whatever order the streams run in.
    """

    def __init__(self, density: float, share: float) -> None:
        self.density = density
        self.share = share
        self._pools: Dict[Tuple[str, str], List[NullRef]] = {}
        self._count = 0

    def fresh(self, truth: str) -> NullRef:
        self._count += 1
        return NullRef(f"u{self._count}", truth)

    def cell(self, rng: random.Random, attr: str, truth: str, share: bool) -> Cell:
        if rng.random() >= self.density:
            return truth
        if not share:
            return self.fresh(truth)
        pool = self._pools.setdefault((attr, truth), [])
        if pool and rng.random() < self.share:
            return rng.choice(pool)
        ref = self.fresh(truth)
        pool.append(ref)
        return ref

    def row(
        self, rng: random.Random, attrs: Tuple[str, ...], values: Tuple[str, ...],
        keep: int, share: bool = False,
    ) -> list:
        """Null out cells of ``values`` (the first ``keep`` stay ground);
        ``share`` lets a null be reused by later same-truth cells."""
        return [
            value if i < keep else self.cell(rng, attr, value, share)
            for i, (attr, value) in enumerate(zip(attrs, values))
        ]


def truth_of(cell: Cell) -> str:
    return cell.truth if isinstance(cell, NullRef) else cell


def wire_cell(cell: Cell) -> Any:
    """A generated cell as a wire token: fresh nulls are server-minted."""
    return {"n": None} if isinstance(cell, NullRef) else cell


@dataclass
class Dataset:
    """The preloaded instance plus the truth that generated it."""

    workload: str
    seed: int
    truth: Truth
    nulls: Nulls
    r_rows: List[list]
    s_rows: List[list]


def make_dataset(workload: str, seed: int) -> Dataset:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
    rng = random.Random(f"data:{workload}")
    truth = Truth(rng, PRELOAD_ROWS[workload] * 3 // 4, Spelling(seed))
    nulls = Nulls(NULL_DENSITY[workload], SHARE_NULLS[workload])
    # every key appears once or twice, in a seeded order
    keys = [i % truth.keys for i in range(PRELOAD_ROWS[workload])]
    rng.shuffle(keys)
    r_rows = [
        nulls.row(rng, R_ATTRS, truth.r_row(rng, key), keep=1, share=True) for key in keys
    ]
    s_rows = []
    for i in range(S_ROWS):
        b = truth.b_values[i % len(B_DOMAIN)]
        s_rows.append(nulls.row(rng, S_ATTRS, (b, truth.e_of_b[b]), keep=0, share=True))
    return Dataset(workload, seed, truth, nulls, r_rows, s_rows)


# ---------------------------------------------------------------------------
# request streams
# ---------------------------------------------------------------------------


class Digest:
    """SHA-256 over the first :data:`DIGEST_PREFIX` requests of a stream."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0

    def add(self, request: dict) -> None:
        if self.count < DIGEST_PREFIX:
            self._hash.update(json.dumps(request, sort_keys=True).encode())
            self._hash.update(b"\n")
        self.count += 1

    def hexdigest(self) -> str:
        return self._hash.hexdigest()[:16]


def _insert_row(rng: random.Random, data: Dataset, key_space: int) -> list:
    values = data.truth.r_row(rng, rng.randrange(key_space))
    return data.nulls.row(rng, R_ATTRS, values, keep=1)


def reset_request(data: Dataset, rid: str) -> dict:
    """Reload ``r`` with the first :data:`RESET_ROWS` preloaded rows
    (fresh nulls for null cells)."""
    rows = [[wire_cell(c) for c in row] for row in data.r_rows[:RESET_ROWS]]
    return {"id": rid, "do": "reset", "rel": "r", "rows": rows}


def ingest_writes(
    data: Dataset, conn: int, sent_ops: Dict[str, List[tuple]]
) -> Iterator[Tuple[dict, int]]:
    """Connection ``conn``'s ingest stream: ``(request, ops)`` pairs.

    Nearly every request is an insert with fresh nulls.  Request
    :data:`INGEST_BATCH_AT` is a small lint-gated ``batch``, and on
    connection 0 every :data:`INGEST_RESET_EVERY`-th reloads part of the
    preload (``reset``), which keeps ``r`` under ~3,500 rows.
    ``sent_ops`` receives each request's model ops by request id."""
    rng = random.Random(f"ingest:{conn}")
    key_space = data.truth.keys * 4
    n = 0
    while True:
        n += 1
        rid = f"w{conn}.{n}"
        if conn == 0 and n % INGEST_RESET_EVERY == 0:
            sent_ops[rid] = [("reset",)]
            yield reset_request(data, rid), 1
        elif n == INGEST_BATCH_AT:
            rows = [_insert_row(rng, data, key_space) for _ in range(INGEST_BATCH_OPS)]
            sent_ops[rid] = [("insert", row) for row in rows]
            ops = [{"do": "insert", "row": [wire_cell(c) for c in row]} for row in rows]
            yield {"id": rid, "do": "batch", "rel": "r", "ops": ops}, len(ops)
        else:
            row = _insert_row(rng, data, key_space)
            sent_ops[rid] = [("insert", row)]
            yield {"id": rid, "do": "insert", "rel": "r", "row": [wire_cell(c) for c in row]}, 1


class RowModel:
    """The raw rows of ``r`` as the writer will hold them, op by op.

    Writes on one connection are applied in send order, so indices drawn
    from this model stay in range however many writes are in flight.
    ``ops`` keeps one entry per journalled op, so a read stamped
    ``as_of`` can be checked against that serial prefix.
    """

    def __init__(self, rows: List[list], base_seq: int) -> None:
        self._base = [list(row) for row in rows]
        self.rows = [list(row) for row in rows]
        self.base_seq = base_seq
        self.ops: List[tuple] = []

    @property
    def seq(self) -> int:
        return self.base_seq + len(self.ops)

    def prefixes(self, seqs: List[int]) -> Dict[int, List[list]]:
        """The rows after each journalled seq in ``seqs`` (each between
        the base seq and :attr:`seq`), replayed from the base rows."""
        replay = RowModel(self._base, self.base_seq)
        out: Dict[int, List[list]] = {}
        for seq in sorted(set(seqs)):
            while replay.seq < seq:
                replay.apply(self.ops[len(replay.ops)])
            out[seq] = [list(row) for row in replay.rows]
        return out

    def apply(self, op: tuple) -> None:
        kind = op[0]
        rows = self.rows
        if kind == "insert":
            rows.append(list(op[1]))
        elif kind == "reset":
            rows[:] = [list(row) for row in self._base[:RESET_ROWS]]
        elif kind == "delete":
            del rows[op[1]]
        elif kind == "update":
            _, index, col, cell = op
            rows[index][col] = cell
        elif kind == "fill":
            _, index, col = op
            target = rows[index][col]
            for row in rows:
                for j, cell in enumerate(row):
                    if cell is target:
                        row[j] = target.truth
        self.ops.append(op)


def churn_writes(data: Dataset, model: RowModel) -> Iterator[Tuple[dict, int]]:
    """The churn writer: deletes skewed to old rows, updates and fills,
    with inserts balancing deletes so the row count stays stationary."""
    rng = random.Random("churn")
    target = PRELOAD_ROWS["churn"]
    key_space = data.truth.keys
    n = 0
    while True:
        n += 1
        rid = f"w0.{n}"
        rows = model.rows
        roll = rng.random()
        if len(rows) < target or (len(rows) == target and roll < 0.3):
            row = _insert_row(rng, data, key_space)
            model.apply(("insert", row))
            yield {"id": rid, "do": "insert", "rel": "r", "row": [wire_cell(c) for c in row]}, 1
        elif len(rows) > target or roll < 0.55:
            # deletes skew to older rows: the retire / rebuild paths
            index = int(len(rows) * rng.random() ** 3)
            model.apply(("delete", index))
            yield {"id": rid, "do": "delete", "rel": "r", "index": index}, 1
        elif roll < 0.85:
            index = rng.randrange(len(rows))
            col = rng.randrange(1, len(R_ATTRS))
            old = rows[index][col]
            if isinstance(old, NullRef):
                cell: Cell = old.truth  # learn the value
            else:
                cell = data.nulls.fresh(old)  # forget it
            model.apply(("update", index, col, cell))
            yield {
                "id": rid,
                "do": "update",
                "rel": "r",
                "index": index,
                "set": {R_ATTRS[col]: wire_cell(cell)},
            }, 1
        else:
            found = _find_null(rng, rows)
            if found is None:
                n -= 1
                continue
            index, col = found
            value = rows[index][col].truth
            model.apply(("fill", index, col))
            yield {
                "id": rid,
                "do": "fill",
                "rel": "r",
                "index": index,
                "attr": R_ATTRS[col],
                "value": value,
            }, 1


def _find_null(rng: random.Random, rows: List[list]) -> Optional[Tuple[int, int]]:
    for _ in range(64):
        index = rng.randrange(len(rows))
        nulls = [j for j, cell in enumerate(rows[index]) if isinstance(cell, NullRef)]
        if nulls:
            return index, rng.choice(nulls)
    return None


#: the query shapes.  Least mode gets the select, project, union and
#: join shapes whose conditions stay inside the grounding budget: their
#: nulls sit in ``A`` or ``B``, which ``K -> A -> B`` unify across the
#: rows of one key, so deduplicating on ``K`` ORs conditions over few
#: distinct nulls.  Shapes whose merged conditions range over ``C`` or
#: ``D`` nulls (which no FD unifies), the difference and the joins that
#: drop ``K`` would exceed it, so they run in Kleene mode
SHAPES = (
    ("r where B = '{b1}' [K, C]", "least"),
    ("r where B = '{b1}' or B = '{b2}' [K]", "least"),
    ("r where A = '{a}' [K, B]", "least"),
    ("(r where B = '{b1}' [K, B]) join s", "least"),
    ("(r where K = '{k}') join s", "least"),
    ("(r where B = '{b1}' [K]) union (r where B = '{b2}' [K])", "least"),
    ("s where B = '{b1}' or E = '{e}'", "least"),
    ("r where C = '{c}' [K, D]", "kleene"),
    ("r where D = '{d}' [K]", "kleene"),
    ("r where C = '{c}' and B != '{b1}' [K, B]", "kleene"),
    ("(r where C = '{c}' [K]) minus (r where B = '{b1}' [K])", "kleene"),
    ("(r where C = '{c}') join s [K, E]", "kleene"),
    ("(r where C = '{c}' and B = '{b1}') join s", "kleene"),
)
#: churn's least-mode shapes: select/project over ``r``, and joins with ``s``
CHURN_SELECTS = tuple(q for q, _ in SHAPES[:3])
CHURN_JOINS = tuple(q for q, _ in SHAPES[3:5])


def fill_shape(rng: random.Random, truth: Truth, shape: str) -> str:
    """``shape`` with seeded constants drawn from the truth's values."""
    b1, b2 = rng.sample(truth.b_values, 2)
    return shape.format(
        b1=b1,
        b2=b2,
        a=rng.choice(truth.a_of_k),
        c=rng.choice(truth.c_values),
        d=rng.choice(truth.d_values),
        e=rng.choice(truth.e_values),
        k=truth.key(rng.randrange(truth.keys)),
    )


def churn_reads(data: Dataset) -> Iterator[dict]:
    """The churn reader: least-mode select/project and join-with-``s``
    queries, TEST-FDs checks and fixpoint reads, ``isolated`` default."""
    rng = random.Random("churn-read")
    n = 0
    while True:
        n += 1
        rid = f"r.{n}"
        roll = rng.random()
        if roll < 0.55:
            shapes = CHURN_SELECTS if roll < 0.35 else CHURN_JOINS
            q = fill_shape(rng, data.truth, rng.choice(shapes))
            yield {"id": rid, "do": "query", "q": q, "mode": "least"}
        elif roll < 0.8:
            yield {"id": rid, "do": "check", "rel": "r"}
        else:
            yield {"id": rid, "do": "result", "rel": "r"}


#: distinct queries in an analytic run (each is checked against an
#: in-process evaluation of the same preload)
ANALYTIC_MENU = 52


def analytic_menu(data: Dataset) -> List[Tuple[str, str]]:
    """The analytic run's ``(query, mode)`` menu: each of :data:`SHAPES`
    in turn with seeded constants, until :data:`ANALYTIC_MENU` distinct
    entries."""
    rng = random.Random("analytic-menu")
    menu: List[Tuple[str, str]] = []
    while len(menu) < ANALYTIC_MENU:
        shape, mode = SHAPES[len(menu) % len(SHAPES)]
        entry = (fill_shape(rng, data.truth, shape), mode)
        if entry not in menu:
            menu.append(entry)
    return menu


def analytic_reads(data: Dataset, conn: int) -> Iterator[dict]:
    """Read-only mix: connection ``conn`` draws from the menu."""
    rng = random.Random(f"analytic:{conn}")
    menu = analytic_menu(data)
    n = 0
    while True:
        n += 1
        q, mode = rng.choice(menu)
        yield {"id": f"q{conn}.{n}", "do": "query", "q": q, "mode": mode}


def probe_reads() -> Iterator[dict]:
    """Ingest's fixed-rate read probe: the ``stats`` verb, which takes no
    lease and runs no query, so the write path stays the subject."""
    n = 0
    while True:
        n += 1
        yield {"id": f"p.{n}", "do": "stats", "rel": "r"}


def probe_writes(data: Dataset) -> Iterator[Tuple[dict, int]]:
    """Analytic's fixed-rate write probe: inserts into ``t``, which no
    query scans, so every lease on ``r`` and ``s`` stays fresh."""
    rng = random.Random("probe")
    n = 0
    while True:
        n += 1
        key = rng.randrange(1000)
        spell = data.truth.spell
        value = {"n": None} if rng.random() < 0.2 else spell.name("v", key % 97)
        yield {"id": f"t.{n}", "do": "insert", "rel": "t",
               "row": [spell.name("k", key), value]}, 1


def epilogue_script(
    data: Dataset, model: RowModel, reset: bool
) -> Iterator[Tuple[dict, List[tuple]]]:
    """Requests sent one at a time after the measured window, with the
    model ops each applies: optionally a reload of the preload (so the
    state a reopen recovers does not depend on how far the window got),
    then one request per layer (insert, fill, update, batch, delete,
    live and isolated queries, check, result), then checkpoints."""
    if reset:
        yield reset_request(data, "e.reset"), [("reset",)]
    rng = random.Random(f"epilogue:{data.workload}")
    truth = data.truth
    values = truth.r_row(rng, rng.randrange(truth.keys))
    row = list(values)
    row[2] = data.nulls.fresh(values[2])
    index = len(model.rows)
    forget = data.nulls.fresh(values[4])
    rows = [_insert_row(rng, data, truth.keys) for _ in range(2)]
    yield {"id": "e.insert", "do": "insert", "rel": "r",
           "row": [wire_cell(c) for c in row]}, [("insert", row)]
    yield {"id": "e.fill", "do": "fill", "rel": "r", "index": index,
           "attr": "B", "value": values[2]}, [("fill", index, 2)]
    yield {"id": "e.update", "do": "update", "rel": "r", "index": index,
           "set": {"D": wire_cell(forget)}}, [("update", index, 4, forget)]
    yield {"id": "e.batch", "do": "batch", "rel": "r",
           "ops": [{"do": "insert", "row": [wire_cell(c) for c in r]} for r in rows]}, [
        ("insert", r) for r in rows
    ]
    yield {"id": "e.delete", "do": "delete", "rel": "r", "index": index}, [("delete", index)]
    yield {"id": "e.query", "do": "query", "q": "r where B = 'b0' [K]", "mode": "least"}, []
    yield {"id": "e.isolated", "do": "query", "q": "r where B = 'b1' [K, C]",
           "mode": "least", "isolated": True}, []
    yield {"id": "e.check", "do": "check", "rel": "r"}, []
    yield {"id": "e.result", "do": "result", "rel": "r"}, []
    yield {"id": "e.checkpoint.r", "do": "checkpoint", "rel": "r"}, []
    yield {"id": "e.checkpoint.t", "do": "checkpoint", "rel": "t"}, []


def recovery_tail(data: Dataset, count: int) -> Iterator[Tuple[dict, list]]:
    """``count`` inserts into ``r``: the WAL tail every reopen replays."""
    rng = random.Random(f"tail:{data.workload}")
    for n in range(count):
        row = _insert_row(rng, data, data.truth.keys)
        yield {"id": f"e.tail.{n}", "do": "insert", "rel": "r",
               "row": [wire_cell(c) for c in row]}, row
