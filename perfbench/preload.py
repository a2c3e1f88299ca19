"""Build the preloaded database a workload starts from.

The generated rows go in through the program's own durable API
(``repro.db.Database``), shared nulls as shared ``Null`` objects, and a
checkpoint absorbs them, so the server opens a checkpoint with an empty
WAL tail.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from repro import Domain, Null, null
from repro.db import Database

from workload import (
    B_DOMAIN,
    R_ATTRS,
    R_FDS,
    S_ATTRS,
    S_FDS,
    T_ATTRS,
    T_FDS,
    Dataset,
    NullRef,
)


def engine_rows(rows, nulls: Dict[str, Null]) -> list:
    """Generated rows with each :class:`NullRef` key mapped to one null."""
    out = []
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, NullRef):
                obj = nulls.get(cell.key)
                if obj is None:
                    obj = nulls[cell.key] = null()
                cells.append(obj)
            else:
                cells.append(cell)
        out.append(cells)
    return out


def build_database(data: Dataset, path: Path) -> int:
    """Create ``r``, ``s`` and ``t`` at ``path``; returns ``r``'s seq."""
    domain = {"B": Domain(B_DOMAIN, name="B")}
    nulls: Dict[str, Null] = {}
    with Database.open(path, sync="none", create=True) as db:
        r = db.create("r", R_ATTRS, R_FDS, domains=domain)
        s = db.create("s", S_ATTRS, S_FDS, domains=domain)
        db.create("t", T_ATTRS, T_FDS)
        # one reset op per relation: the checkpoint then absorbs it whole
        r.reset(engine_rows(data.r_rows, nulls))
        s.reset(engine_rows(data.s_rows, nulls))
        if r.has_nothing or s.has_nothing:
            raise RuntimeError("generated instance derives NOTHING")
        db.checkpoint()
        return r.seq
