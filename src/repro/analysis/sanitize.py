"""Opt-in structural invariant sanitizer for the chase engines.

The engine layers several mirrored structures on one partition — the
occurrence index over union-find classes, per-FD signature buckets with
anchor and member tables, the session's slot indirection over tombstoned
engine rows, the null registry over raw rows, the WAL's seq counter over
the journal file.  Each mirror exists so a hot path can skip a rescan;
each is therefore a place where a missed journal entry or a wrong undo
order corrupts state *silently* — the chase still runs, it just stops
computing the Theorem-4 fixpoint.

This module recomputes every mirror from its ground truth and raises
:class:`~repro.errors.SanitizerError` on the first disagreement, naming
the structure, the keys involved, and both sides.  It is opt-in
(``REPRO_SANITIZE=1`` in the environment, or ``sanitize=True`` on a
:class:`~repro.chase.session.ChaseSession`) because the audits are
O(instance) per mutation — they turn the randomized property suites into
an engine-invariant fuzzer (the dedicated CI job), not something to pay
on a production hot path.

Audit scope, per entry point:

* :func:`audit_core` — union-find forest integrity (parent pointers in
  range, no cycles, ``size`` totals equal to recomputed class
  populations), tag table keyed by exactly the live roots with the
  nothing node's root the only NOTHING-tagged one, occurrence
  index equal to a recomputation from the encoded cells, class weights
  no smaller than their occurrence counts, the vector engine's per-column
  root arrays equal to the cells' class roots (run at the end of every
  vector fixpoint), and — at worklist quiescence only — signature
  coverage of every live ``(fd, row)`` pair, recomputed signatures, the
  ``_members`` ⇄ ``_sigs`` mirror, and anchor discipline (every non-empty
  bucket anchored by one of its members).
* :func:`audit_session` — everything above, plus the slot-indirection
  bijection (injective, live slots exactly, arity preserved), mark and
  ratchet bounds, trail identity with the union-find, the null-registry
  ⇄ raw-row agreement in both directions, and constant raw cells tagged
  with their own value (or poisoned) in the partition.
* :func:`audit_relation` — everything above on the managed session,
  plus seq/checkpoint ordering and, in direct-append journaling mode,
  WAL seq contiguity against the on-disk log.

Exact class *weights* are deliberately not asserted: a class's weight is
its cell-occurrence total plus the weights of occurrence-free nodes that
merged in (the pre-materialized *nothing* node, retired rows' dangling
nulls), and that history is not reconstructible from current state.  The
audit pins the sound half — a class can never weigh less than the cells
it currently owns.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Set, Tuple

from ..core.values import is_null
from ..errors import SanitizerError

#: the environment flag that arms the sanitizer process-wide
ENV_FLAG = "REPRO_SANITIZE"


def enabled() -> bool:
    """Is the sanitizer armed via ``REPRO_SANITIZE``?  (``0``/empty = off.)"""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def _fail(structure: str, message: str) -> None:
    raise SanitizerError(f"{structure}: {message}")


def _sample(items: Any, limit: int = 6) -> str:
    """A bounded, deterministic rendering of an offending key set."""
    listed = sorted(items, key=repr)
    shown = ", ".join(repr(item) for item in listed[:limit])
    if len(listed) > limit:
        shown += f", ... ({len(listed)} total)"
    return shown


# ---------------------------------------------------------------------------
# union-find + core mirrors
# ---------------------------------------------------------------------------


def _roots_of(uf: Any) -> List[int]:
    """Recomputed root per node, via audited (bounded, memoized) walks."""
    parent = uf.parent
    count = len(parent)
    root_of: List[int] = [-1] * count
    for node in range(count):
        if root_of[node] >= 0:
            continue
        path = []
        cur = node
        steps = 0
        while parent[cur] != cur and root_of[cur] < 0:
            if not 0 <= parent[cur] < count:
                _fail(
                    "unionfind",
                    f"parent[{cur}] == {parent[cur]} is outside 0..{count - 1}",
                )
            path.append(cur)
            cur = parent[cur]
            steps += 1
            if steps > count:
                _fail("unionfind", f"parent cycle reached from node {node}")
        root = root_of[cur] if root_of[cur] >= 0 else cur
        root_of[cur] = root
        for waypoint in path:
            root_of[waypoint] = root
    return root_of


def audit_core(core: Any) -> None:
    """Audit a chase core's partition and index mirrors.

    Duck-typed: works on any :class:`~repro.chase.engine.ChaseState`
    (tags + cells), with the occurrence audits applying when the core
    keeps an occurrence index (the vector engine and the session), the
    root-array audit when it keeps root arrays (the vector engine), and
    the signature audits when it carries the
    :class:`~repro.chase.core.SignatureChaseCore` machinery (the
    session).  Signature-bucket audits run only at worklist quiescence
    (``_work`` empty) — mid-drain the buckets are legitimately stale.
    """
    uf = core.uf
    root_of = _roots_of(uf)

    # size totals: size[root] is maintained by summation on union and
    # subtraction on undo; reverse-order undo violations corrupt it
    population: Dict[int, int] = {}
    for node, root in enumerate(root_of):
        population[root] = population.get(root, 0) + 1
    for root, count in population.items():
        if uf.size[root] != count:
            _fail(
                "unionfind",
                f"size[{root}] == {uf.size[root]} but the class holds "
                f"{count} nodes",
            )

    roots: Set[int] = set(population)

    # tag table: exactly one tag per live root (merges pop both sides'
    # tags and re-tag the survivor; undo restores both)
    tags = getattr(core, "tags", None)
    if tags is not None:
        tagged = set(tags)
        if tagged != roots:
            untagged = roots - tagged
            stale = tagged - roots
            if untagged:
                _fail("tags", f"roots with no tag: {_sample(untagged)}")
            _fail("tags", f"tags keyed by non-roots: {_sample(stale)}")
        # every NOTHING cell is one class: the only NOTHING-tagged root is
        # the nothing node's (a poisoning merge joins it)
        nothing = core._nothing_node
        poisoned = {root for root, (kind, _) in tags.items() if kind == "nothing"}
        if poisoned != (set() if nothing is None else {root_of[nothing]}):
            _fail(
                "tags",
                f"NOTHING-tagged roots {_sample(poisoned)} are not exactly "
                f"the nothing node {nothing!r}'s root",
            )

    cells = getattr(core, "cells", None)
    occ = getattr(core, "_occ", None)
    if cells is None or occ is None:
        return

    # occurrence index: recompute class -> cells from the encoded rows
    # (tombstoned slots have no cells, so they drop out naturally)
    expected_occ: Dict[int, Set[Tuple[int, int]]] = {}
    for row, encoded in enumerate(cells):
        for col, node in enumerate(encoded):
            expected_occ.setdefault(root_of[node], set()).add((row, col))
    if set(occ) != set(expected_occ):
        missing = set(expected_occ) - set(occ)
        stale = set(occ) - set(expected_occ)
        if missing:
            _fail(
                "occurrence-index",
                f"classes with cells but no entry: {_sample(missing)}",
            )
        _fail(
            "occurrence-index",
            f"entries for classes with no cells (or non-roots): "
            f"{_sample(stale)}",
        )
    for root, listed in occ.items():
        have = set(listed)
        if len(have) != len(listed):
            _fail(
                "occurrence-index",
                f"class {root} lists a cell twice: {_sample(listed)}",
            )
        if have != expected_occ[root]:
            _fail(
                "occurrence-index",
                f"class {root} lists {_sample(have - expected_occ[root] or expected_occ[root] - have)} "
                f"on one side only",
            )

    # occurrence-weighted union: a class can gain weight from
    # occurrence-free members (see module doc) but never owns more cells
    # than its weight
    for root in roots:
        owned = len(occ.get(root, ()))
        if uf.weight[root] < owned:
            _fail(
                "unionfind",
                f"weight[{root}] == {uf.weight[root]} but the class owns "
                f"{owned} cell occurrences",
            )

    # the vector engine's root arrays: _roots[c][r] == find(cells[r][c])
    root_arrays = getattr(core, "_roots", None)
    if root_arrays is not None:
        for row, encoded in enumerate(cells):
            for col, node in enumerate(encoded):
                if root_arrays[col][row] != root_of[node]:
                    _fail(
                        "root-arrays",
                        f"_roots[{col}][{row}] == {root_arrays[col][row]} "
                        f"but the cell's class root is {root_of[node]}",
                    )

    sigs = getattr(core, "_sigs", None)
    work = getattr(core, "_work", None)
    if sigs is None or (work is not None and work):
        return  # no bucket machinery, or legitimately mid-drain

    # signature coverage: every (fd, live row) pair signed, nothing else
    fd_count = len(core.fds)
    live = [row for row, encoded in enumerate(cells) if encoded]
    expected_keys = {(k, row) for k in range(fd_count) for row in live}
    if set(sigs) != expected_keys:
        missing = expected_keys - set(sigs)
        stale = set(sigs) - expected_keys
        if missing:
            _fail(
                "signatures",
                f"live (fd, row) pairs never signed: {_sample(missing)}",
            )
        _fail(
            "signatures",
            f"signatures for dead or out-of-range rows: {_sample(stale)}",
        )

    # recompute each signature from the current partition
    lhs_cols = core._lhs_cols
    for (k, row), sig in sigs.items():
        cols = lhs_cols[k]
        if len(cols) == 1:
            want: Any = root_of[cells[row][cols[0]]]
        else:
            want = tuple(root_of[cells[row][col]] for col in cols)
        if sig != want:
            _fail(
                "signatures",
                f"(fd {k}, row {row}) recorded as {sig!r} but the "
                f"partition says {want!r}",
            )

    # members mirror: _members[(k, s)] == {row : _sigs[(k, row)] == s}
    members = core._members
    expected_members: Dict[Tuple[int, Any], Set[int]] = {}
    for (k, row), sig in sigs.items():
        expected_members.setdefault((k, sig), set()).add(row)
    if set(members) != set(expected_members):
        missing = set(expected_members) - set(members)
        stale = set(members) - set(expected_members)
        if missing:
            _fail("buckets", f"signed rows with no bucket: {_sample(missing)}")
        _fail("buckets", f"empty-signature buckets survive: {_sample(stale)}")
    for key, bucket in members.items():
        have = set(bucket)
        want_rows = expected_members[key]
        if have != want_rows:
            _fail(
                "buckets",
                f"bucket {key!r} holds {_sample(have)} but the signatures "
                f"say {_sample(want_rows)}",
            )

    # anchor discipline: every bucket anchored, by one of its own members
    anchors = core._anchors
    for key, bucket in members.items():
        anchor = anchors.get(key)
        if anchor is None:
            _fail("anchors", f"bucket {key!r} has members but no anchor")
        if anchor not in bucket:
            _fail(
                "anchors",
                f"bucket {key!r} anchored by row {anchor} which is not a "
                f"member",
            )
    stale_anchors = set(anchors) - set(members)
    if stale_anchors:
        _fail(
            "anchors",
            f"anchors for empty buckets: {_sample(stale_anchors)}",
        )


# ---------------------------------------------------------------------------
# session mirrors
# ---------------------------------------------------------------------------


def audit_session(session: Any) -> None:
    """Audit a :class:`~repro.chase.session.ChaseSession` (core included)."""
    audit_core(session)

    cells = session.cells
    slots = session._slots
    raw_rows = session._raw_rows
    marks = session._marks
    arity = len(session.schema)

    if not (len(slots) == len(raw_rows) == len(marks)):
        _fail(
            "slots",
            f"{len(slots)} slots, {len(raw_rows)} raw rows, "
            f"{len(marks)} marks — the three must move together",
        )
    if len(set(slots)) != len(slots):
        dupes = {s for s in slots if slots.count(s) > 1}
        _fail("slots", f"slot table is not injective: {_sample(dupes)}")
    live = {i for i, encoded in enumerate(cells) if encoded}
    for index, slot in enumerate(slots):
        if not 0 <= slot < len(cells):
            _fail(
                "slots",
                f"row {index} maps to slot {slot}, outside "
                f"0..{len(cells) - 1}",
            )
        if slot not in live:
            _fail("slots", f"row {index} maps to tombstoned slot {slot}")
        if len(cells[slot]) != arity:
            _fail(
                "slots",
                f"slot {slot} holds {len(cells[slot])} cells for a "
                f"{arity}-attribute scheme",
            )
    leaked = live - set(slots)
    if leaked:
        _fail(
            "slots",
            f"live engine slots reachable from no row: {_sample(leaked)}",
        )

    # trail discipline
    if session.uf.trail is not session._trail:
        _fail("trail", "union-find journals onto a different trail")
    trail_len = len(session._trail)
    if not 0 <= session._ratchet_mark <= trail_len:
        _fail(
            "trail",
            f"ratchet mark {session._ratchet_mark} outside the trail "
            f"(length {trail_len})",
        )
    apps_len = len(session.applications)
    for index, (mark, apps) in enumerate(marks):
        if not 0 <= mark <= trail_len or not 0 <= apps <= apps_len:
            _fail(
                "trail",
                f"row {index} marked at (trail {mark}, apps {apps}) but "
                f"the journals hold ({trail_len}, {apps_len})",
            )

    # null registry <-> raw rows, both directions
    null_nodes = session._null_nodes
    null_objects = session._null_objects
    if set(null_nodes) != set(null_objects):
        _fail(
            "null-registry",
            "node and object registries disagree on which nulls exist: "
            f"{_sample(set(null_nodes) ^ set(null_objects))}",
        )
    occurring = {
        id(value)
        for row in raw_rows
        for value in row.values
        if is_null(value)
    }
    unregistered = occurring - set(null_nodes)
    if unregistered:
        _fail(
            "null-registry",
            f"raw-row nulls missing from the registry: "
            f"{_sample(session._null_objects.get(k, k) for k in unregistered)}",
        )
    dangling = set(null_nodes) - occurring
    if dangling:
        _fail(
            "null-registry",
            f"registered nulls occurring in no raw row: "
            f"{_sample(null_objects[k] for k in dangling)}",
        )

    # cross-layer: a constant raw cell's engine class must be tagged with
    # that constant (or be the poisoned class) — nulls are skipped because
    # the surviving tag inside an NEC class is representation-dependent
    find = session.uf.find
    tags = session.tags
    for index, row in enumerate(raw_rows):
        encoded = cells[slots[index]]
        for col, value in enumerate(row.values):
            if is_null(value):
                continue
            kind, payload = tags[find(encoded[col])]
            if kind == "nothing":
                continue
            if kind != "const" or payload != value:
                _fail(
                    "cells",
                    f"row {index} col {col} stores constant {value!r} but "
                    f"its class is tagged ({kind!r}, {payload!r})",
                )


# ---------------------------------------------------------------------------
# durable-relation mirrors
# ---------------------------------------------------------------------------


def audit_relation(managed: Any) -> None:
    """Audit a :class:`~repro.db.database.ManagedRelation` (session included)."""
    audit_session(managed.session)

    if not 0 <= managed.checkpoint_seq <= managed.seq:
        _fail(
            "wal",
            f"checkpoint_seq {managed.checkpoint_seq} / seq {managed.seq} "
            f"out of order",
        )

    wal = managed.wal
    # WAL file audits only apply in direct-append mode with the buffer
    # flushed per record; a group committer legitimately holds staged
    # records the file has not seen yet
    if managed.journal_sink != wal.append or wal.sync == "none":
        return
    from ..db.log import scan

    try:
        payloads, _, torn = scan(wal.path)
    except Exception as exc:  # DatabaseError: garbage before intact records
        _fail("wal", f"log no longer scans cleanly: {exc}")
        return  # pragma: no cover - _fail always raises
    if torn:
        _fail("wal", "torn final record in a log owned by a live process")
    seqs = [payload.get("seq") for payload in payloads]
    for position, seq in enumerate(seqs):
        if not isinstance(seq, int):
            _fail("wal", f"record {position} carries seq {seq!r}")
        if position and seq != seqs[position - 1] + 1:
            _fail(
                "wal",
                f"seq jumps {seqs[position - 1]} -> {seq} at record "
                f"{position}",
            )
    if seqs:
        if seqs[-1] != managed.seq:
            _fail(
                "wal",
                f"log ends at seq {seqs[-1]} but the relation counted "
                f"{managed.seq}",
            )
    elif managed.seq != managed.checkpoint_seq:
        _fail(
            "wal",
            f"empty log but {managed.seq - managed.checkpoint_seq} ops "
            f"journalled past the checkpoint",
        )


# ---------------------------------------------------------------------------
# query evaluator answers
# ---------------------------------------------------------------------------


def audit_evaluator(
    evaluator: Any,
    attrs: Tuple[str, ...],
    crows: Any,
    certain_rows: Any,
    maybe_rows: Any,
) -> None:
    """Audit one finished :meth:`~repro.query.evaluate.Evaluator.run`.

    The evaluator's output discipline, recomputed from ground truth:

    * the conditional table is deduplicated — every surviving row key
      (nulls by identity, constants by value) appears exactly once;
    * **certain** and **maybe** answers partition the surviving rows —
      no key is tagged both ways, and every answer row is one of the
      conditional rows;
    * every null any row condition references was registered at
      construction, with a grounding pool — a condition over an
      unregistered null could never be ground, so its truth was
      made up;
    * every row's carried Kleene value is its condition's — a value
      drifted while the row was built would tag it wrongly.
    """
    from ..core.conditions import kleene, nulls_of
    from ..query.evaluate import _row_key

    seen: Set[Tuple[Any, ...]] = set()
    for crow in crows:
        if len(crow.values) != len(attrs):
            _fail(
                "evaluator",
                f"conditional row arity {len(crow.values)} does not "
                f"match the output scheme {attrs}",
            )
        key = _row_key(crow.values)
        if key in seen:
            _fail(
                "evaluator",
                f"conditional table holds a duplicate row key: "
                f"{_sample([key])}",
            )
        seen.add(key)
        if crow.truth is not kleene(crow.cond):
            _fail(
                "evaluator",
                f"conditional row carries {crow.truth!r} but its "
                f"condition's Kleene value is {kleene(crow.cond)!r}",
            )
        for null_obj in nulls_of(crow.cond):
            if id(null_obj) not in evaluator.domains:
                _fail(
                    "evaluator",
                    f"condition references unregistered null "
                    f"{null_obj!r}",
                )
    certain_keys = {_row_key(row) for row in certain_rows}
    maybe_keys = {_row_key(row) for row in maybe_rows}
    overlap = certain_keys & maybe_keys
    if overlap:
        _fail(
            "evaluator",
            f"rows tagged both certain and maybe: {_sample(overlap)}",
        )
    stray = (certain_keys | maybe_keys) - seen
    if stray:
        _fail(
            "evaluator",
            f"answer rows missing from the conditional table: "
            f"{_sample(stray)}",
        )
