"""Tour of the FD-aware query analysis: EXPLAIN, plan lint, the server.

Walks the surface end to end:

1. ``EXPLAIN``: the query tree as written, annotated with inferred keys
   (from the relations' FDs), null-flow, join strategies and bounds;
   the bucket equi-join it shows answers field-identically (nulls by
   identity) to the naive nested loop;
2. the plan linter: one three-line script triggers ``W_CROSS_PRODUCT``,
   ``E_EMPTY_CERTAIN``, and ``W_GROUND_BLOWUP``, each on its own line;
3. the server: ``explain: true`` answers lease-free, and a statically
   dead query is refused by lint *before any lease is taken*.

Run: ``PYTHONPATH=src python examples/optimize_tour.py``
"""

import asyncio
import shutil
import tempfile
from pathlib import Path

from repro import Domain, FDSet, Relation, RelationSchema, null
from repro.analysis import lint_query_script
from repro.query import Evaluator, collect_stats, parse_query
from repro.server import ReproServer


def banner(text):
    print(f"\n=== {text} ===")


# ---------------------------------------------------------------------------
# a small incomplete environment with declared FDs
# ---------------------------------------------------------------------------

dept_domain = Domain(["sales", "eng"], name="dept")
emp_schema = RelationSchema("emp", "name dept", domains={"dept": dept_domain})
mgr_schema = RelationSchema("mgr", "dept boss", domains={"dept": dept_domain})
emp = Relation(emp_schema, [["ann", "sales"], ["bob", null()]])
mgr = Relation(mgr_schema, [["sales", "dana"], ["eng", "eve"]])
env = {"emp": emp, "mgr": mgr}
fds = {
    "emp": tuple(FDSet.parse("name -> dept")),
    "mgr": tuple(FDSet.parse("dept -> boss")),
}

# ---------------------------------------------------------------------------
# 1. EXPLAIN: inferred keys, join strategy, the tree as written
# ---------------------------------------------------------------------------

banner("EXPLAIN: keys inferred from FDs, equi-join routed through buckets")

query = parse_query("(emp join mgr) where boss = 'dana'")
plan_text = Evaluator(env, fds=fds).explain(query)
print(plan_text)
assert "strategy=bucket(dept)" in plan_text  # equi-join, not nested loop
assert "keys=(name)" in plan_text            # name -> dept makes name a key

bucketed = Evaluator(env, fds=fds).run(query)
naive = Evaluator(env, hash_joins=False).run(query)
for side in ("certain", "maybe"):
    fast = [tuple(map(str, r)) for r in getattr(bucketed, side).rows]
    slow = [tuple(map(str, r)) for r in getattr(naive, side).rows]
    assert fast == slow, side
print("bucket-join answers are field-identical to naive evaluation: True")

# ---------------------------------------------------------------------------
# 2. the plan linter: every code fires on its own line, statically
# ---------------------------------------------------------------------------

banner("plan lint: a three-line script, three findings with line numbers")

wide_schema = RelationSchema("t", "A", domains={"A": Domain(["a", "b"], name="A")})
wide = Relation(wide_schema, [[null()] for _ in range(20)])
env["t"] = wide

script = (
    "emp join t",                                 # no shared attributes
    "emp where name = 'zz' and name != 'zz'",     # unsatisfiable
    "emp[dept] rename dept -> A minus t",         # 2^20 groundings
)
catalog = {name: r.schema for name, r in env.items()}
findings = lint_query_script(catalog, script, stats=collect_stats(env))
for d in findings:
    print(f"  line {d.line}: {d.code} ({d.severity})")
assert [(d.line, d.code) for d in findings] == [
    (1, "W_CROSS_PRODUCT"),
    (2, "E_EMPTY_CERTAIN"),
    (3, "W_GROUND_BLOWUP"),
]
print(f"findings: {len(findings)}, nothing was evaluated")

# ---------------------------------------------------------------------------
# 3. the server lints (and explains) before any lease
# ---------------------------------------------------------------------------

banner("server: explain is lease-free, dead queries refused pre-lease")


async def serve(root: Path):
    server = ReproServer(root / "db", sync="none", create=True)
    await server.start()
    await server.handle({"do": "create", "name": "emp", "attrs": "name dept"})
    await server.handle(
        {"id": 1, "do": "insert", "rel": "emp", "row": ["ann", "sales"]}
    )
    explained = await server.handle(
        {"id": 2, "do": "query", "q": "emp[name]", "explain": True}
    )
    refused = await server.handle(
        {"id": 3, "do": "query", "q": "emp where name = 'x' and name != 'x'"}
    )
    await server.stop()
    return explained, refused


root = Path(tempfile.mkdtemp(prefix="optimize_tour_"))
try:
    explained, refused = asyncio.run(serve(root))
finally:
    shutil.rmtree(root, ignore_errors=True)

assert explained["ok"] and "Project" in explained["plan"]
print("explain reply carries a plan, no lease: True")
assert refused["ok"] is False and "refused by lint" in refused["error"]
assert refused["diagnostics"][0]["code"] == "E_EMPTY_CERTAIN"
print("statically dead query refused before any lease: True")
