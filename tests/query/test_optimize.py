"""The static analysis and the hash join.

* exact-order pinning for the hash join — bucket routing is a pure
  iteration-order refactor of the nested loop, so the two must produce
  field-identical rows *in the same order*;
* verdict soundness — the satisfiability checks behind
  ``E_EMPTY_CERTAIN`` never brand a satisfiable select dead;
* inference — FD keys propagate, and ``EXPLAIN`` renders the tree as
  written (README's example, as a full-text golden).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import Domain, FDSet, Relation, RelationSchema
from repro.core.values import is_null, null
from repro.query import (
    Evaluator,
    MODE_KLEENE,
    MODE_LEAST,
    QueryError,
    collect_stats,
    optimize_tree,
    parse_query,
)

from ..helpers import rel

DOM = ["a", "b"]
MODES = (MODE_KLEENE, MODE_LEAST)


def analysis_of(env, query, mode=MODE_LEAST, fds=None):
    """The analyzed tree of ``query`` over ``env``, with its stats."""
    catalog = {name: relation.schema for name, relation in env.items()}
    return optimize_tree(
        parse_query(query), catalog, stats=collect_stats(env), fds=fds,
        mode=mode,
    )


# ---------------------------------------------------------------------------
# hash join: exact-order identity with the nested loop
# ---------------------------------------------------------------------------


class TestHashJoinOrder:
    def pin_order(self, env, query):
        node = parse_query(query)
        for mode in MODES:
            nested = Evaluator(env, hash_joins=False).run(node, mode=mode)
            bucketed = Evaluator(env, hash_joins=True).run(node, mode=mode)
            for which in ("certain", "maybe"):
                left = getattr(nested, which).rows
                right = getattr(bucketed, which).rows
                assert len(left) == len(right), (mode, which)
                for lrow, rrow in zip(left, right):
                    for lv, rv in zip(lrow, rrow):
                        if is_null(lv) or is_null(rv):
                            assert lv is rv, (mode, which)
                        else:
                            assert lv == rv, (mode, which)

    def test_constants_and_wildcards_interleave_identically(self):
        x, y = null(), null()
        env = {
            "r": rel("A B", [["a", "p"], ["b", x], ["a", "q"]],
                     domains={"B": ["p", "q"]}),
            "s": rel("B C", [["p", "c1"], [y, "c2"], ["q", "c3"],
                             ["p", "c4"]],
                     domains={"B": ["p", "q"]}),
        }
        self.pin_order(env, "r join s")

    def test_shared_null_across_sides_stays_identical(self):
        x = null()
        env = {
            "r": rel("A B", [["a", x]], domains={"B": ["p", "q"]}),
            "s": rel("B C", [[x, "c1"], ["p", "c2"]],
                     domains={"B": ["p", "q"]}),
        }
        self.pin_order(env, "r join s")

    def test_no_shared_attributes_falls_back_to_nested_loop(self):
        env = {
            "r": rel("A B", [["a", "p"], ["b", "q"]]),
            "s": rel("C D", [["c", "d"], ["e", "f"]]),
        }
        self.pin_order(env, "r join s")


# ---------------------------------------------------------------------------
# the two soundness regressions (open pools, shared sentinels)
# ---------------------------------------------------------------------------


class TestVerdictSoundness:
    def test_empty_relation_without_domains_is_not_unsatisfiable(self):
        """An instance that happens to be empty must not brand selects
        over it statically dead: the pool's fresh symbols are equality
        surrogates, not a closed value set."""
        env = {"r": rel("A B", [])}
        info = analysis_of(env, "r where B = 'b1' [A]")
        assert not info.facts.empty
        assert not info.children[0].facts.empty

    def test_attribute_equality_is_satisfiable(self):
        """`A = B` needs sentinels shared across attributes — private
        per-attribute sentinels would brand it a contradiction."""
        x = null()
        env = {"r": rel("A B", [[x, x]],
                        domains={"A": DOM, "B": DOM})}
        node = parse_query("r where A = B")
        assert not analysis_of(env, "r where A = B").facts.empty
        for mode in MODES:
            result = Evaluator(env).run(node, mode=mode)
            assert len(result.certain.rows) == 1, mode

    def test_contradiction_against_declared_domain_is_static(self):
        env = {"r": rel("A B", [["a1", "b1"]],
                        domains={"B": ["b1", "b2"]})}
        assert analysis_of(env, "r where B = 'b3'").facts.empty


# ---------------------------------------------------------------------------
# inference: keys, explain
# ---------------------------------------------------------------------------

README_EXPLAIN = """\
Select boss = 'dana' rows<=4 keys=(name) ground<=2
  Join strategy=bucket(dept) rows<=4 keys=(name) ground<=2
    Scan emp rows<=2 nullable=dept keys=(name)
    Scan mgr rows<=2 keys=(dept)"""


class TestInference:
    def test_fd_keys_propagate_to_the_plan(self):
        env = {"r": rel("A B", [["a1", "b1"], ["a2", "b1"]])}
        info = analysis_of(env, "r", fds={"r": ("A -> B",)})
        assert ("A",) in info.keys

    def test_explain_renders_strategy_keys_and_rewrites(self):
        """README's example, full text: the tree as written (the select
        stays above the join, and no rewrite is applied or listed)."""
        dept = Domain(["sales", "eng"], name="dept")
        emp = Relation(
            RelationSchema("emp", "name dept", domains={"dept": dept}),
            [["ann", "sales"], ["bob", null()]],
        )
        mgr = Relation(
            RelationSchema("mgr", "dept boss", domains={"dept": dept}),
            [["sales", "dana"], ["eng", "eve"]],
        )
        fds = {
            "emp": tuple(FDSet.parse("name -> dept")),
            "mgr": tuple(FDSet.parse("dept -> boss")),
        }
        evaluator = Evaluator({"emp": emp, "mgr": mgr}, fds=fds)
        text = evaluator.explain(
            parse_query("(emp join mgr) where boss = 'dana'"), mode=MODE_LEAST
        )
        assert text == README_EXPLAIN
        readme = Path(__file__).resolve().parents[2] / "README.md"
        assert README_EXPLAIN in readme.read_text(encoding="utf-8")

    def test_explain_checks_the_schema_first(self):
        env = {"r": rel("A B", [])}
        with pytest.raises(QueryError):
            Evaluator(env).explain(parse_query("r [Z]"))
