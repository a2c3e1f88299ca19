"""Tests for the TEST-FDs variants: agreement across variants and the
Theorem 2 / Theorem 3 semantics."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chase import MODE_BASIC, minimally_incomplete
from repro.core.relation import Relation
from repro.core.satisfaction import (
    strongly_satisfied,
    weakly_satisfied,
)
from repro.core.values import null
from repro.errors import ConventionError, NotMinimallyIncompleteError, ReproError
from repro.testfd import (
    CONVENTION_STRONG,
    CONVENTION_WEAK,
    check_fds,
    check_fds_batched,
    check_fds_pairwise,
    check_fds_sortmerge,
    check_single_fd_presorted,
)

from ..helpers import rel, schema_of
from ..strategies import TESTFD_FD_POOL, fd_sets, instances


class TestBasicAnswers:
    def test_clean_instance_passes_both_conventions(self):
        r = rel("A B", [("a", 1), ("b", 2)])
        for convention in (CONVENTION_STRONG, CONVENTION_WEAK):
            assert check_fds(r, ["A -> B"], convention).satisfied

    def test_classical_violation_fails_both(self):
        r = rel("A B", [("a", 1), ("a", 2)])
        for convention in (CONVENTION_STRONG, CONVENTION_WEAK):
            outcome = check_fds(r, ["A -> B"], convention)
            assert not outcome.satisfied
            assert outcome.witness is not None
            assert outcome.witness.attribute == "B"

    def test_null_in_y_fails_strong_passes_weak(self):
        r = rel("A B", [("a", "-"), ("a", 1)])
        assert not check_fds(r, ["A -> B"], CONVENTION_STRONG).satisfied
        assert check_fds(r, ["A -> B"], CONVENTION_WEAK, ensure_minimal=True).satisfied

    def test_trivial_fds_never_fail(self):
        r = rel("A B", [("-", "-"), ("-", "-")])
        assert check_fds(r, ["A B -> A"], CONVENTION_STRONG, method="pairwise").satisfied

    def test_witness_identifies_rows(self):
        r = rel("A B", [("x", 1), ("y", 2), ("x", 3)])
        outcome = check_fds(r, ["A -> B"], CONVENTION_WEAK)
        assert (outcome.witness.first_row, outcome.witness.second_row) == (0, 2)


class TestStrongConventionRouting:
    def test_sortmerge_refuses_lhs_nulls(self):
        r = rel("A B", [("-", 1), ("a", 2)])
        with pytest.raises(ConventionError):
            check_fds_sortmerge(r, ["A -> B"], CONVENTION_STRONG)
        with pytest.raises(ConventionError):
            check_fds_batched(r, ["A -> B"], CONVENTION_STRONG)

    def test_auto_falls_back_to_pairwise(self):
        r = rel("A B", [("-", 1), ("a", 2)])
        outcome = check_fds(r, ["A -> B"], CONVENTION_STRONG, method="auto")
        # null in X matches 'a', Y differs -> not strongly satisfied
        assert not outcome.satisfied

    def test_sortmerge_strong_works_when_lhs_total(self):
        r = rel("A B", [("a", "-"), ("b", 1)])
        assert check_fds_sortmerge(r, ["A -> B"], CONVENTION_STRONG).satisfied

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            check_fds(rel("A", [("a",)]), [], method="quantum")

    @pytest.mark.parametrize("method", ["auto", "sortmerge", "pairwise", "batched"])
    def test_unknown_convention_is_refused_before_dispatch(self, method):
        with pytest.raises(ConventionError, match="bogus"):
            check_fds(rel("A B", [("a", 1)]), ["A -> B"], "bogus", method=method)


class TestTheorem3Preconditions:
    def test_verify_minimal_raises_on_non_minimal(self):
        r = rel("A B", [("a", "-"), ("a", 1)])
        with pytest.raises(NotMinimallyIncompleteError):
            check_fds(r, ["A -> B"], CONVENTION_WEAK, verify_minimal=True)

    def test_ensure_minimal_chases_first(self):
        # non-minimal instance whose chase reveals the inconsistency:
        # section 6's example
        r = rel("A B C", [("a", "-", "c1"), ("a", "-", "c2")])
        fds = ["A -> B", "B -> C"]
        # without chasing, the weak test sees no violation (nulls differ)
        assert check_fds(r, fds, CONVENTION_WEAK).satisfied
        # with the NEC from the chase, it correctly answers no
        assert not check_fds(r, fds, CONVENTION_WEAK, ensure_minimal=True).satisfied
        # matching the brute-force semantics
        assert not weakly_satisfied(fds, r)

    def test_nec_via_shared_nulls_detected(self):
        n = null()
        schema = schema_of("A B C")
        r = Relation(schema, [("a", n, "c1"), ("a2", n, "c2")])
        assert not check_fds(r, ["B -> C"], CONVENTION_WEAK).satisfied

    def test_explicit_null_classes_parameter(self):
        n, m = null(), null()
        schema = schema_of("B C")
        r = Relation(schema, [(n, "c1"), (m, "c2")])
        assert check_fds(r, ["B -> C"], CONVENTION_WEAK).satisfied
        outcome = check_fds(
            r, ["B -> C"], CONVENTION_WEAK, null_classes={n: "k", m: "k"}
        )
        assert not outcome.satisfied


class TestPresortedLinear:
    def test_accepts_sorted(self):
        r = rel("A B", [("a", 1), ("a", 1), ("b", 2)])
        assert check_single_fd_presorted(r, "A -> B").satisfied

    def test_detects_violation(self):
        r = rel("A B", [("a", 1), ("a", 2)])
        assert not check_single_fd_presorted(r, "A -> B").satisfied

    def test_rejects_unsorted(self):
        r = rel("A B", [("b", 1), ("a", 2)])
        with pytest.raises(ReproError):
            check_single_fd_presorted(r, "A -> B")

    def test_same_class_nulls_must_be_adjacent(self):
        n = null()
        schema = schema_of("A B")
        r = Relation(schema, [(n, 1), ("z", 2), (n, 3)])
        with pytest.raises(ReproError):
            check_single_fd_presorted(r, "A -> B")


# ---------------------------------------------------------------------------
# property-based: variant agreement + Theorems 2 and 3
# ---------------------------------------------------------------------------

def _instances(max_rows=5):
    """The shared generator, configured for the TEST-FDs oracles: three
    columns and fresh nulls only (no NOTHING — TEST-FDs refuses it; no
    shared nulls — the completion oracles enumerate independently)."""
    return instances(
        attributes="A B C",
        max_rows=max_rows,
        shared_nulls=0,
        allow_nothing=False,
    )


def _fd_lists():
    return fd_sets(pool=TESTFD_FD_POOL, max_size=3)


@given(
    _instances(),
    _fd_lists(),
    st.sampled_from([CONVENTION_STRONG, CONVENTION_WEAK]),
)
@settings(max_examples=150, deadline=None)
def test_variants_agree(instance, fds, convention):
    """pairwise == sortmerge == batched == auto (wherever defined)."""
    reference = check_fds_pairwise(instance, fds, convention)
    for variant in (check_fds_sortmerge, check_fds_batched, check_fds):
        try:
            outcome = variant(instance, fds, convention)
        except ConventionError:
            assert convention == CONVENTION_STRONG
            continue
        assert outcome.satisfied == reference.satisfied


@given(_instances(max_rows=4), _fd_lists())
@settings(max_examples=100, deadline=None)
def test_theorem2_strong_convention_decides_strong_satisfiability(instance, fds):
    assume(instance.completion_count() <= 20_000)
    outcome = check_fds(instance, fds, CONVENTION_STRONG)
    assert outcome.satisfied == strongly_satisfied(fds, instance)


@given(_instances(max_rows=4), _fd_lists())
@settings(max_examples=100, deadline=None)
def test_theorem3_weak_convention_on_minimal_instances(instance, fds):
    """After the basic chase, the weak-convention test decides weak
    satisfiability (= existence of a satisfying completion)."""
    assume(instance.completion_count() <= 20_000)
    outcome = check_fds(instance, fds, CONVENTION_WEAK, ensure_minimal=True)
    assert outcome.satisfied == weakly_satisfied(fds, instance)


@given(_instances(), _fd_lists())
@settings(max_examples=80, deadline=None)
def test_single_fd_presorted_agrees_after_sorting(instance, fds):
    from repro.core.values import constant_key, is_null

    fd = fds[0]
    from repro.core.fd import as_fd

    lhs = as_fd(fd).lhs
    ordinals = {}

    def key(row):
        out = []
        for attr in lhs:
            v = row[attr]
            if is_null(v):
                out.append((1, ordinals.setdefault(id(v), len(ordinals))))
            else:
                out.append((0,) + constant_key(v))
        return tuple(out)

    ordered = Relation(instance.schema, sorted(instance.rows, key=key))
    expected = check_fds_pairwise(ordered, [fd], CONVENTION_WEAK)
    assert (
        check_single_fd_presorted(ordered, fd).satisfied == expected.satisfied
    )