"""Differential suite for shared-LHS batched TEST-FDs.

The batched variant's contract has two tiers, and the suite pins both on
randomized instances under both conventions:

* against **per-FD grouping** (bucket grouping FD by FD in input order,
  stopping at the first witness; written out in this file as an
  independent oracle) — full field identity:
  same outcome, same witness (fd, rows, attribute), and the same
  strong-convention :class:`ConventionError` rejection on null-bearing
  left-hand sides.  Per-FD grouping's observable behavior depends on its
  FD-major iteration order, so this is the strictest oracle available.
* against **pairwise** and **sort-merge** — outcome identity only: those
  variants scan in different orders and legitimately surface different
  witnesses for the same violated set, so the cross-variant check is the
  verdict plus the *semantic validity* of whatever witness batched chose
  (the named pair really agrees on X and conflicts on the named Y
  attribute under the convention).

The FD pool is deliberately heavy on shared left-hand sides — the whole
point of the variant is that ``A -> B, A -> C, A -> B C`` collapse to one
grouping — and instances carry shared nulls so NEC classes participate in
the comparisons.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fd import as_fd
from repro.core.values import is_null
from repro.errors import ConventionError
from repro.testfd import (
    CONVENTION_STRONG,
    CONVENTION_WEAK,
    check_fds,
    check_fds_batched,
    check_fds_pairwise,
    check_fds_sortmerge,
    Witness,
    x_equal,
    y_unequal,
)
from repro.testfd import TestFDsOutcome as Outcome  # not a test class
from repro.testfd.conventions import class_function

from ..helpers import rel
from ..strategies import SHARED_LHS_FD_POOL, fd_sets, instances

_CONVENTIONS = (CONVENTION_WEAK, CONVENTION_STRONG)


def _instances(max_rows=6):
    return instances(
        attributes="A B C", max_rows=max_rows, shared_nulls=2,
        allow_nothing=False,
    )


def _fd_lists():
    return fd_sets(pool=SHARED_LHS_FD_POOL, max_size=5)


def check_fds_per_fd(instance, fds, convention=CONVENTION_WEAK):
    """Per-FD bucket grouping, written out here as the oracle (it shares no
    code with ``check_fds_batched``): FD by FD in input order, bucket the
    rows by X-key and compare each row's Y-values with its bucket's
    constant-preferring anchor; answer with the first conflict, and refuse
    a null-bearing LHS under the strong convention on reaching its FD."""
    class_of = class_function(None)
    schema = instance.schema
    for fd in (as_fd(f).normalized() for f in fds):
        if fd.is_trivial():
            continue
        lhs = [schema.position(a) for a in fd.lhs]
        rhs = [(a, schema.position(a)) for a in fd.rhs]
        if convention == CONVENTION_STRONG and any(
            is_null(row.values[c]) for row in instance.rows for c in lhs
        ):
            raise ConventionError("cannot group nulls under the strong convention")
        buckets = {}
        for index, values in enumerate(row.values for row in instance.rows):
            key = tuple(
                ("null", class_of(values[c])) if is_null(values[c])
                else ("const", values[c])
                for c in lhs
            )
            anchors = buckets.get(key)
            if anchors is None:
                buckets[key] = {c: (values[c], index) for _, c in rhs}
                continue
            for attr, c in rhs:
                anchor_value, anchor_index = anchors[c]
                if (
                    convention == CONVENTION_WEAK
                    and is_null(anchor_value)
                    and not is_null(values[c])
                ):
                    anchors[c] = (values[c], index)
                elif y_unequal(convention, anchor_value, values[c], class_of):
                    return Outcome(False, Witness(fd, anchor_index, index, attr))
    return Outcome(True, None)


def _outcome_or_rejection(variant, instance, fds, convention):
    try:
        return variant(instance, fds, convention), False
    except ConventionError:
        return None, True


def assert_witness_valid(instance, convention, witness):
    """The reported pair must actually violate the reported FD."""
    class_of = class_function(None)
    first = instance.rows[witness.first_row]
    second = instance.rows[witness.second_row]
    assert witness.attribute in witness.fd.rhs
    for attr in witness.fd.lhs:
        assert x_equal(convention, first[attr], second[attr], class_of)
    assert y_unequal(
        convention, first[witness.attribute], second[witness.attribute], class_of
    )


# ---------------------------------------------------------------------------
# randomized differential properties
# ---------------------------------------------------------------------------


@given(_instances(), _fd_lists(), st.sampled_from(_CONVENTIONS))
@settings(max_examples=250, deadline=None)
def test_batched_field_identical_to_bucket(instance, fds, convention):
    """Batched over the whole set equals per-FD (bucket) grouping."""
    per_fd, per_fd_rejected = _outcome_or_rejection(
        check_fds_per_fd, instance, fds, convention
    )
    batched, batched_rejected = _outcome_or_rejection(
        check_fds_batched, instance, fds, convention
    )
    assert batched_rejected == per_fd_rejected
    if per_fd_rejected:
        assert convention == CONVENTION_STRONG
        return
    assert batched.satisfied == per_fd.satisfied
    assert batched.witness == per_fd.witness


@given(_instances(), _fd_lists(), st.sampled_from(_CONVENTIONS))
@settings(max_examples=250, deadline=None)
def test_batched_outcome_matches_pairwise_and_sortmerge(instance, fds, convention):
    reference = check_fds_pairwise(instance, fds, convention)
    try:
        outcome = check_fds_batched(instance, fds, convention)
    except ConventionError:
        # batched refuses exactly where sort-merge does: strong convention,
        # null-bearing LHS — where pairwise is the designated fallback
        assert convention == CONVENTION_STRONG
        with pytest.raises(ConventionError):
            check_fds_sortmerge(instance, fds, convention)
        return
    assert outcome.satisfied == reference.satisfied
    try:
        sortmerge = check_fds_sortmerge(instance, fds, convention)
    except ConventionError:
        return
    assert outcome.satisfied == sortmerge.satisfied


@given(_instances(), _fd_lists(), st.sampled_from(_CONVENTIONS))
@settings(max_examples=250, deadline=None)
def test_batched_witness_is_semantically_valid(instance, fds, convention):
    try:
        outcome = check_fds_batched(instance, fds, convention)
    except ConventionError:
        return
    if outcome.satisfied:
        assert outcome.witness is None
    else:
        assert_witness_valid(instance, convention, outcome.witness)


@given(_instances(), _fd_lists())
@settings(max_examples=100, deadline=None)
def test_check_fds_method_batched_dispatch(instance, fds):
    direct = check_fds_batched(instance, fds, CONVENTION_WEAK)
    via_dispatch = check_fds(instance, fds, CONVENTION_WEAK, method="batched")
    assert via_dispatch == direct


# ---------------------------------------------------------------------------
# directed: grouping order, rejection paths
# ---------------------------------------------------------------------------


class TestSharedLhsGrouping:
    def test_first_violated_fd_in_input_order_wins(self):
        # both A -> B and A -> C are violated; per-FD grouping answers
        # with the first FD in input order, and batched must too — even
        # though its single scan discovers the A -> C conflict at the
        # same row
        r = rel("A B C", [("a", "b1", "c1"), ("a", "b2", "c2")])
        outcome = check_fds_batched(r, ["A -> C", "A -> B"])
        assert not outcome.satisfied
        assert outcome.witness.fd.rhs == ("C",)
        assert outcome.witness == check_fds_per_fd(r, ["A -> C", "A -> B"]).witness

    def test_multi_attribute_rhs_names_its_first_conflicting_attribute(self):
        # both B and C conflict on the same row pair: the witness names the
        # first attribute of the right-hand side, as per-FD grouping does
        r = rel("A B C", [("a", "b1", "c1"), ("a", "b2", "c2")])
        outcome = check_fds_batched(r, ["A -> B C"])
        assert outcome.witness.attribute == "B"
        assert outcome.witness == check_fds_per_fd(r, ["A -> B C"]).witness

    def test_later_group_member_still_answered(self):
        # A -> B holds, A -> C is violated: the group scan must have kept
        # the verdict for the second member
        r = rel("A B C", [("a", "b", "c1"), ("a", "b", "c2")])
        outcome = check_fds_batched(r, ["A -> B", "A -> C"])
        assert not outcome.satisfied
        assert outcome.witness.fd.rhs == ("C",)
        assert (outcome.witness.first_row, outcome.witness.second_row) == (0, 1)

    def test_lhs_order_does_not_split_a_group(self):
        # "A B -> C" and "B A -> C" are the same left-hand side as a set
        r = rel("A B C", [("a", "b", "c1"), ("a", "b", "c2")])
        outcome = check_fds_batched(r, ["A B -> C", "B A -> C"])
        assert not outcome.satisfied
        assert outcome.witness.fd.lhs in (("A", "B"), ("B", "A"))

    def test_trivial_fds_skipped(self):
        r = rel("A B", [("-", "-"), ("-", "-")])
        assert check_fds_batched(r, ["A B -> A"], CONVENTION_STRONG).satisfied


class TestRejectionPaths:
    def test_strong_rejects_null_bearing_lhs(self):
        r = rel("A B", [("-", 1), ("a", 2)])
        with pytest.raises(ConventionError):
            check_fds_batched(r, ["A -> B"], CONVENTION_STRONG)

    def test_weak_accepts_null_bearing_lhs(self):
        r = rel("A B", [("-", 1), ("a", 2)])
        assert check_fds_batched(r, ["A -> B"], CONVENTION_WEAK).satisfied

    def test_rejection_loses_to_earlier_violation(self):
        # per-FD grouping checks FDs in order: a violation of the first FD
        # returns before the second FD's null-bearing LHS is ever inspected
        r = rel("A B C", [("a", 1, "-"), ("a", 2, "c")])
        fds = ["A -> B", "C -> B"]
        outcome = check_fds_batched(r, fds, CONVENTION_STRONG)
        assert not outcome.satisfied
        assert outcome.witness == check_fds_per_fd(r, fds, CONVENTION_STRONG).witness

    def test_rejection_beats_later_violation(self):
        # ...but when the null-bearing LHS comes first, the raise wins
        r = rel("A B C", [("a", 1, "-"), ("a", 2, "c")])
        fds = ["C -> B", "A -> B"]
        with pytest.raises(ConventionError):
            check_fds_batched(r, fds, CONVENTION_STRONG)
        with pytest.raises(ConventionError):
            check_fds_per_fd(r, fds, CONVENTION_STRONG)


class TestAutoRouting:
    """``check_fds(method="auto")`` runs batched, and pairwise where the
    grouping is not convention-safe."""

    def test_auto_routes_shared_lhs_to_batched(self):
        r = rel("A B C", [("a", "b1", "c"), ("a", "b2", "c")])
        fds = ["A -> B", "A -> C"]
        auto = check_fds(r, fds, CONVENTION_WEAK, method="auto")
        assert auto == check_fds_batched(r, fds, CONVENTION_WEAK)

    def test_auto_without_shared_lhs_runs_batched(self):
        r = rel("A B C", [("a", "b", "c1"), ("a", "b", "c2")])
        fds = ["A -> B", "B -> C"]
        auto = check_fds(r, fds, CONVENTION_WEAK, method="auto")
        assert auto == check_fds_batched(r, fds, CONVENTION_WEAK)

    def test_auto_strong_with_lhs_nulls_never_raises(self):
        # batched raises ConventionError on the null-bearing LHS; auto
        # must fall back to pairwise
        r = rel("A B C", [("-", "b1", "c"), ("a", "b2", "c")])
        fds = ["A -> B", "A -> C"]
        auto = check_fds(r, fds, CONVENTION_STRONG, method="auto")
        assert auto.satisfied == check_fds_pairwise(
            r, fds, CONVENTION_STRONG
        ).satisfied

    def test_auto_strong_null_free_lhs_routes_to_batched(self):
        r = rel("A B C", [("a", "b1", "-"), ("a", "b2", "c")])
        fds = ["A -> B", "A -> C"]
        auto = check_fds(r, fds, CONVENTION_STRONG, method="auto")
        assert auto == check_fds_batched(r, fds, CONVENTION_STRONG)

    @given(_instances(), _fd_lists(), st.sampled_from(_CONVENTIONS))
    @settings(max_examples=120, deadline=None)
    def test_auto_outcome_matches_pairwise_everywhere(
        self, instance, fds, convention
    ):
        """Whatever route auto picks: same verdict, honest witness, and
        never a ConventionError (the routing predicate must not race the
        grouping variants' rejection)."""
        auto = check_fds(instance, fds, convention, method="auto")
        reference = check_fds_pairwise(instance, fds, convention)
        assert auto.satisfied == reference.satisfied
        if not auto.satisfied:
            assert_witness_valid(instance, convention, auto.witness)

    @given(_instances(), _fd_lists(), st.sampled_from(_CONVENTIONS))
    @settings(max_examples=120, deadline=None)
    def test_auto_is_batched_else_pairwise(self, instance, fds, convention):
        """auto equals batched wherever batched answers, and pairwise
        where batched refuses to group nulls."""
        auto = check_fds(instance, fds, convention, method="auto")
        batched, rejected = _outcome_or_rejection(
            check_fds_batched, instance, fds, convention
        )
        if rejected:
            assert auto == check_fds_pairwise(instance, fds, convention)
        else:
            assert auto == batched
