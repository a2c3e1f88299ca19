"""The TEST-FDs algorithm family (Figure 3, Theorems 2-3).

High-level entry point::

    from repro.testfd import check_fds

    check_fds(r, fds, convention="strong")   # Theorem 2
    check_fds(r, fds, convention="weak", ensure_minimal=True)   # Theorem 3

``convention="strong"`` decides *strong* satisfiability on arbitrary
instances.  ``convention="weak"`` decides *weak* satisfiability **provided
the instance is minimally incomplete** (Theorem 3's precondition);
``ensure_minimal=True`` chases with the basic NS-rules first,
``verify_minimal=True`` instead raises when the precondition fails.

The variants, next to the paper's algorithms:

* :func:`check_fds_sortmerge` — Figure 3 as written, ``O(|F|·n log n)``;
* :func:`check_fds_pairwise` — the footnote's ``O(|F|·n²)`` variant, and
  the general procedure under the strong convention (nulls on a
  left-hand side cannot be grouped or sorted);
* :func:`check_single_fd_presorted` — the linear special case (one FD,
  input already sorted);
* :func:`check_fds_batched` — the production path: the "Additional
  Assumptions" hash grouping, one grouping per distinct left-hand side.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, Optional

from ..core.fd import FDInput
from ..core.relation import Relation
from ..core.values import Null
from ..errors import ConventionError, NotMinimallyIncompleteError
from .batched import check_fds_batched
from .conventions import (
    CONVENTION_STRONG,
    CONVENTION_WEAK,
    class_function,
    x_equal,
    y_unequal,
)
from .pairwise import CheckAnswer, TestFDsOutcome, Witness, check_fds_pairwise
from .sortmerge import check_fds_sortmerge, check_single_fd_presorted

#: the ``method=`` vocabulary of :func:`check_fds`
TESTFD_METHODS = ("auto", "sortmerge", "pairwise", "batched")

__all__ = [
    "CONVENTION_STRONG",
    "CONVENTION_WEAK",
    "CheckAnswer",
    "TESTFD_METHODS",
    "TestFDsOutcome",
    "Witness",
    "check_fds",
    "check_fds_batched",
    "check_fds_pairwise",
    "check_fds_sortmerge",
    "check_single_fd_presorted",
    "class_function",
    "x_equal",
    "y_unequal",
]


def check_fds(
    relation: Relation,
    fds: Iterable[FDInput],
    convention: str = CONVENTION_WEAK,
    method: str = "auto",
    null_classes: Optional[Mapping[Null, Any]] = None,
    ensure_minimal: bool = False,
    verify_minimal: bool = False,
) -> TestFDsOutcome:
    """Run TEST-FDs with the requested convention and method.

    ``method``: ``"sortmerge"`` (Figure 3), ``"pairwise"`` (the footnote's
    O(n²) variant), ``"batched"`` (hash grouping, one grouping per distinct
    X deciding every ``X -> Y_i``), or ``"auto"``.

    ``"auto"`` runs ``batched`` and falls back to ``pairwise`` when the
    grouping is not convention-safe — the strong convention with nulls on
    a left-hand side, where ``batched`` raises
    :class:`~repro.errors.ConventionError`.  Every route keeps the
    witness contract: a *no* answer carries an honest violating pair
    under the convention's comparisons (the variants may differ in
    *which* honest pair they report; callers that need a specific
    variant's witness should name the method).

    For the weak convention, Theorem 3 requires a minimally incomplete
    instance; ``ensure_minimal=True`` chases first (basic NS-rules; the
    chase's NECs are carried into the comparisons automatically because its
    output shares one ``Null`` object per class).

    Any ``convention`` but ``"weak"`` and ``"strong"`` raises
    :class:`~repro.errors.ConventionError` before anything runs.
    """
    if convention not in (CONVENTION_WEAK, CONVENTION_STRONG):
        raise ConventionError(
            f"unknown convention {convention!r}; conventions: "
            f"{CONVENTION_WEAK}, {CONVENTION_STRONG}"
        )
    fd_list = list(fds)
    if convention == CONVENTION_WEAK and ensure_minimal:
        from ..chase import MODE_BASIC, minimally_incomplete

        result = minimally_incomplete(relation, fd_list, mode=MODE_BASIC)
        relation = result.relation
    elif convention == CONVENTION_WEAK and verify_minimal:
        from ..chase import is_minimally_incomplete

        if not is_minimally_incomplete(relation, fd_list):
            raise NotMinimallyIncompleteError(
                "Theorem 3 requires a minimally incomplete instance; pass "
                "ensure_minimal=True to chase first"
            )

    if method == "auto":
        try:
            return check_fds_batched(relation, fd_list, convention, null_classes)
        except ConventionError:
            return check_fds_pairwise(relation, fd_list, convention, null_classes)
    if method == "sortmerge":
        return check_fds_sortmerge(relation, fd_list, convention, null_classes)
    if method == "pairwise":
        return check_fds_pairwise(relation, fd_list, convention, null_classes)
    if method == "batched":
        return check_fds_batched(relation, fd_list, convention, null_classes)
    raise ValueError(f"unknown TEST-FDs method {method!r}")
