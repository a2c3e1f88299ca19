"""Failure-injection tests: every error path raises the documented type.

Production users meet the library through its errors as much as through
its results; these tests pin the exception taxonomy of `repro.errors`.
"""

import pytest

from repro.core.domain import Domain
from repro.core.fd import FD
from repro.core.interpretation import evaluate_fd, evaluate_fd_brute
from repro.core.relation import Relation
from repro.core.values import NOTHING, null
from repro.errors import (
    ConventionError,
    DomainError,
    InconsistentInstanceError,
    NotMinimallyIncompleteError,
    NullsNotAllowedError,
    ReproError,
    SchemaError,
)

from ..helpers import rel, schema_of


class TestExceptionTaxonomy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            SchemaError,
            DomainError,
            NullsNotAllowedError,
            ConventionError,
            NotMinimallyIncompleteError,
            InconsistentInstanceError,
        ):
            assert issubclass(exc, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            Domain([])


class TestEvaluationLimits:
    def test_brute_force_limit_enforced(self):
        rows = [tuple(null() for _ in range(2)) for _ in range(10)]
        r = Relation(
            schema_of("A B", {"A": list(range(10)), "B": list(range(10))}),
            rows,
        )
        with pytest.raises(DomainError):
            evaluate_fd_brute("A -> B", r[0], r, limit=100)

    def test_auto_limit_enforced_on_rest_enumeration(self):
        rows = [("x", null())] + [
            (null(), null()) for _ in range(9)
        ]
        r = Relation(
            schema_of("A B", {"A": list(range(10)), "B": list(range(10))}),
            rows,
        )
        with pytest.raises(DomainError):
            evaluate_fd("A -> B", r[0], r, limit=100)


class TestTestFdsErrors:
    def test_nothing_in_instance_rejected(self):
        from repro.testfd import CONVENTION_WEAK, check_fds

        r = Relation(schema_of("A B"), [("a", NOTHING)])
        with pytest.raises(InconsistentInstanceError):
            check_fds(r, ["A -> B"], CONVENTION_WEAK, method="pairwise")

    def test_strong_sortmerge_convention_error_is_catchable_as_base(self):
        from repro.testfd import CONVENTION_STRONG, check_fds_sortmerge

        r = rel("A B", [("-", 1)])
        with pytest.raises(ReproError):
            check_fds_sortmerge(r, ["A -> B"], CONVENTION_STRONG)


class TestSchemaMisuse:
    def test_fd_validate_against_schema(self):
        schema = schema_of("A B")
        with pytest.raises(SchemaError):
            FD("A", "Z").validate(schema)

    def test_chase_validates_fds(self):
        from repro.chase import chase

        r = rel("A B", [("a", 1)])
        with pytest.raises(SchemaError):
            chase(r, ["A -> Z"])

    def test_guarded_relation_validates_fds(self):
        from repro.updates import GuardedRelation

        with pytest.raises(SchemaError):
            GuardedRelation(schema_of("A B"), ["A -> Z"])

    def test_incremental_chase_arity(self):
        from repro.chase import ChaseSession

        session = ChaseSession(schema_of("A B"), ["A -> B"])
        with pytest.raises(SchemaError):
            session.insert(("only-one",))
