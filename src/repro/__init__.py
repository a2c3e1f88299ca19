"""repro — Functional Dependencies and Incomplete Information.

A complete, from-scratch reproduction of Yannis Vassiliou's VLDB 1980 paper
"Functional Dependencies and Incomplete Information": the three-valued FD
interpretation over relations with nulls (Proposition 1), strong and weak
satisfiability, the System-C equivalence and Armstrong completeness
(Theorem 1), the NS-rule chase with null-equality constraints and its
Church-Rosser extension (Theorem 4), and the TEST-FDs algorithm family
(Figure 3, Theorems 2-3) — plus the classical FD-theory and normalization
substrate the paper builds on.

Quick tour::

    from repro import (
        Domain, FD, FDSet, Relation, RelationSchema, null,
        evaluate_fd, strongly_holds, weakly_satisfied,
        minimally_incomplete, check_fds, ChaseSession,
    )

    schema = RelationSchema("R", "A B C", domains={"A": Domain(["a1", "a2"])})
    r = Relation(schema, [(null(), "b1", "c1"), ("a1", "b1", "c2"),
                          ("a2", "b1", "c3")])
    evaluate_fd("A B -> C", r[0], r)     # -> false   (Figure 2, case F2)

    session = ChaseSession(schema, ["A -> B"])   # stateful: maintains the
    session.insert(("a1", null(), "c1"))         # Theorem-4 fixpoint across
    session.insert(("a1", "b1", "c2"))           # inserts/deletes/updates
    session.result().relation                    # null grounded to "b1"

    from repro import Database                   # durable: the same session
    db = Database.open("/var/lib/fds")           # behind a write-ahead op
    db.create("r", schema, ["A -> B"])           # log with crash recovery
    db["r"].insert(("a1", null(), "c1"))         # journalled, then applied

See ``README.md`` for the system tour, ``ROADMAP.md`` for the growth plan,
and ``benchmarks/`` for the per-figure experiment series.
"""

from .core import (
    FALSE,
    FD,
    FDSet,
    NOTHING,
    TRUE,
    UNKNOWN,
    Domain,
    Null,
    Proposition1Result,
    Relation,
    RelationSchema,
    Row,
    TruthValue,
    UNBOUNDED,
    as_fd,
    evaluate_fd,
    evaluate_fd_brute,
    fd_value_profile,
    holds_classical,
    is_null,
    lub,
    null,
    proposition1_case,
    satisfying_completion,
    strongly_holds,
    strongly_satisfied,
    weakly_holds,
    weakly_holds_each,
    weakly_satisfied,
)
from .errors import (
    ConventionError,
    DomainError,
    InconsistentInstanceError,
    NotMinimallyIncompleteError,
    NullsNotAllowedError,
    ReproError,
    SchemaError,
)
from .chase import ChaseSession, minimally_incomplete, weakly_satisfiable
from .db import Database
from .explain import explain_chase, explain_fd_value
from .testfd import check_fds
from .updates import GuardedRelation

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core data model
    "Domain",
    "UNBOUNDED",
    "FD",
    "FDSet",
    "NOTHING",
    "Null",
    "Relation",
    "RelationSchema",
    "Row",
    "null",
    "is_null",
    # truth values
    "TRUE",
    "FALSE",
    "UNKNOWN",
    "TruthValue",
    "lub",
    # interpretation + satisfaction
    "as_fd",
    "evaluate_fd",
    "evaluate_fd_brute",
    "proposition1_case",
    "Proposition1Result",
    "fd_value_profile",
    "holds_classical",
    "strongly_holds",
    "strongly_satisfied",
    "weakly_holds",
    "weakly_holds_each",
    "weakly_satisfied",
    "satisfying_completion",
    # errors
    "ReproError",
    "SchemaError",
    "DomainError",
    "NullsNotAllowedError",
    "ConventionError",
    "NotMinimallyIncompleteError",
    "InconsistentInstanceError",
    # the higher layers
    "minimally_incomplete",
    "weakly_satisfiable",
    "check_fds",
    "ChaseSession",
    "GuardedRelation",
    "Database",
    "explain_chase",
    "explain_fd_value",
]
