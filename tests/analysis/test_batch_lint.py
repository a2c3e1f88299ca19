"""Static admission checks for server mutation batches.

The batch linter speaks the wire vocabulary of
:mod:`repro.server.protocol` — request objects with codec-shaped cell
tokens — and its diagnostics use 0-based request positions as ``line``.
"""

from repro.analysis import BATCH_VERBS, has_errors, lint_requests
from repro.chase.session import ChaseSession
from repro.core.schema import Domain, RelationSchema
from repro.core.values import null
from repro.server import protocol

SCHEMA = RelationSchema("R", "A B C")
FDS = ["A -> B"]


def seeded(rows, snapshots=0):
    """The session a batch meets: over ``rows``, holding ``snapshots``
    outstanding snapshots."""
    session = ChaseSession(SCHEMA, FDS, rows)
    for _ in range(snapshots):
        session.snapshot()
    return session


def codes(requests, **kwargs):
    return [
        (d.code, d.line)
        for d in lint_requests(SCHEMA, FDS, requests, **kwargs)
    ]


class TestVerbSetPin:
    def test_batch_verbs_track_the_protocol_exactly(self):
        # BATCH_VERBS is duplicated so repro.analysis never imports the
        # server; this pin is what keeps the copies honest
        assert BATCH_VERBS == protocol.MUTATION_VERBS


class TestCleanBatches:
    def test_insert_update_fill_sequence(self):
        requests = [
            {"do": "insert", "row": ["a1", {"n": None}, "c1"]},
            {"do": "insert", "row": ["a2", "b2", "c2"]},
            {"do": "update", "index": 1, "set": {"C": "c9"}},
            {"do": "fill", "index": 0, "attr": "B", "value": "b1"},
            {"do": "delete", "index": 0},
        ]
        assert lint_requests(SCHEMA, FDS, requests) == []

    def test_batch_relative_index_bounds(self):
        # index 1 only exists because the batch's op 0 inserts it —
        # admission-time bounds track the batch's own net effect
        requests = [
            {"do": "insert", "row": ["a1", "b1", "c1"]},
            {"do": "delete", "index": 0},
        ]
        assert lint_requests(SCHEMA, FDS, requests, target=seeded([])) == []

    def test_live_rows_seed_the_baseline(self):
        requests = [{"do": "delete", "index": 1}]
        assert codes(requests, target=seeded([["a", "b", "c"], ["d", "e", "f"]])) == []
        assert codes(requests, target=seeded([["a", "b", "c"]])) == [("E_BAD_INDEX", 0)]


class TestBatchDiagnostics:
    def test_unknown_verb(self):
        assert codes([{"do": "levitate"}]) == [("E_UNKNOWN_VERB", 0)]

    def test_non_object_request(self):
        assert codes(["insert"]) == [("E_BAD_REQUEST", 0)]

    def test_bad_cell_token(self):
        assert codes([{"do": "insert", "row": ["a", {"x": 1}, "c"]}]) == [
            ("E_BAD_CELL", 0)
        ]

    def test_non_scalar_constant_is_a_static_error(self):
        # decode is lenient about {"v": ...} payloads, but the journal
        # record the op writes would fail to encode — so lint refuses it
        assert codes(
            [{"do": "insert", "row": ["a", {"v": [1, 2]}, "c"]}]
        ) == [("E_BAD_CELL", 0)]

    def test_unknown_null_id(self):
        requests = [{"do": "insert", "row": ["a", {"n": "x99"}, "c"]}]
        assert codes(requests, known_null=lambda name: False) == [
            ("E_UNKNOWN_NULL", 0)
        ]
        assert codes(requests, known_null=lambda name: True) == []

    def test_named_null_shared_twice_is_one_unknown(self):
        # both rows hold the same unknown in B; A -> B cannot conflict
        requests = [
            {"do": "insert", "row": ["a1", {"n": "x0"}, "c1"]},
            {"do": "insert", "row": ["a2", {"n": "x0"}, "c2"]},
        ]
        assert lint_requests(SCHEMA, FDS, requests) == []

    def test_arity_and_domain(self):
        schema = RelationSchema(
            "R", "A B C", domains={"B": Domain(["x", "y"], name="B")}
        )
        out = lint_requests(
            schema,
            FDS,
            [
                {"do": "insert", "row": ["a", "x"]},
                {"do": "insert", "row": ["a", "z", "c"]},
            ],
        )
        assert [(d.code, d.line) for d in out] == [
            ("E_ARITY", 0),
            ("E_DOMAIN", 1),
        ]

    def test_fd_conflict_is_a_warning_not_a_refusal(self):
        requests = [
            {"do": "insert", "row": ["a", "b1", "c"]},
            {"do": "insert", "row": ["a", "b2", "c"]},
        ]
        diagnostics = lint_requests(SCHEMA, FDS, requests)
        assert [d.code for d in diagnostics] == ["E_FD_CONFLICT"]
        assert not has_errors(diagnostics)

    def test_rollback_underflow_and_snapshot_depth(self):
        assert codes([{"do": "rollback"}]) == [("E_ROLLBACK_UNDERFLOW", 0)]
        assert codes([{"do": "rollback"}], target=seeded([], snapshots=1)) == []

    def test_fill_on_constant(self):
        requests = [{"do": "fill", "index": 0, "attr": "B", "value": "b9"}]
        assert codes(requests, target=seeded([["a", "b", "c"]])) == [("E_FILL_CONST", 0)]

    def test_fill_on_live_null_is_clean(self):
        requests = [{"do": "fill", "index": 0, "attr": "B", "value": "b9"}]
        assert codes(requests, target=seeded([["a", null(), "c"]])) == []
