"""The invariant sanitizer: green on healthy engines, loud on tampering.

Each tampering test corrupts exactly one mirror/discipline the audits
cover and asserts a :class:`SanitizerError` naming that structure — the
sanitizer's precision is the point: a violation report must say *which*
invariant broke, not just "something is off".
"""

import pytest

from repro.analysis import audit_core, audit_relation, audit_session
from repro.analysis import sanitize
from repro.analysis.sanitize import enabled
from repro.chase import chase
from repro.chase.session import ChaseSession
from repro.chase.vector import VectorChaseState
from repro.core.relation import Relation
from repro.core.schema import RelationSchema
from repro.core.values import null
from repro.errors import SanitizerError

SCHEMA = RelationSchema("R", "A B C")
FDS = ["A -> B", "B -> C"]


def healthy_session(**kwargs):
    session = ChaseSession(SCHEMA, FDS, **kwargs)
    session.insert(("a1", null(), "c1"))
    session.insert(("a1", "b1", null()))
    session.insert(("a2", "b2", "c2"))
    session.delete(1)
    session.fill(0, "B", "b7")
    return session


def healthy_vector_state():
    relation = Relation(
        SCHEMA, [("a1", null(), "c1"), ("a1", "b1", null()), ("a2", "b2", "c2")]
    )
    state = VectorChaseState(relation, FDS)
    state.run_vectorized()
    return state


class TestEnvironmentFlag:
    def test_enabled_reads_the_flag(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert not enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "0")
        assert not enabled()
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert enabled()

    def test_constructor_flag_overrides_environment(self, monkeypatch):
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        assert ChaseSession(SCHEMA, FDS, sanitize=True)._sanitize
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        assert not ChaseSession(SCHEMA, FDS, sanitize=False)._sanitize


class TestHealthyStates:
    def test_session_audits_clean_after_every_op_kind(self):
        session = healthy_session()
        audit_session(session)
        session.update(0, {"C": "c9"})
        audit_session(session)
        snap = session.snapshot()
        session.insert(("a9", "b9", "c9"))
        session.rollback(snap)
        audit_session(session)
        session.adopt()
        session.compact()
        audit_session(session)

    def test_poisoned_session_still_audits_clean(self):
        session = ChaseSession(SCHEMA, ["A -> B"], sanitize=True)
        session.insert(("a", "b1", "c"))
        session.insert(("a", "b2", "c"))  # conflict: poisons, never corrupts
        assert session.has_nothing
        audit_session(session)

    def test_sanitizing_session_self_audits_on_mutators(self):
        # the decorator path: every public op sweeps without raising
        healthy_session(sanitize=True)

    def test_audit_core_accepts_a_quiescent_session(self):
        audit_core(healthy_session())

    def test_batch_chase_self_audits_at_its_fixpoint(self, monkeypatch):
        # under the flag, the vector engine behind chase() audits its
        # own fixpoint — root arrays included — and it is clean
        audited = []
        real_audit = sanitize.audit_core

        def recording_audit(core):
            audited.append(core)
            real_audit(core)

        monkeypatch.setattr(sanitize, "audit_core", recording_audit)
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        relation = Relation(SCHEMA, [("a1", null(), "c1"), ("a1", "b1", "c2")])
        assert chase(relation, FDS).has_nothing
        assert [type(core) for core in audited] == [VectorChaseState]


class TestTamperingDetection:
    def test_occurrence_index_mismatch(self):
        session = healthy_session()
        root = next(iter(session._occ))
        session._occ[root] = session._occ[root] + [(999, 0)]
        with pytest.raises(SanitizerError, match="occ"):
            audit_session(session)

    def test_members_sigs_mirror_break(self):
        session = healthy_session()
        key = next(iter(session._members))
        bucket = session._members[key]
        bucket[4242] = True
        with pytest.raises(SanitizerError, match="bucket"):
            audit_session(session)

    def test_signature_drift(self):
        session = healthy_session()
        key = next(iter(session._sigs))
        session._sigs[key] = ("no", "such", "signature")
        with pytest.raises(SanitizerError):
            audit_session(session)

    def test_tag_on_a_non_root(self):
        session = healthy_session()
        dead = object()
        session.tags[len(session.uf.parent) + 10] = ("const", dead)
        with pytest.raises(SanitizerError, match="tags"):
            audit_session(session)

    def test_weight_below_occurrence_count(self):
        session = healthy_session()
        root = max(session._occ, key=lambda r: len(session._occ[r]))
        session.uf.weight[root] = 0
        with pytest.raises(SanitizerError, match="weight"):
            audit_session(session)

    def test_root_array_drift(self):
        state = healthy_vector_state()
        audit_core(state)
        state._roots[0][0] = state._roots[0][2]  # row 0's A is not a2
        with pytest.raises(SanitizerError, match="root-arrays"):
            audit_core(state)

    def test_slot_table_break(self):
        session = healthy_session()
        session._slots[0] = session._slots[1]  # injectivity gone
        with pytest.raises(SanitizerError, match="slot"):
            audit_session(session)

    def test_trail_identity_break(self):
        session = healthy_session()
        session.uf.trail = []  # journal detached from the session's trail
        with pytest.raises(SanitizerError, match="trail"):
            audit_session(session)

    def test_null_registry_leak(self):
        session = healthy_session()
        ghost = null()
        session._null_nodes[id(ghost)] = 0
        session._null_objects[id(ghost)] = ghost
        with pytest.raises(SanitizerError, match="null"):
            audit_session(session)

    def test_raw_constant_tag_drift(self):
        session = healthy_session()
        slot = session._slots[0]
        node = session.cells[slot][0]
        root = session.uf.find(node)
        session.tags[root] = ("const", "someone-else")
        with pytest.raises(SanitizerError):
            audit_session(session)


class TestRelationAudits:
    def test_durable_relation_audits_clean_through_its_lifecycle(self, tmp_path):
        from repro.db import Database

        with Database.open(tmp_path / "db", sync="flush", create=True) as db:
            relation = db.create("r", "A B C", FDS)
            relation.insert(("a1", null(), "c1"))
            relation.insert(("a2", "b2", "c2"))
            audit_relation(relation)
            db.audit()
            # regression: scan() returns (records, good_bytes, TORN) — an
            # early sanitizer read the third element inverted and failed
            # every audit of a freshly-truncated (empty, clean) log
            relation.checkpoint()
            audit_relation(relation)
            relation.fill(0, "B", "b9")
            audit_relation(relation)

    def test_wal_seq_drift_detected(self, tmp_path):
        from repro.db import Database

        with Database.open(tmp_path / "db", sync="flush", create=True) as db:
            relation = db.create("r", "A B C", FDS)
            relation.insert(("a1", "b1", "c1"))
            relation._seq += 1  # counter ahead of the journal
            with pytest.raises(SanitizerError, match="wal"):
                audit_relation(relation)

    def test_torn_wal_tail_detected(self, tmp_path):
        from repro.db import Database

        with Database.open(tmp_path / "db", sync="flush", create=True) as db:
            relation = db.create("r", "A B C", FDS)
            relation.insert(("a1", "b1", "c1"))
            with open(relation.wal.path, "ab") as handle:
                handle.write(b'{"seq": 2, "op"')  # mid-append torn record
            with pytest.raises(SanitizerError, match="torn"):
                audit_relation(relation)

    def test_recovery_audits_when_flag_set(self, tmp_path, monkeypatch):
        from repro.db import Database

        with Database.open(tmp_path / "db", sync="flush", create=True) as db:
            relation = db.create("r", "A B C", FDS)
            relation.insert(("a1", null(), "c1"))
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        with Database.open(tmp_path / "db", sync="flush") as db:
            assert len(db.relation("r")) == 1


class TestEvaluatorAudit:
    """The query-layer audit: ``REPRO_SANITIZE=1`` sweeps every
    finished :meth:`Evaluator.run`, and each tampering probe violates
    exactly one output invariant."""

    def evaluator_parts(self):
        from repro.analysis import audit_evaluator
        from repro.query import Evaluator, parse_query

        from ..helpers import rel

        x = null()
        env = {
            "r": rel("A B", [["a1", x], ["a2", "b1"]],
                     domains={"B": ["b1", "b2"]}),
        }
        evaluator = Evaluator(env)
        node = parse_query("r where B = 'b1'")
        result = evaluator.run(node)
        attrs = result.attributes
        crows = evaluator._eval(node)[1]
        certain = [tuple(row) for row in result.certain.rows]
        maybe = [tuple(row) for row in result.maybe.rows]
        return audit_evaluator, evaluator, attrs, crows, certain, maybe

    def test_healthy_run_audits_clean(self):
        audit, evaluator, attrs, crows, certain, maybe = (
            self.evaluator_parts()
        )
        audit(evaluator, attrs, crows, certain, maybe)

    def test_sanitizing_run_self_audits(self, monkeypatch):
        from repro.query import Evaluator, parse_query

        from ..helpers import rel

        monkeypatch.setenv("REPRO_SANITIZE", "1")
        env = {"r": rel("A B", [["a1", null()]], domains={"B": ["b1"]})}
        result = Evaluator(env).run(parse_query("r where B = 'b1'"))
        assert len(result.certain.rows) == 1

    def test_duplicate_row_key_detected(self):
        audit, evaluator, attrs, crows, certain, maybe = (
            self.evaluator_parts()
        )
        with pytest.raises(SanitizerError, match="duplicate"):
            audit(evaluator, attrs, crows + [crows[0]], certain, maybe)

    def test_arity_drift_detected(self):
        audit, evaluator, attrs, crows, certain, maybe = (
            self.evaluator_parts()
        )
        with pytest.raises(SanitizerError, match="arity"):
            audit(evaluator, attrs + ("Z",), crows, certain, maybe)

    def test_certain_maybe_overlap_detected(self):
        audit, evaluator, attrs, crows, certain, maybe = (
            self.evaluator_parts()
        )
        assert maybe, "the probe needs a maybe row to duplicate"
        with pytest.raises(SanitizerError, match="both certain and maybe"):
            audit(evaluator, attrs, crows, certain + [maybe[0]], maybe)

    def test_answer_row_outside_the_table_detected(self):
        audit, evaluator, attrs, crows, certain, maybe = (
            self.evaluator_parts()
        )
        with pytest.raises(SanitizerError, match="missing from"):
            audit(
                evaluator, attrs, crows, certain + [("zz", "zz")], maybe
            )

    def test_unregistered_null_in_a_condition_detected(self):
        from repro.nullsem.queries import Eq, resolve
        from repro.query.evaluate import CRow

        audit, evaluator, attrs, crows, certain, maybe = (
            self.evaluator_parts()
        )
        stranger = null()
        cond = resolve(Eq("B", "b1"), {"B": 1}, ("a9", stranger))
        tampered = crows + [CRow(("a9", stranger), cond)]
        with pytest.raises(SanitizerError, match="unregistered null"):
            audit(evaluator, attrs, tampered, certain, maybe)

    def test_drifted_kleene_value_detected(self):
        from repro.core.truth import TRUE, UNKNOWN
        from repro.query.evaluate import CRow

        audit, evaluator, attrs, crows, certain, maybe = (
            self.evaluator_parts()
        )
        unknown = next(crow for crow in crows if crow.truth is UNKNOWN)
        drifted = [
            CRow(crow.values, crow.cond, TRUE) if crow is unknown else crow
            for crow in crows
        ]
        with pytest.raises(SanitizerError, match="Kleene value"):
            audit(evaluator, attrs, drifted, certain, maybe)
