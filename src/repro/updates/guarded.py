"""Modification operations under weak consistency (section 7's programme).

The paper closes with: "more research is needed on the semantics of the
ways a database acquires information.  This acquisition may be internal
(non-ambiguous substitution of nulls), or external (modification
operations by the users)" — pointing at [Graham and Vassiliou 80].  This
module implements that programme on top of the machinery the paper *did*
pin down:

* **admission** — an external modification is accepted iff the resulting
  instance stays (weakly or strongly, per policy) satisfiable; weak
  admission is decided by the chase (Theorem 4(b)), strong admission by
  TEST-FDs under the strong convention (Theorem 2);
* **internal acquisition** — after an accepted change, the NS-rules may
  ground nulls or link them with NECs; ``propagate=True`` adopts the
  minimally incomplete instance, so the database only ever stores forced,
  never guessed, information;
* **grounding** — a user may :meth:`GuardedRelation.fill` a null with a
  concrete value; the fill is admitted iff it is consistent with every
  substitution the constraints force.

Deletions are always admitted: removing a tuple removes constraints, and
both satisfiability notions are preserved under subsets (each surviving
tuple's completions only lose potential violators) — asserted in tests
rather than trusted.

The guard runs on a private :class:`repro.chase.ChaseSession`, and
speaks to it in the op records every other surface speaks: each
modification is one record (``("insert", row)``, ``("delete", i)``,
``("update", i, changes)``, ``("fill", i, attr, value)``) applied by
:func:`repro.opschema.apply_op` between a ``snapshot()`` and either a
``rollback()`` (inadmissible) or a ``discard_snapshots()`` (admitted).
The verdict reads the session as it stands: weak admission is its live
``has_nothing`` (Theorem 4(b)); strong admission is TEST-FDs under the
strong convention (Theorem 2) on its raw rows, the instance as stored,
nulls unresolved.  An inadmissible change is un-happened through the
session's backtrackable trail, so a rejected attempt costs the work it
caused plus its undo — not a re-chase.  Inserts and fills maintain the
fixpoint incrementally.  Deletes and updates under ``propagate`` take a
level rebuild instead: the stored rows carry ratcheted (adopted)
information a trail rewind would peel back, but because those rows are
already a fixpoint the rebuild is a single encode-and-sign pass, not the
seed's iterate-to-convergence re-chase.  On an admissible (weakly
satisfiable) instance the extended fixpoint never poisons, which makes
it coincide with the basic NS-rule fixpoint the paper's "internal
acquisition" adopts: after ``adopt()`` the session's raw rows *are* the
settled instance earlier revisions re-chased for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple, Union

from ..chase.session import ChaseSession
from ..core.fd import FDInput, FDSet, as_fd
from ..core.relation import Relation
from ..core.schema import RelationSchema
from ..core.tuples import Row
from ..core.values import NOTHING, Null, is_null
from ..errors import ReproError, SchemaError
from ..opschema import apply_op
from ..testfd import CONVENTION_STRONG, check_fds

POLICY_WEAK = "weak"
POLICY_STRONG = "strong"


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one modification attempt."""

    accepted: bool
    operation: str
    reason: str
    #: substitutions the chase adopted after this operation (null -> value)
    forced: Dict[Null, Any] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.accepted


class GuardedRelation:
    """A relation instance that enforces an FD set across modifications.

    The guard is *optimistic about nulls*: under the default ``weak``
    policy a change is rejected only when it makes the constraints
    certainly violated (no completion satisfies them) — the paper's answer
    to "overconstrained" databases whose validity checks otherwise mostly
    prove "that most of the data is dirty".

    With ``propagate=True`` (default) the stored instance is the session's
    maintained minimally incomplete fixpoint — forced substitutions and
    NECs adopted into the raw rows as they become forced, the "internal
    acquisition" channel.  With ``propagate=False`` the raw tuples are
    stored verbatim and the session is consulted for admission only.
    """

    def __init__(
        self,
        schema: RelationSchema,
        fds: Iterable[FDInput],
        rows: Iterable[Sequence[Any]] = (),
        policy: str = POLICY_WEAK,
        propagate: bool = True,
    ) -> None:
        if policy not in (POLICY_WEAK, POLICY_STRONG):
            raise ValueError(f"unknown policy {policy!r}")
        self.schema = schema
        self.fds = FDSet([as_fd(fd).validate(schema) for fd in fds])
        self.policy = policy
        self.propagate = propagate
        self.log: List[UpdateResult] = []
        self._session = ChaseSession(schema, self.fds, rows)
        if not self._admissible():
            raise ReproError(
                f"initial instance does not satisfy the FDs under the "
                f"{policy!r} policy"
            )
        if propagate:
            self._session.adopt()

    # -- views ---------------------------------------------------------------

    @property
    def relation(self) -> Relation:
        """The current instance: the session's raw rows, which under
        propagation hold the adopted (chased) fixpoint."""
        return self._session.raw_relation()

    @property
    def session(self) -> ChaseSession:
        """The underlying maintained chase session (read-only use)."""
        return self._session

    def __len__(self) -> int:
        return len(self._session)

    def __iter__(self):
        return iter(self.relation)

    def to_text(self) -> str:
        return self.relation.to_text()

    # -- policy plumbing -----------------------------------------------------

    def _admissible(self) -> bool:
        """The policy's verdict on the session as it stands.

        Weak admission is the session's live Theorem-4(b) verdict.  The
        strong convention judges the instance *as stored*, nulls
        unresolved (Theorem 2), which the maintained fixpoint cannot
        answer, so it reads the raw rows.
        """
        if self.policy == POLICY_STRONG:
            stored = self._session.raw_relation()
            return check_fds(stored, self.fds, CONVENTION_STRONG).satisfied
        return not self._session.has_nothing

    def _attempt(
        self, operation: str, detail: str, record: Tuple[Any, ...]
    ) -> UpdateResult:
        """Apply the op ``record`` to the session; undo it unless admitted.

        The session is the guard's own, so its snapshot stack holds only
        this attempt's mark.  An op that raises is undone as well, and
        the error propagates.
        """
        session = self._session
        before = self._forced_ids()
        session.snapshot()
        admitted = False
        try:
            apply_op(session, record)
            admitted = self._admissible()
        finally:
            if admitted:
                session.discard_snapshots()
            else:
                session.rollback()
        if not admitted:
            reason = (
                "would make the constraints not strongly satisfied"
                if self.policy == POLICY_STRONG
                else "would make the constraints unsatisfiable in every "
                "completion"
            )
            return self._log_rejection(operation, f"{detail}: {reason}")
        outcome = UpdateResult(True, operation, detail, self._forced_delta(before))
        if self.propagate:
            # internal acquisition is a ratchet: forced substitutions and
            # NEC links become stored data, surviving later modifications
            # of the tuples that forced them
            session.adopt()
        self.log.append(outcome)
        return outcome

    def _row(self, index: int) -> Row:
        """The stored tuple at ``index``; a bad index raises here."""
        if not 0 <= index < len(self._session):
            raise SchemaError(f"no row at index {index}")
        return self._session.rows[index]

    def _forced_ids(self) -> Dict[int, Any]:
        if not self.propagate:
            return {}
        return {id(n): v for n, v in self._session.substitutions().items()}

    def _forced_delta(self, before: Dict[int, Any]) -> Dict[Null, Any]:
        """Substitutions this operation newly forced (internal acquisition)."""
        if not self.propagate:
            return {}
        return {
            n: v
            for n, v in self._session.substitutions().items()
            if v is not NOTHING and id(n) not in before
        }

    def _log_rejection(self, operation: str, reason: str) -> UpdateResult:
        outcome = UpdateResult(False, operation, reason)
        self.log.append(outcome)
        return outcome

    # -- modifications -------------------------------------------------------

    def insert(self, values: Union[Sequence[Any], Row]) -> UpdateResult:
        """Admit a new tuple if the constraints stay satisfiable."""
        row = values if isinstance(values, Row) else Row(self.schema, values)
        return self._attempt("insert", f"insert {row!r}", ("insert", row))

    def delete(self, index: int) -> UpdateResult:
        """Remove the tuple at ``index`` (always admissible)."""
        removed = self._row(index)
        return self._attempt("delete", f"delete {removed!r}", ("delete", index))

    def update(self, index: int, changes: Dict[str, Any]) -> UpdateResult:
        """Modify attributes of the tuple at ``index`` (try-then-undo).

        The replacement starts from the *stored* tuple — with propagation
        on, values the chase already grounded stay grounded.
        """
        return self._attempt(
            "update",
            f"update row {index} with {changes}",
            ("update", index, changes),
        )

    def fill(self, index: int, attribute: str, value: Any) -> UpdateResult:
        """Ground a null with a user-supplied constant.

        Rejected when the cell is not null, or when the constraints force a
        *different* value for it (the chase's substitution is "the only
        value that a user can insert without the creation of an
        inconsistency" — section 4).
        """
        cell = self._row(index)[attribute]
        if not is_null(cell):
            return self._log_rejection(
                "fill",
                f"fill row {index}.{attribute}: cell is not null "
                f"(holds {cell!r})",
            )
        return self._attempt(
            "fill",
            f"fill row {index}.{attribute} := {value!r}",
            ("fill", index, attribute, value),
        )

    # -- reporting -----------------------------------------------------------

    def history(self) -> List[str]:
        """One line per attempted operation, for audits and examples."""
        return [
            f"{'ACCEPT' if entry.accepted else 'REJECT'} {entry.operation}: "
            f"{entry.reason}"
            + (
                f" [forced {len(entry.forced)} substitution(s)]"
                if entry.forced
                else ""
            )
            for entry in self.log
        ]
