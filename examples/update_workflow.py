#!/usr/bin/env python3
"""Maintaining an incomplete database: guarded modifications + explanation.

The paper's closing research programme (section 7) separates two channels
by which a database "acquires information":

* **external** — users insert/update/delete tuples; the database admits a
  change iff the constraints stay *weakly* satisfiable (not certainly
  violated);
* **internal** — the NS-rules ground nulls whose value the constraints
  force ("the only piece of information that makes the dependency true").

``repro.updates.GuardedRelation`` implements both on top of a maintained
``repro.ChaseSession``; this walkthrough runs a small ticketing system
through a day of edits, narrates every decision with ``repro.explain``,
and closes with the raw session API (snapshot / rollback / live
consistency verdicts).

Run:  python examples/update_workflow.py
"""

from repro import ChaseSession, RelationSchema, null
from repro.chase import MODE_EXTENDED, chase
from repro.explain import explain_chase, explain_fd_value
from repro.updates import GuardedRelation

SCHEMA = RelationSchema("tickets", "ticket team priority oncall")
RULES = [
    "ticket -> team priority",  # a ticket sits with one team at one priority
    "team -> oncall",           # each team has one on-call engineer
]


def open_desk() -> GuardedRelation:
    print("=" * 64)
    print("Morning: the ticket desk opens")
    print("=" * 64)
    guard = GuardedRelation(
        SCHEMA,
        RULES,
        rows=[
            ("T-1", "storage", "high", "ada"),
            ("T-2", "network", "low", null()),
        ],
    )
    print(guard.to_text(), "\n")
    return guard


def a_day_of_edits(guard: GuardedRelation) -> None:
    print("=" * 64)
    print("A day of edits")
    print("=" * 64)
    # a new ticket for storage: its on-call is already determined
    guard.insert(("T-3", "storage", "low", null()))
    # a contradictory report: T-1 at a different priority
    guard.insert(("T-1", "storage", "low", "ada"))
    # network's on-call comes online
    guard.fill(1, "oncall", "bob")
    # someone tries to reassign storage's on-call through a side door
    guard.update(0, {"oncall": "mal"})
    # T-2 is resolved
    guard.delete(1)

    for line in guard.history():
        print(" ", line)
    print()
    print("state at end of day:")
    print(guard.to_text())


def night_audit(guard: GuardedRelation) -> None:
    print()
    print("=" * 64)
    print("Night audit: explanations")
    print("=" * 64)
    relation = guard.relation
    print(explain_fd_value("team -> oncall", relation[0], relation))
    print()
    result = chase(relation, RULES, mode=MODE_EXTENDED)
    print(explain_chase(result))


def session_tour() -> None:
    print()
    print("=" * 64)
    print("Under the hood: the chase session")
    print("=" * 64)
    session = ChaseSession(SCHEMA, RULES)
    session.insert(("T-7", "storage", "high", null()))
    session.insert(("T-8", "storage", "low", "ada"))
    print("storage's on-call grounded live:",
          session.result().relation[0]["oncall"])

    session.snapshot()
    session.insert(("T-7", "storage", "low", "ada"))  # contradicts T-7
    print("after conflicting report, weakly satisfiable?",
          not session.has_nothing)
    session.rollback()
    print("after rollback,             weakly satisfiable?",
          not session.has_nothing)

    session.delete(1)  # drop T-8: the grounding dissolves with its forcer
    cell = session.result().relation[0]["oncall"]
    print("after deleting the forcer, on-call is unknown again:",
          f"{cell!r}")
    print("TEST-FDs on the maintained instance:",
          "satisfied" if session.check().satisfied else "violated")


def main() -> None:
    guard = open_desk()
    a_day_of_edits(guard)
    night_audit(guard)
    session_tour()


if __name__ == "__main__":
    main()
