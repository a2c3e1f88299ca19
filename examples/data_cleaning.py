#!/usr/bin/env python3
"""Data cleaning with the NS-rule chase: FDs as repair rules.

A practical reading of section 6: functional dependencies + nulls give a
principled imputation engine.  Whenever two records agree on a determinant,
the determined values must match — so a missing value next to a present one
is *forced* (rule a), two missing values are *linked* (rule b, a NEC), and
two conflicting constants expose dirty data (the extended rule's *nothing*).

The scenario: a customer table with postal codes.  Business rules:

    zip  -> city, state        (a postal code pins down the place)
    city -> state              (a city lies in one state)

Run:  python examples/data_cleaning.py
"""

import random

from repro import FDSet, Relation, RelationSchema, null
from repro.bench.report import Table, time_call
from repro.chase import (
    MODE_BASIC,
    MODE_EXTENDED,
    chase,
    minimally_incomplete,
    weakly_satisfiable,
)
from repro.core.values import NOTHING, is_null
from repro.workloads.generator import (
    inject_nulls,
    random_satisfiable_instance,
)

RULES = FDSet(["zip -> city state", "city -> state"])


def customer_schema() -> RelationSchema:
    return RelationSchema("customers", "name zip city state")


def dirty_table() -> Relation:
    schema = customer_schema()
    return Relation(
        schema,
        [
            ("Ada", "10001", "New York", "NY"),
            ("Bob", "10001", null(), null()),        # fixable from Ada
            ("Cid", "60601", "Chicago", null()),      # state inferable via city
            ("Dee", "60601", null(), "IL"),           # city inferable via zip
            ("Eve", "94105", null(), null()),         # linked unknowns (NEC)
            ("Fay", "94105", null(), null()),
        ],
    )


def clean() -> None:
    print("=" * 64)
    print("Imputation by chase")
    print("=" * 64)
    table = dirty_table()
    print(table.to_text(), "\n")
    result = minimally_incomplete(table, RULES)
    print("minimally incomplete repair:")
    print(result.relation.to_text(), "\n")
    print(result.summary())
    filled = sum(
        1 for value in result.substitutions.values() if value is not NOTHING
    )
    print(f"\ncells grounded: {filled}")
    for nec in result.nec_classes:
        print(f"linked unknowns (NEC): {' = '.join(map(repr, nec))}")
    print(
        "\nEve's and Fay's cities are still unknown — but the chase knows"
        "\nthey are the SAME unknown city, and in the same unknown state."
    )


def detect_conflicts() -> None:
    print()
    print("=" * 64)
    print("Conflict detection (the extended rule's *nothing*)")
    print("=" * 64)
    schema = customer_schema()
    table = Relation(
        schema,
        [
            ("Ada", "10001", "New York", "NY"),
            ("Mal", "10001", "Newark", null()),  # same zip, different city!
            ("Cid", "60601", "Chicago", "IL"),
        ],
    )
    print(table.to_text(), "\n")
    print(f"weakly satisfiable: {weakly_satisfiable(table, RULES)}")
    result = chase(table, RULES, mode=MODE_EXTENDED)
    print("\nextended chase result (inconsistent cells shown as '!'):")
    print(result.relation.to_text())
    poisoned = [
        (row_index, attr)
        for row_index, row in enumerate(result.relation.rows)
        for attr in result.relation.schema.attributes
        if row[attr] is NOTHING
    ]
    print(f"\npoisoned cells: {poisoned}")
    print("Both city values join to *nothing*: records 0 and 1 cannot both")
    print("be right — a data-quality incident, localized to the zip 10001.")


def throughput() -> None:
    print()
    print("=" * 64)
    print("Throughput: sweep engine vs the default extended chase")
    print("=" * 64)
    rng = random.Random(42)
    from repro.workloads.generator import random_schema

    schema = random_schema(5)
    fds = FDSet(["A1 -> A2 A3", "A2 -> A4", "A4 -> A5"])
    report = Table(
        "chase wall time (seconds, best of 3)",
        ["rows", "nulls", "sweep", "default", "speedup"],
    )
    for n_rows in (200, 400, 800):
        base = random_satisfiable_instance(rng, schema, fds, n_rows, pool_size=n_rows // 8)
        dirty = inject_nulls(rng, base, density=0.25)
        sweep_time = time_call(
            lambda: chase(dirty, fds, mode=MODE_EXTENDED, engine="sweep")
        )
        default_time = time_call(lambda: chase(dirty, fds, mode=MODE_EXTENDED))
        report.add_row(
            n_rows,
            dirty.null_count(),
            sweep_time,
            default_time,
            f"{sweep_time / default_time:.1f}x",
        )
    report.show()
    print("\nSame fixpoint, different engines (Theorem 4: every order of")
    print("NS-rule firings reaches it); benchmarks/bench_e5_chase_scaling.py")
    print("sweeps this.")


def main() -> None:
    clean()
    detect_conflicts()
    throughput()


if __name__ == "__main__":
    main()
