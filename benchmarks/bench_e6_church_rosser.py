"""E6 — Figure 5 and Theorem 4(a): order (in)dependence of the NS-rules.

Paper artifact: "The NS-rules applied in a different order may result in
different minimally incomplete states" (Figure 5's r' vs r'') and Theorem
4(a): with the extension to *nothing*, "the application of the NS-rules
will produce a unique minimally incomplete instance (the NS-rules
constitute a Church-Rosser system)".

Reproduced series: on Figure 5 and on random instances, the number of
distinct fixpoints reached across 11 application orders — basic rules may
exceed 1; extended rules must equal 1 everywhere.
"""

import random

from repro.bench.report import Table
from repro.chase import (
    MODE_BASIC,
    MODE_EXTENDED,
    canonical_form,
    chase,
    church_rosser_orders,
)
from repro.core.values import NOTHING
from repro.workloads.generator import (
    inject_nulls,
    random_fds,
    random_instance,
    random_schema,
)
from repro.workloads.paper import figure_5


def distinct_fixpoints(relation, fds, mode) -> int:
    results = church_rosser_orders(relation, fds, mode=mode, seeds=range(8))
    return len({canonical_form(result.relation) for result in results})


def main() -> None:
    _, fds, relation = figure_5()
    table = Table(
        "E6a — Figure 5: fixpoints across 11 application orders",
        ["rules", "distinct fixpoints", "B column"],
    )
    basic = chase(relation, fds, mode=MODE_BASIC, strategy="fd_order")
    extended = chase(relation, fds, mode=MODE_EXTENDED)
    table.add_row(
        "basic (Definition 2)",
        distinct_fixpoints(relation, fds, MODE_BASIC),
        "order-dependent (b1 or b2)",
    )
    table.add_row(
        "extended (nothing)",
        distinct_fixpoints(relation, fds, MODE_EXTENDED),
        "all NOTHING" if all(
            row["B"] is NOTHING for row in extended.relation
        ) else "NOT all nothing (!)",
    )
    table.show()

    rng = random.Random(5)
    schema = random_schema(4)
    trials = 60
    basic_divergent = 0
    extended_divergent = 0
    for trial in range(trials):
        fds_random = random_fds(rng.randint(0, 10_000), schema.attributes, 3)
        r = inject_nulls(
            rng,
            random_instance(rng.randint(0, 10_000), schema, 8, pool_size=3),
            density=0.3,
        )
        if distinct_fixpoints(r, fds_random, MODE_BASIC) > 1:
            basic_divergent += 1
        if distinct_fixpoints(r, fds_random, MODE_EXTENDED) > 1:
            extended_divergent += 1
    table = Table(
        f"E6b — random instances ({trials} trials, 11 orders each)",
        ["rules", "instances with >1 fixpoint"],
    )
    table.add_row("basic", basic_divergent)
    table.add_row("extended", extended_divergent)
    table.show()
    print(
        "\nTheorem 4(a) shape: extended must be 0; basic is free to diverge"
        f" (observed {basic_divergent})."
    )


def bench_church_rosser_verification(benchmark) -> None:
    """11-order fixpoint comparison on Figure 5."""
    _, fds, relation = figure_5()
    count = benchmark(lambda: distinct_fixpoints(relation, fds, MODE_EXTENDED))
    assert count == 1


def bench_extended_chase_on_figure5(benchmark) -> None:
    _, fds, relation = figure_5()
    result = benchmark(lambda: chase(relation, fds, mode=MODE_EXTENDED))
    assert result.has_nothing


if __name__ == "__main__":
    main()
