#!/usr/bin/env python3
"""Compare the configuration-error resilience of two database servers.

Reproduces the Section 5.5 benchmark (Figure 3 of the paper): start from a
configuration containing most available directives at their default values,
inject typos into directive *values* (20 independent experiments per
directive), compute the per-directive detection rate and report how many
directives fall into the poor / fair / good / excellent bins for each system.

The expected outcome, as in the paper, is that Postgres -- with its strict
parsing and cross-parameter constraint checking -- detects far more value
typos than MySQL, whose permissive option parser silently accepts or adjusts
most of them.

Run with::

    python examples/compare_databases.py
"""

from repro.bench import figure3_spec, run_artifact
from repro.core.spec import ExecutionSpec


def main() -> None:
    spec = figure3_spec(experiments_per_directive=20, execution=ExecutionSpec(seed=2008))
    result = run_artifact("figure3", spec)

    print("Share of directives per detection-quality bin (Figure 3):\n")
    print(result.chart_text)
    print()

    for system, rates in result.per_directive_rates.items():
        strongest = sorted(rates.items(), key=lambda item: item[1], reverse=True)[:3]
        weakest = sorted(rates.items(), key=lambda item: item[1])[:3]
        print(f"{system}:")
        print("  best-checked directives:  " + ", ".join(f"{n} ({r:.0%})" for n, r in strongest))
        print("  worst-checked directives: " + ", ".join(f"{n} ({r:.0%})" for n, r in weakest))
        print()

    mysql_poor = result.share("MySQL", "poor")
    postgres_excellent = result.share("Postgresql", "excellent")
    print(
        f"MySQL leaves {mysql_poor:.0%} of its directives poorly checked, while "
        f"Postgres checks {postgres_excellent:.0%} of its directives excellently."
    )


if __name__ == "__main__":
    main()
