"""Benchmark: Figure 3 -- comparing MySQL and Postgres resilience (Section 5.5).

Runs the comparison procedure (20 value-typo experiments per directive on a
full-directive configuration) and reports the share of directives in the
poor / fair / good / excellent detection bins for both systems.
"""

from benchmarks.conftest import BENCH_SEED
from repro.bench import figure3_spec, run_artifact
from repro.core.spec import ExecutionSpec


def test_figure3_mysql_vs_postgres(run_once):
    spec = figure3_spec(experiments_per_directive=20, execution=ExecutionSpec(seed=BENCH_SEED))
    result = run_once(run_artifact, "figure3", spec)

    print("\n\nFigure 3 -- Resilience to typos in MySQL and Postgres\n" + result.chart_text + "\n")

    # Paper's headline: Postgres is markedly more robust to value typos.
    strong_postgres = result.share("Postgresql", "good") + result.share("Postgresql", "excellent")
    strong_mysql = result.share("MySQL", "good") + result.share("MySQL", "excellent")
    assert strong_postgres > strong_mysql

    # MySQL leaves the largest share of directives poorly checked (paper:
    # less than 25% of typos detected for roughly 45% of its directives).
    assert result.share("MySQL", "poor") >= result.share("Postgresql", "poor")
    assert result.share("MySQL", "poor") >= 0.30

    # Postgres' strict parsing puts a substantial share of directives in the
    # upper bins (paper: >75% detection for almost 45% of directives).
    assert strong_postgres >= 0.40

    # Both systems were measured over a full-directive configuration.
    assert len(result.per_directive_rates["MySQL"]) >= 15
    assert len(result.per_directive_rates["Postgresql"]) >= 20
