"""Benchmark: Table 1 -- resilience to typos (Section 5.2).

Regenerates the per-system split of injected typo errors into
detected-at-startup / detected-by-functional-tests / ignored, for MySQL,
Postgres and Apache, and prints the table in the paper's layout.
"""

from benchmarks.conftest import BENCH_SEED
from repro.bench import run_artifact, table1_spec
from repro.core.profile import InjectionOutcome
from repro.core.spec import ExecutionSpec


def test_table1_resilience_to_typos(run_once):
    spec = table1_spec(
        typos_per_directive=10, directives_per_section=10, execution=ExecutionSpec(seed=BENCH_SEED)
    )
    result = run_once(run_artifact, "table1", spec)

    print("\n\nTable 1 -- Resilience to typos\n" + result.table_text + "\n")

    # All three systems were exercised with a substantial faultload.
    assert set(result.profiles) == {"MySQL", "Postgres", "Apache"}
    for system, profile in result.profiles.items():
        assert profile.injected_count() >= 50, system
        assert not profile.records_with(InjectionOutcome.HARNESS_ERROR)

    # Shape of the paper's findings: startup checks dominate the functional
    # tests, Apache ignores a larger share of the typos than Postgres, and
    # misspelled directive names are the best-detected error class for the
    # database servers.
    for profile in result.profiles.values():
        counts = profile.outcome_counts()
        assert counts[InjectionOutcome.DETECTED_AT_STARTUP] >= counts[InjectionOutcome.DETECTED_BY_TESTS]

    ignored_share = {
        name: profile.ignored_count() / profile.injected_count()
        for name, profile in result.profiles.items()
    }
    assert ignored_share["Apache"] > ignored_share["Postgres"]
    assert result.detection_rate("Postgres") > result.detection_rate("Apache")
