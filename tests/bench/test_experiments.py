"""Tests for the experiment runners: they must reproduce the paper's qualitative results.

These are scaled-down runs of the same artefact specs the ``benchmarks/``
suite runs through :func:`~repro.bench.run_artifact`, asserting the *shape* of each result (who wins, which cells say what)
rather than exact counts.
"""

import pytest

from repro.bench import (
    figure3_spec,
    run_artifact,
    table1_spec,
    table2_spec,
    table3_spec,
    time_single_injection,
)
from repro.bench.table2 import APPLICABLE_CLASSES, VARIATION_LABELS
from repro.bench.table3 import FAULT_LABELS
from repro.bench.timing import single_injection_callable
from repro.bench.workloads import full_directive_mysql_config, full_directive_postgres_config
from repro.core.profile import InjectionOutcome
from repro.core.spec import ExecutionSpec
from repro.sut.mysql import SimulatedMySQL
from repro.sut.postgres import SimulatedPostgres


def system_keys(spec) -> set[str]:
    return {system.key for system in spec.systems}


class TestWorkloads:
    def test_artifact_specs_cover_the_paper_systems(self):
        assert system_keys(table1_spec()) == {"MySQL", "Postgres", "Apache"}
        assert system_keys(table2_spec()) == {"MySQL", "Postgres", "Apache"}
        assert system_keys(table3_spec()) == {"BIND", "djbdns"}
        assert system_keys(figure3_spec()) == {"MySQL", "Postgresql"}

    def test_full_directive_configs_are_healthy_baselines(self):
        mysql = SimulatedMySQL(default_config=full_directive_mysql_config())
        assert mysql.start(mysql.default_configuration()).started
        postgres = SimulatedPostgres(default_config=full_directive_postgres_config())
        result = postgres.start(postgres.default_configuration())
        assert result.started, result.errors

    def test_full_directive_configs_exclude_booleans(self):
        assert "fsync" not in full_directive_postgres_config()
        assert "skip-external-locking" not in full_directive_mysql_config()


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        spec = table1_spec(
            typos_per_directive=3, directives_per_section=5, execution=ExecutionSpec(seed=42)
        )
        return run_artifact("table1", spec)

    def test_all_three_systems_present(self, result):
        assert set(result.profiles) == {"MySQL", "Postgres", "Apache"}

    def test_every_system_received_injections(self, result):
        for profile in result.profiles.values():
            assert profile.injected_count() > 20

    def test_postgres_detects_more_than_apache(self, result):
        # Paper Table 1: Postgres detects far more of the injected typos than
        # Apache, which ignores the majority of them.
        assert result.detection_rate("Postgres") > result.detection_rate("Apache")

    def test_apache_ignores_more_than_postgres(self, result):
        ignored_share = {
            name: profile.ignored_count() / profile.injected_count()
            for name, profile in result.profiles.items()
        }
        assert ignored_share["Apache"] > ignored_share["Postgres"]

    def test_directive_name_typos_are_well_detected_by_the_databases(self, result):
        # Misspelled directive names are rejected as unknown variables/parameters
        # by both database servers (the bulk of the paper's startup detections).
        for system in ("MySQL", "Postgres"):
            records = [
                record
                for record in result.profiles[system]
                if record.metadata.get("field") == "name"
            ]
            detected = sum(1 for record in records if record.outcome.is_detected())
            assert records and detected / len(records) > 0.6

    def test_value_typos_are_detected_less_often_than_name_typos(self, result):
        for system, profile in result.profiles.items():
            by_field = {"name": [], "value": []}
            for record in profile:
                field = record.metadata.get("field")
                if field in by_field:
                    by_field[field].append(record)
            name_rate = sum(r.outcome.is_detected() for r in by_field["name"]) / len(by_field["name"])
            value_rate = sum(r.outcome.is_detected() for r in by_field["value"]) / len(by_field["value"])
            assert name_rate >= value_rate, system

    def test_startup_detection_dominates_functional_tests(self, result):
        # Paper: functional tests add little detection power beyond startup checks.
        for profile in result.profiles.values():
            counts = profile.outcome_counts()
            assert counts[InjectionOutcome.DETECTED_AT_STARTUP] >= counts[InjectionOutcome.DETECTED_BY_TESTS]

    def test_table_text_mentions_all_rows(self, result):
        for fragment in ("# of Injected Errors", "Detected by system at startup", "Ignored"):
            assert fragment in result.table_text

    def test_no_harness_errors(self, result):
        for profile in result.profiles.values():
            assert not profile.records_with(InjectionOutcome.HARNESS_ERROR)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        spec = table2_spec(variants_per_class=5, execution=ExecutionSpec(seed=42))
        return run_artifact("table2", spec)

    def test_matches_paper_support_matrix(self, result):
        # Paper Table 2, cell by cell.
        expected = {
            "MySQL": {
                "Order of sections": "Yes",
                "Order of directives": "Yes",
                "Spaces near separators": "Yes",
                "Mixed-case directive names": "No",
                "Truncatable directive names": "Yes",
            },
            "Postgres": {
                "Order of sections": "n/a",
                "Order of directives": "Yes",
                "Spaces near separators": "Yes",
                "Mixed-case directive names": "Yes",
                "Truncatable directive names": "No",
            },
            "Apache": {
                "Order of sections": "n/a",
                "Order of directives": "Yes",
                "Spaces near separators": "Yes",
                "Mixed-case directive names": "Yes",
                "Truncatable directive names": "No",
            },
        }
        assert result.support == expected

    def test_satisfied_fractions_match_paper(self, result):
        assert result.satisfied_fraction("MySQL") == pytest.approx(0.80)
        assert result.satisfied_fraction("Postgres") == pytest.approx(0.75)
        assert result.satisfied_fraction("Apache") == pytest.approx(0.75)

    def test_applicable_classes_cover_all_labels(self):
        for classes in APPLICABLE_CLASSES.values():
            assert set(classes) <= set(VARIATION_LABELS)

    def test_table_text_has_summary_row(self, result):
        assert "% of assumptions satisfied" in result.table_text


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        spec = table3_spec(max_scenarios_per_class=2, execution=ExecutionSpec(seed=42))
        return run_artifact("table3", spec)

    def test_matches_paper_behaviour_matrix(self, result):
        assert result.behaviour_of("Missing PTR", "BIND") == "not found"
        assert result.behaviour_of("Missing PTR", "djbdns") == "N/A"
        assert result.behaviour_of("PTR pointing to CNAME", "BIND") == "not found"
        assert result.behaviour_of("PTR pointing to CNAME", "djbdns") == "N/A"
        assert result.behaviour_of("dupl name for NS and CNAME", "BIND") == "found"
        assert result.behaviour_of("dupl name for NS and CNAME", "djbdns") == "not found"
        assert result.behaviour_of("MX pointing to CNAME", "BIND") == "found"
        assert result.behaviour_of("MX pointing to CNAME", "djbdns") == "not found"

    def test_all_fault_rows_present(self, result):
        assert set(result.behaviour) == set(FAULT_LABELS.values())

    def test_djbdns_impossible_injections_recorded(self, result):
        impossible = result.profiles["djbdns"].records_with(InjectionOutcome.INJECTION_IMPOSSIBLE)
        assert impossible
        assert all("tinydns" in record.messages[0] for record in impossible)

    def test_table_text_contains_both_systems(self, result):
        assert "BIND" in result.table_text and "djbdns" in result.table_text


class TestFigure3:
    @pytest.fixture(scope="class")
    def result(self):
        spec = figure3_spec(experiments_per_directive=8, execution=ExecutionSpec(seed=42))
        return run_artifact("figure3", spec)

    def test_distributions_are_probability_vectors(self, result):
        for distribution in result.distributions.values():
            assert sum(distribution.values()) == pytest.approx(1.0)
            assert all(0.0 <= share <= 1.0 for share in distribution.values())

    def test_postgres_is_more_resilient_than_mysql(self, result):
        # Paper Section 5.5 headline: Postgres detects more value typos.
        strong_postgres = result.share("Postgresql", "good") + result.share("Postgresql", "excellent")
        strong_mysql = result.share("MySQL", "good") + result.share("MySQL", "excellent")
        assert strong_postgres > strong_mysql

    def test_mysql_has_largest_poor_share(self, result):
        assert result.share("MySQL", "poor") >= result.share("Postgresql", "poor")

    def test_per_directive_rates_cover_many_directives(self, result):
        assert len(result.per_directive_rates["MySQL"]) >= 15
        assert len(result.per_directive_rates["Postgresql"]) >= 20

    def test_boolean_directives_excluded(self, result):
        assert "fsync" not in result.per_directive_rates["Postgresql"]

    def test_chart_text_lists_all_bins(self, result):
        for label in ("poor", "fair", "good", "excellent"):
            assert label in result.chart_text


class TestTiming:
    def test_single_injection_callable_runs(self):
        run_once = single_injection_callable(SimulatedPostgres(), seed=1)
        record = run_once()
        assert record.outcome is not None

    def test_time_single_injection_returns_positive_seconds(self):
        seconds = time_single_injection(SimulatedPostgres(), repetitions=3, seed=1)
        assert 0 < seconds < 5
