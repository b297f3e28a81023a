"""Tests for the M-systems x N-plugins resilience matrix."""

import pytest

from repro.bench import run_artifact
from repro.bench.matrix import MATRIX_PLUGINS, MATRIX_SYSTEMS, matrix_from_store, matrix_spec
from repro.core.report import resilience_matrix_table
from repro.core.profile import ResilienceProfile, InjectionOutcome, InjectionRecord
from repro.core.spec import ExecutionSpec
from repro.core.store import ResultStore
from repro.errors import StoreError


def small_spec(**execution):
    return matrix_spec(
        systems=["nginx", "sshd"],
        plugins=["omission", "spelling"],
        execution=ExecutionSpec(
            seed=2008, mutations_per_token=1, max_scenarios_per_class=4, **execution
        ),
    )


def _record(scenario_id: str, outcome: InjectionOutcome) -> InjectionRecord:
    return InjectionRecord(
        scenario_id=scenario_id, category="test", description="", outcome=outcome
    )


class TestRenderer:
    def test_cells_show_detected_over_injected(self):
        profile = ResilienceProfile("sys")
        profile.add(_record("a", InjectionOutcome.DETECTED_AT_STARTUP))
        profile.add(_record("b", InjectionOutcome.DETECTED_BY_TESTS))
        profile.add(_record("c", InjectionOutcome.IGNORED))
        profile.add(_record("d", InjectionOutcome.INJECTION_IMPOSSIBLE))
        table = resilience_matrix_table({"sys": {"plug": profile}})
        assert "2/3 (67%)" in table

    def test_empty_cells_render_na(self):
        table = resilience_matrix_table({"sys": {"plug": ResilienceProfile("sys")}})
        assert "n/a" in table

    def test_plugin_order_is_preserved(self):
        profiles = {
            "sys": {
                "zeta": ResilienceProfile("sys"),
                "alpha": ResilienceProfile("sys"),
            }
        }
        table = resilience_matrix_table(profiles)
        assert table.index("zeta") < table.index("alpha")


class TestDefaults:
    def test_default_matrix_covers_paper_and_new_systems(self):
        assert set(("mysql", "postgres", "apache", "bind", "djbdns")) < set(MATRIX_SYSTEMS)
        assert "nginx" in MATRIX_SYSTEMS and "sshd" in MATRIX_SYSTEMS
        assert "omission" in MATRIX_PLUGINS

    def test_matrix_spec_validates(self):
        small_spec().validate()


class TestLiveVsStore:
    @pytest.fixture(scope="class")
    def stored_run(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("matrix-store"))
        result = run_artifact("matrix", small_spec(), store)
        return result, store

    def test_live_and_store_renders_are_byte_identical(self, stored_run):
        result, store = stored_run
        assert matrix_from_store(ResultStore(store.root)).table_text == result.table_text

    def test_matrix_lists_every_requested_cell(self, stored_run):
        result, _store = stored_run
        assert set(result.profiles) == {"nginx", "sshd"}
        for per_plugin in result.profiles.values():
            assert set(per_plugin) == {"omission", "spelling"}

    def test_from_store_profiles_match_live_counts(self, stored_run):
        result, store = stored_run
        reloaded = matrix_from_store(store)
        for system, per_plugin in result.profiles.items():
            for plugin, profile in per_plugin.items():
                assert reloaded.cell(system, plugin).injected_count() == profile.injected_count()
                assert reloaded.cell(system, plugin).detected_count() == profile.detected_count()

    def test_empty_cells_are_present_in_store_backed_results(self, tmp_path):
        # regression: campaigns with zero records used to be missing from
        # store-backed profiles, so .cell() raised KeyError on "n/a" cells
        store = ResultStore(tmp_path / "na-cells")
        spec = matrix_spec(systems=["bind"], plugins=["omission", "semantic-constraints"])
        live = run_artifact("matrix", spec, store)
        reloaded = matrix_from_store(store)
        empty = reloaded.cell("BIND", "semantic-constraints")
        assert len(empty) == 0
        assert len(live.cell("BIND", "semantic-constraints")) == 0

    def test_from_store_requires_a_suite_store(self, tmp_path):
        store = ResultStore(tmp_path / "bogus")
        store.write_manifest({"kind": "table1", "seed": 1})
        with pytest.raises(StoreError):
            matrix_from_store(store)


class TestExecutorInvariance:
    def test_matrix_is_executor_invariant(self):
        serial = run_artifact("matrix", small_spec())
        threaded = run_artifact("matrix", small_spec(jobs=4, executor="thread"))
        assert threaded.table_text == serial.table_text
