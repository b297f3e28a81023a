"""Golden-file snapshots of every rendered evaluation artefact.

Each test runs a small-but-deterministic configuration of one artefact's
spec through :func:`~repro.bench.run_artifact` and asserts three things at
once:

* the live render is byte-identical to the checked-in golden under
  ``tests/golden/`` (regenerate intentionally with
  ``pytest --regen-goldens``),
* a fresh ``--from-store`` re-render of the same store is byte-identical
  to the live render,
* both therefore match the golden.

The runs use reduced scenario counts so the whole module stays cheap; the
goldens cover the *rendering* contract, the full-size runs stay in
``benchmarks/``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    figure3_from_store,
    figure3_spec,
    matrix_from_store,
    matrix_spec,
    run_artifact,
    table1_from_store,
    table1_spec,
    table2_from_store,
    table2_spec,
    table3_from_store,
    table3_spec,
)
from repro.core.report import store_typo_table
from repro.core.spec import ExecutionSpec
from repro.core.store import ResultStore

SEED = 2008


class TestTableGoldens:
    @pytest.fixture(scope="class")
    def table1_run(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("t1"))
        spec = table1_spec(
            typos_per_directive=2,
            directives_per_section=3,
            execution=ExecutionSpec(seed=SEED),
        )
        result = run_artifact("table1", spec, store)
        return result, store

    def test_table1_matches_golden(self, table1_run, golden):
        result, _store = table1_run
        golden("table1.txt", result.table_text + "\n")

    def test_table1_store_render_is_byte_identical(self, table1_run):
        result, store = table1_run
        assert table1_from_store(ResultStore(store.root)).table_text == result.table_text

    @pytest.fixture(scope="class")
    def table2_run(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("t2"))
        spec = table2_spec(variants_per_class=2, execution=ExecutionSpec(seed=SEED))
        result = run_artifact("table2", spec, store)
        return result, store

    def test_table2_matches_golden(self, table2_run, golden):
        result, _store = table2_run
        golden("table2.txt", result.table_text + "\n")

    def test_table2_store_render_is_byte_identical(self, table2_run):
        result, store = table2_run
        assert table2_from_store(ResultStore(store.root)).table_text == result.table_text

    @pytest.fixture(scope="class")
    def table3_run(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("t3"))
        result = run_artifact("table3", table3_spec(execution=ExecutionSpec(seed=SEED)), store)
        return result, store

    def test_table3_matches_golden(self, table3_run, golden):
        result, _store = table3_run
        golden("table3.txt", result.table_text + "\n")

    def test_table3_store_render_is_byte_identical(self, table3_run):
        result, store = table3_run
        assert table3_from_store(ResultStore(store.root)).table_text == result.table_text


class TestFigure3Golden:
    @pytest.fixture(scope="class")
    def figure3_run(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("f3"))
        spec = figure3_spec(experiments_per_directive=2, execution=ExecutionSpec(seed=SEED))
        result = run_artifact("figure3", spec, store)
        return result, store

    def test_figure3_chart_matches_golden(self, figure3_run, golden):
        result, _store = figure3_run
        golden(
            "figure3.txt",
            result.chart_text + "\n\n" + json.dumps(result.distributions, indent=2) + "\n",
        )

    def test_figure3_store_render_is_byte_identical(self, figure3_run):
        result, store = figure3_run
        reloaded = figure3_from_store(ResultStore(store.root))
        assert reloaded.chart_text == result.chart_text
        assert reloaded.distributions == result.distributions


class TestMatrixAndReportGoldens:
    @pytest.fixture(scope="class")
    def matrix_run(self, tmp_path_factory):
        store = ResultStore(tmp_path_factory.mktemp("mx"))
        spec = matrix_spec(
            systems=["nginx", "sshd", "mysql"],
            plugins=["omission", "spelling"],
            execution=ExecutionSpec(seed=SEED, mutations_per_token=1, max_scenarios_per_class=4),
        )
        result = run_artifact("matrix", spec, store)
        return result, store

    def test_matrix_matches_golden(self, matrix_run, golden):
        result, _store = matrix_run
        golden("matrix.txt", result.table_text + "\n")

    def test_matrix_store_render_is_byte_identical(self, matrix_run):
        result, store = matrix_run
        assert matrix_from_store(ResultStore(store.root)).table_text == result.table_text

    def test_report_views_match_golden(self, matrix_run, golden):
        # the deterministic body of `conferr report <store-dir>`: the merged
        # per-system summaries followed by the typo-resilience layout
        _result, store = matrix_run
        sections = [profile.summary() for profile in store.merged_profiles().values()]
        sections.append(store_typo_table(store))
        golden("report.txt", "\n\n".join(sections) + "\n")
