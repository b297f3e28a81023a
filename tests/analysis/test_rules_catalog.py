"""The rule catalog itself: stable codes, docs, and selection semantics."""

from pathlib import Path

import pytest

from repro.analysis import RuleSelectionError, all_rules, select_rules
from repro.analysis.diagnostics import Severity
from repro.core.spec import (
    ExecutionSpec,
    ExperimentSpec,
    PluginSpec,
    SystemSpec,
    load_finding,
)
from repro.errors import SpecError

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestCatalog:
    def test_at_least_ten_rules_exist(self):
        assert len(all_rules()) >= 10

    def test_every_rule_has_a_unique_stable_code(self):
        codes = [rule.code for rule in all_rules()]
        assert len(codes) == len(set(codes))
        for code in codes:
            namespace, _, slug = code.partition("/")
            assert namespace in {"spec", "catalog", "harness"}, code
            assert slug and slug == slug.lower(), code

    def test_every_rule_has_a_docstring(self):
        for rule in all_rules():
            assert rule.check.__doc__ and rule.check.__doc__.strip(), rule.code
            assert rule.summary, rule.code

    def test_every_rule_has_a_valid_severity_and_surface(self):
        for rule in all_rules():
            assert isinstance(rule.severity, Severity), rule.code
            assert rule.surface in {"spec", "self"}, rule.code

    def test_every_rule_is_documented_in_linting_md(self):
        catalog = (REPO_ROOT / "docs" / "LINTING.md").read_text(encoding="utf-8")
        for rule in all_rules():
            assert f"`{rule.code}`" in catalog, f"{rule.code} missing from docs/LINTING.md"

    def test_spec_error_codes_are_registered_rules(self, tmp_path):
        # the spec checker behind validate, validate --json and service 400
        # bodies must only ever emit codes the lint catalog defines; these
        # inputs drive every branch of the loader and of findings()
        known = {rule.code for rule in all_rules()}
        emitted = set()
        for name, text in [
            ("broken.toml", "this is not toml [[["),
            ("typo.toml", 'systems = ["mysql"]\nplugins = ["spelling"]\n[execution]\nsed = 7\n'),
            ("typed.toml", 'systems = "mysql"\nplugins = ["spelling"]\n'),
        ]:
            (tmp_path / name).write_text(text, encoding="utf-8")
            with pytest.raises(SpecError) as excinfo:
                ExperimentSpec.from_file(tmp_path / name)
            emitted.add(load_finding(excinfo.value)[0])
        with pytest.raises(SpecError) as excinfo:
            ExperimentSpec.from_file(tmp_path / "absent.toml")
        emitted.add(load_finding(excinfo.value)[0])
        spec = ExperimentSpec(
            systems=(
                SystemSpec("mysq"),
                SystemSpec("mysql"),
                SystemSpec("mysql"),
                SystemSpec("mysql", label="a b"),
                SystemSpec("postgres", label="a_b", chaos={"hang_fractoin": 0.1}),
                SystemSpec("mysql-server-only"),
            ),
            plugins=(
                PluginSpec("speling"),
                PluginSpec("spelling", params={"typos": 1}),
                PluginSpec("spelling", params={"layout": "qwertz-xx"}),
            ),
            execution=ExecutionSpec(jobs=0),
        )
        emitted |= {code for code, _path, _message in spec.findings()}
        emitted |= {code for code, _path, _message in ExperimentSpec((), ()).findings()}
        assert emitted == {
            "spec/parse-error",
            "spec/unknown-key",
            "spec/invalid-value",
            "spec/unknown-system",
            "spec/unknown-plugin",
            "spec/unknown-plugin-param",
            "spec/duplicate-label",
            "spec/store-filename-clash",
        }
        assert emitted <= known


class TestSelection:
    def test_default_selection_excludes_default_off_rules(self):
        codes = {rule.code for rule in select_rules("spec")}
        assert "spec/seed-collision" in codes
        assert "spec/no-delta-support" not in codes

    def test_select_enables_default_off_rules(self):
        rules = select_rules("spec", select=["spec/no-delta-support"])
        assert [rule.code for rule in rules] == ["spec/no-delta-support"]

    def test_prefix_select_matches_a_namespace(self):
        codes = {rule.code for rule in select_rules("self", select=["harness"])}
        assert "harness/unseeded-rng" in codes
        assert all(code.startswith("harness/") for code in codes)

    def test_ignore_removes_rules(self):
        codes = {rule.code for rule in select_rules("self", ignore=["harness/wall-clock"])}
        assert "harness/wall-clock" not in codes
        assert "harness/unseeded-rng" in codes

    def test_unknown_token_is_a_usage_error(self):
        with pytest.raises(RuleSelectionError, match="unknown rule or prefix"):
            select_rules("spec", select=["spec/totally-made-up"])
        with pytest.raises(RuleSelectionError):
            select_rules("spec", ignore=["nonsense"])

    def test_surfaces_are_disjoint(self):
        spec_codes = {rule.code for rule in select_rules("spec")}
        self_codes = {rule.code for rule in select_rules("self")}
        assert not spec_codes & self_codes
