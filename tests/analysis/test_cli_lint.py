"""The ``conferr lint`` command: exit codes, selection flags, JSON shape."""

import json
from pathlib import Path

import pytest

from repro.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]
CLEAN_SPEC = str(FIXTURES / "unknown_plugin_param_clean.toml")
BAD_SPEC = str(FIXTURES / "unknown_plugin_param_bad.toml")


class TestExitCodes:
    def test_clean_spec_exits_zero(self, capsys):
        assert main(["lint", CLEAN_SPEC]) == 0
        assert "all clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        assert main(["lint", BAD_SPEC]) == 1
        out = capsys.readouterr().out
        assert "spec/unknown-plugin-param" in out
        assert "did you mean 'mutations_per_token'" in out

    def test_no_paths_is_a_usage_error(self, capsys):
        assert main(["lint"]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_unknown_rule_code_is_a_usage_error(self, capsys):
        assert main(["lint", "--select", "spec/not-a-rule", CLEAN_SPEC]) == 2
        assert "unknown rule or prefix" in capsys.readouterr().err


class TestSelection:
    def test_ignore_suppresses_the_finding(self, capsys):
        assert main(["lint", "--ignore", "spec/unknown-plugin-param", BAD_SPEC]) == 0
        assert "all clean" in capsys.readouterr().out

    def test_ignore_by_prefix(self, capsys):
        assert main(["lint", "--ignore", "spec", BAD_SPEC]) == 0
        capsys.readouterr()

    def test_select_runs_only_the_named_rule(self, capsys):
        assert main(["lint", "--select", "spec/unknown-system", BAD_SPEC]) == 0
        capsys.readouterr()
        assert main(["lint", "--select", "spec/unknown-plugin-param", BAD_SPEC]) == 1
        capsys.readouterr()

    def test_ignore_unseeded_rng_style_self_suppression(self, capsys):
        bad_tree = str(FIXTURES / "selfsrc_bad")
        full = main(["lint", "--self", bad_tree])
        capsys.readouterr()
        assert full == 1
        assert (
            main(
                [
                    "lint",
                    "--self",
                    "--select",
                    "harness/unseeded-rng",
                    bad_tree,
                ]
            )
            == 1
        )
        capsys.readouterr()
        assert (
            main(
                [
                    "lint",
                    "--self",
                    "--select",
                    "harness/unseeded-rng",
                    "--ignore",
                    "harness/unseeded-rng",
                    bad_tree,
                ]
            )
            == 0
        )
        capsys.readouterr()


class TestJson:
    def test_json_report_shares_the_validate_shape(self, capsys):
        assert main(["lint", "--json", BAD_SPEC]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        [entry] = report["errors"]
        assert entry["code"] == "spec/unknown-plugin-param"
        assert entry["path"] == "plugins[0].params.mutations_per_tokn"
        assert entry["severity"] == "error"
        assert entry["file"].endswith("unknown_plugin_param_bad.toml")
        assert "did you mean" in entry["message"]

    def test_json_clean_report(self, capsys):
        assert main(["lint", "--json", CLEAN_SPEC]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"valid": True, "errors": []}

    def test_validate_json_lists_every_finding_lint_reports(self, capsys, tmp_path):
        spec_file = tmp_path / "two_typos.toml"
        spec_file.write_text('systems = ["mysq"]\nplugins = ["speling"]\n', encoding="utf-8")
        assert main(["validate", "--json", str(spec_file)]) == 1
        validated = json.loads(capsys.readouterr().out)["errors"]
        assert main(["lint", "--json", str(spec_file)]) == 1
        linted = json.loads(capsys.readouterr().out)["errors"]
        assert [entry["path"] for entry in validated] == ["systems[0].name", "plugins[0].name"]
        assert sorted(
            (entry["code"], entry["path"], entry["message"]) for entry in validated
        ) == sorted((entry["code"], entry["path"], entry["message"]) for entry in linted)

    def test_validate_json_codes_a_catalog_selector_as_a_value(self, capsys):
        assert main(["validate", "--json", str(FIXTURES / "catalog_system_bad.toml")]) == 1
        [entry] = json.loads(capsys.readouterr().out)["errors"]
        assert entry["code"] == "spec/invalid-value"
        assert entry["path"] == "plugins[0].params.system"


class TestListRules:
    def test_list_rules_prints_the_catalog(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "spec/unknown-plugin-param" in out
        assert "harness/unseeded-rng" in out
        assert "spec/no-delta-support" in out and "--select" in out


class TestRealTargets:
    @pytest.mark.parametrize(
        "name",
        ["paper_suite.toml", "dns_semantic_sweep.toml", "chaos_smoke.toml", "smoke.json"],
    )
    def test_shipped_specs_exit_zero(self, name, capsys):
        spec_file = str(REPO_ROOT / "examples" / "specs" / name)
        assert main(["lint", spec_file]) == 0
        capsys.readouterr()

    def test_self_lint_of_the_harness_exits_zero(self, capsys):
        assert main(["lint", "--self", str(REPO_ROOT / "src" / "repro")]) == 0
        out = capsys.readouterr().out
        assert "suppressed by pragmas" in out

    def test_self_lint_defaults_to_the_installed_package(self, capsys):
        assert main(["lint", "--self"]) == 0
        capsys.readouterr()
