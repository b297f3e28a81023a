"""Tests for the ``conferr`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_known_system(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "oracle"])

    def test_defaults(self):
        args = build_parser().parse_args(["run", "--system", "mysql"])
        assert args.plugin == "spelling" and args.seed == 2008
        assert args.jobs == 1 and args.executor is None

    def test_jobs_and_executor_flags(self):
        args = build_parser().parse_args(
            ["run", "--system", "mysql", "--jobs", "4", "--executor", "thread"]
        )
        assert args.jobs == 4 and args.executor == "thread"
        assert args.block_size is None
        args = build_parser().parse_args(["table1", "-j", "2"])
        assert args.jobs == 2

    def test_block_size_flag(self):
        for command in (["run", "--system", "mysql"], ["suite"], ["table1"], ["matrix"]):
            args = build_parser().parse_args(command + ["--block-size", "8"])
            assert args.block_size == 8
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "mysql", "--block-size", "0"])

    def test_executor_choices_are_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "mysql", "--executor", "gpu"])

    @pytest.mark.parametrize("value", ["0", "-1", "-10"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--system", "mysql", "--mutations-per-token"],
            ["table1", "--typos-per-directive"],
            ["table2", "--variants-per-class"],
            ["figure3", "--experiments-per-directive"],
        ],
    )
    def test_count_flags_must_be_positive(self, argv, value, capsys):
        # regression: 0 used to crash rng.sample (or silently generate
        # nothing), or fail deep in a plugin naming a param nobody typed
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv + [value])
        assert f"argument {argv[-1]}: must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_max_scenarios_per_class_must_be_positive(self, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--system", "mysql", "--max-scenarios-per-class", value]
            )

    def test_semantic_constraints_plugin_is_reachable(self):
        args = build_parser().parse_args(
            ["run", "--system", "postgres", "--plugin", "semantic-constraints"]
        )
        assert args.plugin == "semantic-constraints"

    def test_layout_is_validated(self):
        args = build_parser().parse_args(["run", "--system", "mysql", "--layout", "dvorak"])
        assert args.layout == "dvorak"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--system", "mysql", "--layout", "colemak"])

    def test_suite_defaults(self):
        args = build_parser().parse_args(["suite"])
        assert args.systems == ["mysql", "postgres", "apache", "bind", "djbdns"]
        assert args.plugins == ["spelling", "structural", "semantic-constraints"]
        assert args.store is None and args.resume is False

    def test_suite_csv_lists_are_validated(self):
        args = build_parser().parse_args(["suite", "--systems", "mysql,postgres"])
        assert args.systems == ["mysql", "postgres"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--systems", "mysql,oracle"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["suite", "--plugins", ""])

    def test_suite_csv_duplicates_are_deduped_order_preserving(self):
        # 'mysql,mysql' must mean one mysql cell, not a double-counted one
        args = build_parser().parse_args(["suite", "--systems", "mysql,mysql"])
        assert args.systems == ["mysql"]
        args = build_parser().parse_args(
            ["suite", "--systems", "postgres,mysql,postgres", "--plugins", "spelling,spelling"]
        )
        assert args.systems == ["postgres", "mysql"]
        assert args.plugins == ["spelling"]

    def test_store_and_from_store_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--store", "a", "--from-store", "b"])


class TestCommands:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "mysql" in output and "spelling" in output and "bindzone" in output

    def test_run_command_text_output(self, capsys):
        assert main(["run", "--system", "postgres", "--plugin", "spelling"]) == 0
        output = capsys.readouterr().out
        assert "Resilience profile for Postgres" in output
        assert "detection rate" in output

    def test_run_parallel_matches_serial(self, capsys):
        assert main(["run", "--system", "postgres", "--plugin", "spelling"]) == 0
        serial_output = capsys.readouterr().out
        assert main(
            ["run", "--system", "postgres", "--plugin", "spelling", "--jobs", "3",
             "--executor", "thread"]
        ) == 0
        assert capsys.readouterr().out == serial_output
        assert main(
            ["run", "--system", "postgres", "--plugin", "spelling", "--jobs", "3",
             "--executor", "thread", "--block-size", "2"]
        ) == 0
        assert capsys.readouterr().out == serial_output

    def test_progress_observer_writes_to_tty_streams_only(self):
        import io

        from repro.cli import _progress_observer
        from repro.core.profile import InjectionOutcome, InjectionRecord

        assert _progress_observer(io.StringIO()) is None  # not a TTY: silent

        class FakeTTY(io.StringIO):
            def isatty(self):
                return True

        stream = FakeTTY()
        progress = _progress_observer(stream)
        record = InjectionRecord(
            scenario_id="s1", category="typo", description="",
            outcome=InjectionOutcome.IGNORED,
        )
        progress("mysql", "spelling", record)
        progress("mysql", "spelling", record)
        text = stream.getvalue()
        assert "2 records" in text and "mysql/spelling: 2" in text

    def test_run_command_json_output(self, capsys):
        assert main(["run", "--system", "djbdns", "--plugin", "semantic-dns", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["system"] == "djbdns"
        assert payload["records"]

    def test_run_with_structural_plugin_and_limit(self, capsys):
        assert main(
            ["run", "--system", "mysql", "--plugin", "structural", "--max-scenarios-per-class", "3"]
        ) == 0
        assert "Resilience profile for MySQL" in capsys.readouterr().out

    def test_table2_command(self, capsys):
        assert main(["table2", "--variants-per-class", "3"]) == 0
        output = capsys.readouterr().out
        assert "Mixed-case directive names" in output

    def test_table3_command(self, capsys):
        assert main(["table3"]) == 0
        output = capsys.readouterr().out
        assert "Missing PTR" in output and "djbdns" in output

    def test_figure3_command(self, capsys):
        assert main(["figure3", "--experiments-per-directive", "4"]) == 0
        output = capsys.readouterr().out
        assert "excellent" in output
        assert "Postgresql" in output

    def test_run_with_output_then_report(self, capsys, tmp_path):
        saved = tmp_path / "profile.json"
        assert main(["run", "--system", "postgres", "--output", str(saved)]) == 0
        capsys.readouterr()
        assert saved.exists()
        assert main(["report", str(saved)]) == 0
        output = capsys.readouterr().out
        assert "Resilience profile for Postgres" in output
        assert "typo-" in output

    def test_run_output_creates_missing_parent_directories(self, capsys, tmp_path):
        # regression: --output results/out.json used to crash with a bare
        # FileNotFoundError when results/ did not exist
        saved = tmp_path / "results" / "nested" / "out.json"
        assert main(["run", "--system", "postgres", "--output", str(saved)]) == 0
        capsys.readouterr()
        assert saved.exists()

    def test_table1_command(self, capsys):
        assert main(["table1", "--typos-per-directive", "2"]) == 0
        output = capsys.readouterr().out
        assert "# of Injected Errors" in output

    def test_run_semantic_constraints_with_process_executor(self, capsys):
        # regression: the catalog's violating values used to be lambdas,
        # which cannot cross a process boundary
        assert main(
            ["run", "--system", "postgres", "--plugin", "semantic-constraints",
             "--jobs", "2", "--executor", "process"]
        ) == 0
        assert "Resilience profile for Postgres" in capsys.readouterr().out


class TestSuiteCommand:
    def test_suite_runs_and_prints_overview(self, capsys):
        assert main(
            ["suite", "--systems", "postgres", "--plugins", "spelling,semantic-constraints"]
        ) == 0
        output = capsys.readouterr().out
        assert "Postgres" in output
        assert "# of Injected Errors" in output
        assert "scenarios executed" in output

    def test_suite_store_then_resume_replays_nothing(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = [
            "suite", "--systems", "mysql,postgres",
            "--plugins", "spelling,semantic-constraints", "--store", store,
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--resume"]) == 0
        second = capsys.readouterr().out
        assert "skipped (already stored): 0" in first
        assert "scenarios executed: 0" in second
        # identical tables whether rendered live or after a full resume
        assert first.splitlines()[-7:] == second.splitlines()[-7:]

    def test_suite_refuses_existing_store_without_resume(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = ["suite", "--systems", "postgres", "--plugins", "spelling", "--store", store]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert "already exists" in capsys.readouterr().err

    def test_suite_resume_with_other_seed_fails(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        base = ["suite", "--systems", "postgres", "--plugins", "spelling", "--store", store]
        assert main(base) == 0
        capsys.readouterr()
        assert main([*base, "--resume", "--seed", "1"]) == 1
        assert "seed" in capsys.readouterr().err

    def test_report_renders_a_store_directory(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(
            ["suite", "--systems", "postgres", "--plugins", "spelling", "--store", store]
        ) == 0
        capsys.readouterr()
        assert main(["report", store]) == 0
        output = capsys.readouterr().out
        assert "result store" in output
        assert "Resilience profile for Postgres" in output


class TestSpecCommands:
    def test_suite_dump_spec_reruns_to_identical_output(self, capsys, tmp_path):
        argv = ["suite", "--systems", "mysql,postgres", "--plugins", "spelling,semantic-constraints"]
        assert main(argv) == 0
        live = capsys.readouterr().out
        assert main([*argv, "--dump-spec"]) == 0
        spec_text = capsys.readouterr().out
        spec_file = tmp_path / "experiment.toml"
        spec_file.write_text(spec_text, encoding="utf-8")
        assert main(["validate", str(spec_file)]) == 0
        capsys.readouterr()
        assert main(["run-spec", str(spec_file)]) == 0
        assert capsys.readouterr().out == live

    def test_run_dump_spec_reruns_to_identical_records(self, capsys, tmp_path):
        assert main(["run", "--system", "postgres", "--plugin", "spelling", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert main(["run", "--system", "postgres", "--plugin", "spelling", "--dump-spec"]) == 0
        spec_file = tmp_path / "run.toml"
        spec_file.write_text(capsys.readouterr().out, encoding="utf-8")
        # re-running the dumped spec persists the very same records
        from repro.core.spec import ExperimentSpec, StoreSpec

        spec = ExperimentSpec.from_file(spec_file)
        spec = ExperimentSpec(
            systems=spec.systems,
            plugins=spec.plugins,
            execution=spec.execution,
            store=StoreSpec(root=str(tmp_path / "store")),
        )
        (tmp_path / "stored.toml").write_text(spec.to_toml(), encoding="utf-8")
        assert main(["run-spec", str(tmp_path / "stored.toml")]) == 0
        capsys.readouterr()
        from repro.core.store import ResultStore

        stored = [
            record.to_dict() for _, record in ResultStore(tmp_path / "store").iter_records("postgres")
        ]
        by_id = {entry["scenario_id"]: entry["outcome"] for entry in stored}
        assert by_id == {
            entry["scenario_id"]: entry["outcome"] for entry in payload["records"]
        }

    def test_run_spec_json_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "systems": ["postgres"],
                    "plugins": [{"name": "semantic-constraints", "params": {"system": "postgres"}}],
                    "execution": {"seed": 2008},
                }
            ),
            encoding="utf-8",
        )
        assert main(["run-spec", str(spec_file)]) == 0
        output = capsys.readouterr().out
        assert "Postgres" in output and "# of Injected Errors" in output

    def test_run_spec_store_then_resume(self, capsys, tmp_path):
        store = tmp_path / "store"
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {
                    "systems": ["postgres"],
                    "plugins": ["spelling"],
                    "execution": {"seed": 2008, "mutations_per_token": 1},
                    "store": {"root": str(store), "resume": True},
                }
            ),
            encoding="utf-8",
        )
        assert main(["run-spec", str(spec_file)]) == 0
        first = capsys.readouterr().out
        assert "skipped (already stored): 0" in first
        assert main(["run-spec", str(spec_file)]) == 0
        second = capsys.readouterr().out
        assert "scenarios executed: 0" in second

    def test_validate_reports_exact_path_and_fails(self, capsys, tmp_path):
        spec_file = tmp_path / "bad.toml"
        spec_file.write_text(
            "\n".join(
                [
                    '[[systems]]',
                    'name = "postgres"',
                    "",
                    '[[plugins]]',
                    'name = "spelling"',
                    "[plugins.params]",
                    'layout = "qwertz-xx"',
                ]
            ),
            encoding="utf-8",
        )
        assert main(["validate", str(spec_file)]) == 1
        err = capsys.readouterr().err
        assert "plugins[0].params.layout" in err and "qwertz-xx" in err
        assert str(spec_file) in err  # the file is named, as docs/SPEC.md shows

    def test_validate_rejects_duplicate_systems(self, capsys, tmp_path):
        spec_file = tmp_path / "dup.json"
        spec_file.write_text(
            json.dumps({"systems": ["mysql", "mysql"], "plugins": ["spelling"]}),
            encoding="utf-8",
        )
        assert main(["validate", str(spec_file)]) == 1
        assert "duplicate system" in capsys.readouterr().err

    def test_validate_accepts_shipped_specs(self, capsys):
        import glob

        shipped = sorted(glob.glob("examples/specs/*"))
        assert len(shipped) >= 4
        for path in shipped:
            assert main(["validate", path]) == 0, path
        out = capsys.readouterr().out
        assert out.count("OK") == len(shipped)

    def test_validate_json_valid_spec(self, capsys):
        assert main(["validate", "examples/specs/smoke.json", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report == {"valid": True, "errors": []}

    def test_validate_json_reports_exact_path(self, capsys, tmp_path):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(
            json.dumps(
                {
                    "systems": ["postgres"],
                    "plugins": [{"name": "spelling", "params": {"layout": "qwertz-xx"}}],
                }
            ),
            encoding="utf-8",
        )
        assert main(["validate", str(spec_file), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert report["errors"][0]["path"] == "plugins[0].params.layout"
        assert "qwertz-xx" in report["errors"][0]["message"]

    def test_validate_json_unreadable_file_is_json_not_traceback(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "absent.toml"), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["valid"] is False
        assert report["errors"][0]["path"] is None
        assert "cannot read" in report["errors"][0]["message"]

    def test_run_spec_unreadable_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["run-spec", str(tmp_path / "absent.toml")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestStoreBackedTables:
    def test_table1_from_store_matches_live_run(self, capsys, tmp_path):
        store = str(tmp_path / "t1")
        assert main(["table1", "--typos-per-directive", "2", "--store", store]) == 0
        live = capsys.readouterr().out
        assert main(["table1", "--from-store", store]) == 0
        assert capsys.readouterr().out == live

    def test_table3_from_store_matches_live_run(self, capsys, tmp_path):
        store = str(tmp_path / "t3")
        assert main(["table3", "--store", store]) == 0
        live = capsys.readouterr().out
        assert main(["table3", "--from-store", store]) == 0
        assert capsys.readouterr().out == live

    def test_figure3_from_store_matches_live_run(self, capsys, tmp_path):
        store = str(tmp_path / "f3")
        assert main(["figure3", "--experiments-per-directive", "4", "--store", store]) == 0
        live = capsys.readouterr().out
        assert main(["figure3", "--from-store", store]) == 0
        assert capsys.readouterr().out == live

    def test_table2_from_store_matches_live_run(self, capsys, tmp_path):
        store = str(tmp_path / "t2")
        assert main(["table2", "--variants-per-class", "3", "--store", store]) == 0
        live = capsys.readouterr().out
        assert main(["table2", "--from-store", store]) == 0
        assert capsys.readouterr().out == live

    def test_bench_store_refuses_existing_directory(self, capsys, tmp_path):
        store = str(tmp_path / "t3")
        assert main(["table3", "--store", store]) == 0
        capsys.readouterr()
        assert main(["table3", "--store", store]) == 1
        assert "already exists" in capsys.readouterr().err

    def test_from_store_rejects_a_store_of_the_wrong_kind(self, capsys, tmp_path):
        # rendering Table 1 from a table3 store would produce plausible-
        # looking but wrong numbers; the manifest kind prevents it
        store = str(tmp_path / "t3")
        assert main(["table3", "--store", store]) == 0
        capsys.readouterr()
        assert main(["table1", "--from-store", store]) == 1
        assert "table3" in capsys.readouterr().err

    def test_table1_from_store_accepts_a_suite_store(self, capsys, tmp_path):
        store = str(tmp_path / "suite")
        assert main(
            ["suite", "--systems", "postgres", "--plugins", "spelling", "--store", store]
        ) == 0
        capsys.readouterr()
        assert main(["table1", "--from-store", store]) == 0
        assert "Postgres" in capsys.readouterr().out


#: One small run of every artefact command.
ARTIFACT_ARGV = {
    "table1": ["table1", "--typos-per-directive", "1"],
    "table2": ["table2", "--variants-per-class", "1"],
    "table3": ["table3"],
    "figure3": ["figure3", "--experiments-per-directive", "1"],
    "matrix": [
        "matrix", "--systems", "nginx,mysql", "--plugins", "omission",
        "--max-scenarios-per-class", "2",
    ],
}


class TestArtifactExecutionFlags:
    @pytest.mark.parametrize(
        "flag, field, value",
        [
            (["--jobs", "2"], "jobs", 2),
            (["--executor", "thread"], "executor", "thread"),
            (["--block-size", "3"], "block_size", 3),
            (["--no-incremental"], "incremental", False),
            (["--timeout-seconds", "30"], "timeout_seconds", 30.0),
            (["--max-retries", "1"], "max_retries", 1),
            (["--retry-backoff-seconds", "0.5"], "retry_backoff_seconds", 0.5),
        ],
    )
    @pytest.mark.parametrize("command", sorted(ARTIFACT_ARGV))
    def test_flag_reaches_the_engine(self, command, flag, field, value, capsys, monkeypatch):
        from repro.core.suite import CampaignSuite
        from repro.sut.incremental import INCREMENTAL_STATS

        suites = []
        from_spec = CampaignSuite.from_spec.__func__

        def spy(cls, spec, *args, **kwargs):
            suites.append(from_spec(cls, spec, *args, **kwargs))
            return suites[-1]

        monkeypatch.setattr(CampaignSuite, "from_spec", classmethod(spy))
        INCREMENTAL_STATS.reset()
        assert main(ARTIFACT_ARGV[command] + flag) == 0
        (suite,) = suites
        assert getattr(suite.spec.execution, field) == value
        if field in ("timeout_seconds", "max_retries", "retry_backoff_seconds"):
            assert getattr(suite.policy, field) == value
        else:
            assert getattr(suite, field) == value
        if field == "incremental":
            assert INCREMENTAL_STATS.attempts == INCREMENTAL_STATS.delta_starts == 0

    def test_table1_is_executor_invariant(self, capsys, tmp_path):
        # Table 1's directive selection is a spelling param, not a closure,
        # so its campaigns pickle into worker processes
        from repro.core.store import ResultStore, diff_stores

        parallel, serial = tmp_path / "process", tmp_path / "serial"
        argv = ARTIFACT_ARGV["table1"]
        assert main(argv + ["--executor", "process", "-j", "2", "--store", str(parallel)]) == 0
        assert main(argv + ["--store", str(serial)]) == 0
        assert diff_stores(ResultStore(parallel), ResultStore(serial)) == []


class TestMatrixCommand:
    def test_matrix_defaults_cover_all_plain_systems(self):
        args = build_parser().parse_args(["matrix"])
        assert args.systems == ["mysql", "postgres", "apache", "bind", "djbdns", "nginx", "sshd"]
        assert "omission" in args.plugins

    def test_matrix_store_and_from_store_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matrix", "--store", "a", "--from-store", "b"])

    def test_matrix_live_then_from_store_byte_identical(self, capsys, tmp_path):
        store = tmp_path / "mx"
        assert main([
            "matrix", "--systems", "nginx,sshd", "--plugins", "omission",
            "--max-scenarios-per-class", "4", "--store", str(store),
        ]) == 0
        live = capsys.readouterr().out
        assert main(["matrix", "--from-store", str(store)]) == 0
        assert capsys.readouterr().out == live
        assert "nginx" in live and "sshd" in live and "omission" in live

    def test_matrix_from_suite_store_renders(self, capsys, tmp_path):
        # acceptance path: a `conferr suite --store` over the new systems
        # re-renders through `conferr matrix --from-store`
        store = tmp_path / "suite-store"
        assert main([
            "suite", "--systems", "nginx,sshd", "--plugins", "omission,spelling",
            "--max-scenarios-per-class", "3", "--store", str(store),
        ]) == 0
        capsys.readouterr()
        assert main(["matrix", "--from-store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "omission" in out and "spelling" in out and "overall" in out

    def test_matrix_from_store_with_resume_is_refused(self, capsys, tmp_path):
        # regression: --resume used to be silently ignored with --from-store,
        # re-rendering a partial store instead of continuing the run
        store = tmp_path / "mx"
        assert main([
            "matrix", "--systems", "nginx", "--plugins", "omission",
            "--max-scenarios-per-class", "2", "--store", str(store),
        ]) == 0
        capsys.readouterr()
        assert main(["matrix", "--from-store", str(store), "--resume"]) == 1
        err = capsys.readouterr().err
        assert "--resume needs --store" in err

    def test_matrix_resume_continues_into_the_same_store(self, capsys, tmp_path):
        store = tmp_path / "mx"
        argv = [
            "matrix", "--systems", "nginx", "--plugins", "omission",
            "--max-scenarios-per-class", "2", "--store", str(store),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--resume"]) == 0
        assert capsys.readouterr().out == first

    def test_run_command_accepts_new_systems(self, capsys):
        assert main(["run", "--system", "nginx", "--plugin", "omission"]) == 0
        out = capsys.readouterr().out
        assert "nginx" in out
        assert main(["run", "--system", "sshd", "--plugin", "omission"]) == 0
        out = capsys.readouterr().out
        assert "sshd" in out

    def test_list_includes_new_systems_plugins_and_dialects(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "nginx" in out and "sshd" in out
        assert "omission" in out
        assert "nginxconf" in out and "sshdconf" in out
