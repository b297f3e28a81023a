"""Apache's splice-index delta start must leave the server a full start would.

Matching records is not enough: a delta start whose replay dropped the
``<VirtualHost>`` members left ``document_roots`` wrong and still produced
the same records, because the functional suite does not look at every
attribute.  These tests compare the live server after ``start_delta``
against a fresh full ``start()`` on the materialised files: the
``StartResult``, the ports, document roots, virtual hosts, the effective
directives (key order included), the warnings, and whether the delta
declared the scenario a no-op by returning ``baseline.result`` itself.

A refused start leaves no server to observe (the walk's leftover attributes
are not state a functional test can reach), so refused starts compare the
``StartResult`` and that neither server runs.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.engine import InjectionEngine
from repro.parsers.base import serialize_tree
from repro.plugins import SpellingMistakesPlugin
from repro.sut.apache import SimulatedApache
from repro.sut.apache.directives import DEFAULT_HTTPD_CONF
from repro.sut.incremental import (
    INCREMENTAL_STATS,
    NodeChange,
    ScenarioDelta,
    clear_baseline_cache,
    node_at,
)

FILENAME = "httpd.conf"


@pytest.fixture(autouse=True)
def _isolate_incremental_state():
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()
    yield
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()


def _live_state(sut: SimulatedApache):
    return (
        sut.listen_ports,
        sut.document_roots,
        sut.virtual_hosts,
        list(sut.effective_directives.items()),
        sut.last_warnings,
    )


@functools.lru_cache(maxsize=None)
def _pristine_state(text):
    sut = SimulatedApache()
    result = sut.start({FILENAME: text})
    assert result.started
    return result, _live_state(sut)


def assert_parity(baseline, delta_sut, delta_result, files):
    """``delta_result`` from ``delta_sut`` matches a full start on ``files``."""
    full_sut = SimulatedApache()
    full_result = full_sut.start(files)
    assert delta_result is not None
    assert (delta_result.started, delta_result.errors, delta_result.warnings) == (
        full_result.started,
        full_result.errors,
        full_result.warnings,
    )
    assert delta_sut.is_running() == full_sut.is_running() == full_result.started
    if not full_result.started:
        assert delta_result is not baseline.result
        return
    full_state = _live_state(full_sut)
    assert _live_state(delta_sut) == full_state
    # a no-op: same warnings, ports, roots and hosts, and the same
    # directive values (their key order is not observable by the suite)
    pristine_result, pristine = _pristine_state(baseline.files[FILENAME])
    unchanged = (
        full_result.warnings == pristine_result.warnings
        and full_state[:3] == pristine[:3]
        and dict(full_state[3]) == dict(pristine[3])
    )
    assert (delta_result is baseline.result) == unchanged


def _edited_files(baseline, edits):
    tree = baseline.trees.get(FILENAME).clone()
    for change in edits:
        node = node_at(tree, change.path)
        node.name, node.value = change.name, change.value
    return {FILENAME: serialize_tree(tree)}


def _prepare(text: str = DEFAULT_HTTPD_CONF):
    sut = SimulatedApache(text)
    baseline = sut.prepare(sut.default_configuration())
    assert baseline is not None and baseline.state is not None
    return sut, baseline


def _path_of(baseline, predicate):
    tree = baseline.trees.get(FILENAME)
    return next(path for node, path in tree.root.walk_with_paths() if path and predicate(node))


def _change(baseline, path, name=None, value=None):
    node = node_at(baseline.trees.get(FILENAME), path)
    return NodeChange(
        tree=FILENAME,
        path=path,
        kind=node.kind,
        name=node.name if name is None else name,
        value=node.value if value is None else value,
        attrs=dict(node.attrs),
    )


def _directive(name, value=None, section=None):
    """Predicate: the directive ``name`` (with ``value``), under ``section``."""

    def matches(node):
        if node.kind != "directive" or node.name != name:
            return False
        if value is not None and node.value != value:
            return False
        parent = node.parent
        return section is None or (parent is not None and parent.name == section)

    return matches


class TestShippedSweepParity:
    """Every omission and transposition typo on the shipped ``httpd.conf``."""

    @pytest.fixture(scope="class")
    def sweep(self):
        clear_baseline_cache()
        plugin = SpellingMistakesPlugin.from_params({"models": ["omission", "transposition"]})
        engine = InjectionEngine(SimulatedApache(), plugin, seed=2008)
        config_set, view_set, scenarios = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
        assert prepared is not None
        return engine, config_set, view_set, list(scenarios), prepared

    def test_every_scenario_splices_and_matches_a_full_start(self, sweep):
        engine, config_set, view_set, scenarios, prepared = sweep
        assert len(scenarios) == 4946
        reused = 0
        for scenario in scenarios:
            with scenario.applied_to(view_set) as mutated:
                changes = engine.plugin.view.scenario_changes(scenario, mutated, prepared.trees)
                assert changes is not None, scenario.scenario_id
                vetted = tuple(engine._vet_change(change, prepared.trees) for change in changes)
            assert None not in vetted, scenario.scenario_id
            files = engine.materialize(scenario, config_set, view_set)
            delta_sut = SimulatedApache()
            result = delta_sut.start_delta(prepared, ScenarioDelta(vetted))
            assert result is not None, scenario.scenario_id
            assert_parity(prepared, delta_sut, result, files)
            reused += result is prepared.result
        # the sweep exercises both verdicts
        assert 0 < reused < len(scenarios)


class TestHandBuiltDeltas:
    def test_loadmodule_typo_that_flips_a_guard_falls_back(self):
        text = (
            "Listen 80\nDocumentRoot /srv\n"
            "LoadModule mime_module modules/mod_mime.so\n"
            "<IfModule mod_mime.c>\nTypesConfig /etc/mime.types\n</IfModule>\n"
        )
        sut, baseline = _prepare(text)
        path = _path_of(baseline, _directive("LoadModule"))
        flip = _change(baseline, path, value="mime_module modules/mod_mie.so")
        assert sut.start_delta(baseline, ScenarioDelta((flip,))) is None

    def test_loadmodule_typo_that_keeps_every_guard_splices(self):
        sut, baseline = _prepare()
        path = _path_of(baseline, _directive("LoadModule", "cgi_module modules/mod_cgi.so"))
        change = _change(baseline, path, value="cgi_module modules/mod_cg.so")
        result = sut.start_delta(baseline, ScenarioDelta((change,)))
        assert result is not None and result.started
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_change_inside_the_skipped_worker_block_is_a_noop(self):
        sut, baseline = _prepare()
        path = _path_of(baseline, _directive("ThreadsPerChild", section="IfModule"))
        change = _change(baseline, path, value="2x5")
        result = sut.start_delta(baseline, ScenarioDelta((change,)))
        assert result is baseline.result
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_servername_lost_inside_virtualhost_warns(self):
        sut, baseline = _prepare()
        path = _path_of(baseline, _directive("ServerName", section="VirtualHost"))
        # the line still parses, as another valid directive: the host has
        # no ServerName left, which Apache only warns about
        change = _change(baseline, path, name="ServerAdmin")
        result = sut.start_delta(baseline, ScenarioDelta((change,)))
        assert result is not None and result.started
        assert any("ServerName" in warning for warning in result.warnings)
        assert "servername" not in sut.virtual_hosts[0]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_virtualhost_document_root_typo_reaches_the_live_roots(self):
        sut, baseline = _prepare()
        path = _path_of(baseline, _directive("DocumentRoot", section="VirtualHost"))
        change = _change(baseline, path, value="/var/ww/html")
        result = sut.start_delta(baseline, ScenarioDelta((change,)))
        assert sut.document_roots == ["/var/www/html", "/var/ww/html"]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_listen_typo_to_another_valid_port(self):
        sut, baseline = _prepare()
        path = _path_of(baseline, _directive("Listen"))
        change = _change(baseline, path, value="8")
        result = sut.start_delta(baseline, ScenarioDelta((change,)))
        assert result is not None and result.started and result is not baseline.result
        assert sut.listen_ports == [8]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_renaming_a_first_occurrence_reorders_effective_directives(self):
        text = "Listen 80\nTimeout 10\nKeepAlive Off\nTimeout 20\nDocumentRoot /srv\n"
        sut, baseline = _prepare(text)
        first = _path_of(baseline, _directive("Timeout", "10"))
        change = _change(baseline, first, name="KeepAliveTimeout")
        result = sut.start_delta(baseline, ScenarioDelta((change,)))
        assert list(sut.effective_directives) == [
            "listen", "keepalivetimeout", "keepalive", "timeout", "documentroot",
        ]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_first_error_in_document_order_wins(self):
        sut, baseline = _prepare()
        late = _change(baseline, _path_of(baseline, _directive("LogLevel")), value="wrn")
        early = _change(baseline, _path_of(baseline, _directive("Timeout")), value="12O")
        result = sut.start_delta(baseline, ScenarioDelta((late, early)))
        assert not result.started
        assert result.errors == ["Timeout: '12O' is not a valid number"]
        assert_parity(baseline, sut, result, _edited_files(baseline, [late, early]))

    def test_losing_the_only_listen_fails_like_a_full_start(self):
        sut, baseline = _prepare()
        change = _change(baseline, _path_of(baseline, _directive("Listen")), name="ListenBacklog")
        result = sut.start_delta(baseline, ScenarioDelta((change,)))
        assert result.errors == ["no listening sockets available, shutting down"]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_section_header_edits_fall_back(self):
        sut, baseline = _prepare()
        path = _path_of(baseline, lambda node: node.kind == "section" and node.name == "Directory")
        change = _change(baseline, path, name="Directroy")
        assert sut.start_delta(baseline, ScenarioDelta((change,))) is None


def test_start_delta_builds_no_patched_tree(monkeypatch):
    """The splice path never re-walks a tree: no patching, no full walk."""
    import repro.sut.incremental as incremental

    def refuse(*_args, **_kwargs):
        raise AssertionError("the Apache delta path patched or walked a tree")

    sut, baseline = _prepare()
    monkeypatch.setattr(incremental, "patch_tree", refuse)
    monkeypatch.setattr(incremental, "patched_trees", refuse)
    monkeypatch.setattr(SimulatedApache, "_start_from_tree", refuse)
    change = _change(baseline, _path_of(baseline, _directive("Timeout")), value="12")
    result = sut.start_delta(baseline, ScenarioDelta((change,)))
    assert result.started and sut.effective_directives["timeout"] == "12"

