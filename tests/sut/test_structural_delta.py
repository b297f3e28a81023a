"""Structural deltas must leave every SUT exactly as a full start would.

A structural scenario (a directive or section omitted, duplicated, moved
or borrowed) reaches the delta path as child-list edits on the baseline
trees: the guard asks the dialect whether the spliced child list re-parses
as spliced, round-trips any node that is not a moved baseline subtree, and
the SUT re-walks the spliced tree without serialising or parsing it.

These tests hold that path to the full one.  For every structural- and
omission-plugin scenario on the shipped Apache, nginx, sshd, MySQL and
Postgres configurations they compare, against a fresh full ``start()`` on
``materialize_cloning``'s files (the reference materialisation), the
``StartResult``, the server's observable state and whether the delta
declared the scenario a no-op by returning ``baseline.result`` itself.
Hand-built cases pin the places where position decides meaning, and a spy
shows the edit path never parses a whole file.
"""

from __future__ import annotations

import functools

import pytest

from repro.core.engine import InjectionEngine
from repro.core.infoset import ConfigNode
from repro.core.profile import InjectionOutcome
from repro.core.templates.base import (
    DeleteOperation,
    FaultScenario,
    InsertOperation,
    MoveOperation,
    NodeAddress,
)
from repro.parsers.base import ConfigDialect, get_dialect
from repro.plugins.omission import OmissionDuplicationPlugin
from repro.plugins.structural import StructuralErrorsPlugin
from repro.sut.apache import SimulatedApache
from repro.sut.incremental import INCREMENTAL_STATS, ChildEdit, clear_baseline_cache
from repro.sut.mysql import SimulatedMySQL
from repro.sut.nginx import SimulatedNginx
from repro.sut.postgres import SimulatedPostgres
from repro.sut.sshd import SimulatedSshd


@pytest.fixture(autouse=True)
def _isolate_incremental_state():
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()
    yield
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()


# ------------------------------------------------------- observable state
def _apache_state(sut):
    return (
        sut.listen_ports,
        sut.document_roots,
        sut.virtual_hosts,
        list(sut.effective_directives.items()),
        sut.last_warnings,
    )


def _nginx_state(sut):
    return (
        sut.listen_ports,
        sut.server_roots,
        sut.mime_map,
        list(sut.effective_directives.items()),
        sut.last_warnings,
    )


def _sshd_state(sut):
    return (
        sut.effective_settings,
        sut.match_blocks,
        sut.listen_ports,
        sut.host_keys,
        sut.last_warnings,
    )


def _mysql_state(sut):
    return (sut.effective_settings, sut.last_warnings, sut._engine.max_connections)


def _postgres_state(sut):
    return (sut.effective_settings, sut._engine.max_connections)


def _admission_limit(sut):
    return int(sut.effective_settings.get("max_connections") or 1)


#: SUT class -> (observable state, what its no-op verdict reads).  The
#: verdicts are the SUTs' own identity tests: the start warnings and the
#: state the diagnosis suite can observe (directive values, not the order
#: their names were first seen in).
OBSERVERS = {
    SimulatedApache: (
        _apache_state,
        lambda sut, result: (result.warnings, *_apache_state(sut)[:3], dict(sut.effective_directives)),
    ),
    SimulatedNginx: (
        _nginx_state,
        lambda sut, result: (result.warnings, *_nginx_state(sut)[:3], dict(sut.effective_directives)),
    ),
    SimulatedSshd: (_sshd_state, lambda sut, result: (result.warnings, *_sshd_state(sut)[:4])),
    SimulatedMySQL: (_mysql_state, lambda sut, result: (result.warnings, _admission_limit(sut))),
    SimulatedPostgres: (_postgres_state, lambda sut, result: (result.warnings, _admission_limit(sut))),
}


@functools.lru_cache(maxsize=None)
def _pristine_verdict(sut_class):
    sut = sut_class()
    result = sut.start(sut.default_configuration())
    assert result.started
    return OBSERVERS[sut_class][1](sut, result)


def assert_parity(sut_class, baseline, delta_sut, delta_result, files):
    """``delta_result`` from ``delta_sut`` matches a full start on ``files``."""
    state, verdict = OBSERVERS[sut_class]
    full_sut = sut_class()
    full_result = full_sut.start(files)
    assert delta_result is not None
    assert (delta_result.started, delta_result.errors, delta_result.warnings) == (
        full_result.started,
        full_result.errors,
        full_result.warnings,
    )
    assert delta_sut.is_running() == full_sut.is_running() == full_result.started
    if not full_result.started:
        # a refused start leaves no server to observe
        assert delta_result is not baseline.result
        return
    assert state(delta_sut) == state(full_sut)
    unchanged = verdict(full_sut, full_result) == _pristine_verdict(sut_class)
    assert (delta_result is baseline.result) == unchanged


# ------------------------------------------------------------- harness
def _campaign(sut, plugin):
    engine = InjectionEngine(sut, plugin, seed=2008)
    config_set, view_set, scenarios = engine.generate_scenarios()
    prepared = engine.prepare_incremental(config_set, view_set)
    assert prepared is not None
    return engine, config_set, view_set, list(scenarios), prepared


def _vetted_delta(engine, scenario, view_set, prepared):
    """The delta the engine's guard hands the SUT, or None (full path)."""
    with scenario.applied_to(view_set) as mutated:
        changes = engine.plugin.view.scenario_changes(scenario, mutated, prepared.trees)
    if changes is None:
        return None
    assert all(isinstance(change, ChildEdit) for change in changes), scenario.scenario_id
    return engine._vet_edits(changes, prepared.trees)


def _scenario(*operations):
    return FaultScenario("hand-built", "hand-built structural edit", "hand", tuple(operations))


def _address_of(view_set, tree_name, predicate):
    tree = view_set.get(tree_name)
    path = next(path for node, path in tree.root.walk_with_paths() if path and predicate(node))
    return NodeAddress(tree_name, path)


def _named(kind, name):
    return lambda node: node.kind == kind and node.name == name


def _check(engine, config_set, view_set, prepared, scenario):
    """Run one hand-built scenario through the guard and the SUT; the
    delta (None when the guard refused) after asserting parity."""
    delta = _vetted_delta(engine, scenario, view_set, prepared)
    if delta is not None:
        sut_class = type(engine.sut)
        delta_sut = sut_class()
        result = delta_sut.start_delta(prepared, delta)
        assert_parity(
            sut_class, prepared, delta_sut, result,
            engine.materialize_cloning(scenario, config_set, view_set),
        )
    return delta


# ---------------------------------------------------------- shipped sweeps
SWEEPS = [
    pytest.param(sut_class, plugin, id=f"{sut_class.name}-{plugin.name}")
    for sut_class in OBSERVERS
    for plugin in (StructuralErrorsPlugin, OmissionDuplicationPlugin)
]


@pytest.mark.parametrize("sut_class, plugin", SWEEPS)
def test_every_shipped_scenario_splices_like_a_full_start(sut_class, plugin):
    engine, config_set, view_set, scenarios, prepared = _campaign(sut_class(), plugin())
    spliced = reused = 0
    for scenario in scenarios:
        delta = _vetted_delta(engine, scenario, view_set, prepared)
        if delta is None:
            continue
        files = engine.materialize_cloning(scenario, config_set, view_set)
        delta_sut = sut_class()
        result = delta_sut.start_delta(prepared, delta)
        assert_parity(sut_class, prepared, delta_sut, result, files)
        spliced += 1
        reused += result is prepared.result
    assert spliced > 0, "the edit path never engaged"
    if sut_class in (SimulatedApache, SimulatedMySQL, SimulatedPostgres):
        # every edit of these files is vouched for and revalidated spliced
        assert spliced == len(scenarios)
    if sut_class is SimulatedApache:
        # the sweep exercises both no-op verdicts
        assert 0 < reused < spliced


# -------------------------------------------------------- hand-built cases
class TestApache:
    def test_move_into_a_skipped_ifmodule_drops_the_listener(self):
        engine, config_set, view_set, _, prepared = _campaign(SimulatedApache(), StructuralErrorsPlugin())
        listen = _address_of(view_set, "httpd.conf", _named("directive", "Listen"))
        worker = _address_of(
            view_set, "httpd.conf", lambda n: n.kind == "section" and n.value == "worker.c"
        )
        delta = _check(engine, config_set, view_set, prepared, _scenario(MoveOperation(listen, worker)))
        assert delta is not None
        result = SimulatedApache().start_delta(prepared, delta)
        assert result.errors == ["no listening sockets available, shutting down"]

    def test_move_within_one_parent_lands_where_the_full_path_puts_it(self):
        engine, config_set, view_set, _, prepared = _campaign(SimulatedApache(), StructuralErrorsPlugin())
        timeout = _address_of(view_set, "httpd.conf", _named("directive", "Timeout"))
        root = NodeAddress("httpd.conf", ())
        for index in (0, timeout.path[0], timeout.path[0] + 1, 10**6):
            scenario = _scenario(MoveOperation(timeout, root, index=index))
            assert _check(engine, config_set, view_set, prepared, scenario) is not None

    def test_loadmodule_delete_that_flips_a_guard(self):
        text = (
            "Listen 80\nDocumentRoot /srv\n"
            "LoadModule mime_module modules/mod_mime.so\n"
            "<IfModule !mod_mime.c>\nBogusDirective on\n</IfModule>\n"
        )
        engine, config_set, view_set, _, prepared = _campaign(
            SimulatedApache(text), StructuralErrorsPlugin()
        )
        load = _address_of(view_set, "httpd.conf", _named("directive", "LoadModule"))
        delta = _check(engine, config_set, view_set, prepared, _scenario(DeleteOperation(load)))
        assert delta is not None
        result = SimulatedApache(text).start_delta(prepared, delta)
        assert not result.started and "BogusDirective" in result.errors[0]

    def test_foreign_node_apache_cannot_write_falls_back(self):
        engine, config_set, view_set, _, prepared = _campaign(SimulatedApache(), StructuralErrorsPlugin())
        directory = _address_of(view_set, "httpd.conf", _named("section", "Directory"))
        scenario = _scenario(InsertOperation(directory, ConfigNode("item", value="127.0.0.1")))
        assert _check(engine, config_set, view_set, prepared, scenario) is None
        record = engine.run_scenario(scenario, config_set, view_set, incremental=prepared)
        assert record.outcome is InjectionOutcome.INJECTION_IMPOSSIBLE
        assert INCREMENTAL_STATS.guard_fallbacks == 1


class TestHeaderGroupedFormats:
    """sshd ``Match`` blocks and INI sections run to the next header."""

    def test_sshd_directive_appended_after_a_match_block_falls_back(self):
        engine, config_set, view_set, _, prepared = _campaign(SimulatedSshd(), StructuralErrorsPlugin())
        port = _address_of(view_set, "sshd_config", _named("directive", "Port"))
        node = view_set.get("sshd_config").root.children[port.path[0]]
        scenario = _scenario(InsertOperation(NodeAddress("sshd_config", ()), node.clone()))
        assert _check(engine, config_set, view_set, prepared, scenario) is None
        record = engine.run_scenario(scenario, config_set, view_set, incremental=prepared)
        assert record.outcome is InjectionOutcome.INJECTION_IMPOSSIBLE
        assert INCREMENTAL_STATS.guard_fallbacks == 1

    def test_sshd_global_directive_duplicated_before_the_match_block_splices(self):
        engine, config_set, view_set, _, prepared = _campaign(SimulatedSshd(), StructuralErrorsPlugin())
        port = _address_of(view_set, "sshd_config", _named("directive", "Port"))
        node = view_set.get("sshd_config").root.children[port.path[0]]
        scenario = _scenario(
            InsertOperation(NodeAddress("sshd_config", ()), node.clone(), index=port.path[0] + 1)
        )
        assert _check(engine, config_set, view_set, prepared, scenario) is not None

    def test_ini_root_insert_after_a_section_falls_back(self):
        # the line lands under the previous [section] header when re-parsed
        engine, config_set, view_set, _, prepared = _campaign(SimulatedMySQL(), StructuralErrorsPlugin())
        root = view_set.get("my.cnf").root
        sections = [index for index, node in enumerate(root.children) if node.kind == "section"]
        directive = root.children[sections[1]].children_of_kind("directive")[0]
        scenario = _scenario(
            InsertOperation(NodeAddress("my.cnf", ()), directive.clone(), index=sections[1])
        )
        assert _check(engine, config_set, view_set, prepared, scenario) is None
        full = InjectionEngine(SimulatedMySQL(), StructuralErrorsPlugin(), incremental=False)
        assert (
            engine.run_scenario(scenario, config_set, view_set, incremental=prepared).outcome
            == full.run_scenario(scenario, config_set, view_set).outcome
        )

    def test_ini_root_insert_before_the_first_section_splices(self):
        # nothing precedes the first header, so the line stays a root entry
        engine, config_set, view_set, _, prepared = _campaign(SimulatedMySQL(), StructuralErrorsPlugin())
        root = view_set.get("my.cnf").root
        first = next(index for index, node in enumerate(root.children) if node.kind == "section")
        directive = root.children[first].children_of_kind("directive")[0]
        scenario = _scenario(InsertOperation(NodeAddress("my.cnf", ()), directive.clone(), index=first))
        assert _check(engine, config_set, view_set, prepared, scenario) is not None

    def test_foreign_section_nested_in_an_ini_section_falls_back(self):
        # alone the section writes and re-reads fine; nested, INI cannot express it
        engine, config_set, view_set, _, prepared = _campaign(SimulatedMySQL(), StructuralErrorsPlugin())
        mysqld = _address_of(view_set, "my.cnf", _named("section", "mysqld"))
        foreign = get_dialect("ini").parse("[client]\nport = 3306\n").root.children[0]
        assert engine._vet_edits(
            [ChildEdit("my.cnf", parent=(), node=foreign)], prepared.trees
        ) is not None
        scenario = _scenario(InsertOperation(mysqld, foreign))
        assert _check(engine, config_set, view_set, prepared, scenario) is None
        record = engine.run_scenario(scenario, config_set, view_set, incremental=prepared)
        assert record.outcome is InjectionOutcome.INJECTION_IMPOSSIBLE
        assert INCREMENTAL_STATS.guard_fallbacks == 1


def test_the_edit_path_never_parses_a_whole_file(monkeypatch):
    """Deletes and moves parse nothing; a duplicate parses its one line."""
    engine, config_set, view_set, scenarios, prepared = _campaign(
        SimulatedApache(), StructuralErrorsPlugin()
    )
    parsed: list[str] = []
    original = ConfigDialect.parse

    def spy(self, text, filename="<string>"):
        parsed.append(text)
        return original(self, text, filename)

    monkeypatch.setattr(ConfigDialect, "parse", spy)
    for scenario in scenarios:
        assert engine._attempt_delta(scenario, view_set, prepared) is not None
    inserts = sum(isinstance(scenario.operations[0], InsertOperation) for scenario in scenarios)
    assert 0 < inserts < len(scenarios)
    assert len(parsed) == inserts
    assert all(text.count("\n") <= 1 for text in parsed)
    assert INCREMENTAL_STATS.delta_starts == len(scenarios)
