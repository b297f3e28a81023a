"""The DNS servers' splice-index delta starts must serve what a full start would.

BIND and djbdns re-derive only the changed record lines of a delta and
splice their records into the pristine list.  These tests compare the live
server after ``start_delta`` against a fresh full ``start()`` on the
materialised files: the ``StartResult``, the served records in order (with
their source file), BIND's zone table, and whether the delta declared the
scenario a no-op by returning ``baseline.result`` itself.

A refused start leaves no server to observe, so refused starts compare the
``StartResult`` and that neither server runs.
"""

from __future__ import annotations

import pytest

from repro.core.engine import InjectionEngine
from repro.parsers.base import serialize_tree
from repro.plugins import SpellingMistakesPlugin
from repro.sut.dns import SimulatedBIND, SimulatedDjbdns
from repro.sut.dns.bind_server import DEFAULT_FORWARD_ZONE, DEFAULT_NAMED_CONF, DEFAULT_REVERSE_ZONE
from repro.sut.incremental import (
    INCREMENTAL_STATS,
    NodeChange,
    ScenarioDelta,
    clear_baseline_cache,
    node_at,
)

FORWARD = "example.com.zone"
REVERSE = "192.0.2.rev"
DATA = "data"


@pytest.fixture(autouse=True)
def _isolate_incremental_state():
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()
    yield
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()


def _live_state(sut):
    served = [(record, record.metadata) for record in sut.records]
    if isinstance(sut, SimulatedBIND):
        return served, list(sut.zones.items())
    return served, []


def assert_parity(baseline, delta_sut, delta_result, files):
    """``delta_result`` from ``delta_sut`` matches a full start on ``files``."""
    full_sut = type(delta_sut)()
    full_result = full_sut.start(files)
    pristine_sut = type(delta_sut)()
    assert pristine_sut.start(baseline.files).started
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
    assert _live_state(delta_sut) == _live_state(full_sut)
    unchanged = _live_state(full_sut) == _live_state(pristine_sut)
    assert (delta_result is baseline.result) == unchanged


def _prepare(sut):
    baseline = sut.prepare(sut.default_configuration())
    assert baseline is not None and baseline.state is not None
    return baseline


def _bind(forward=DEFAULT_FORWARD_ZONE, named_conf=DEFAULT_NAMED_CONF):
    sut = SimulatedBIND(named_conf, {FORWARD: forward, REVERSE: DEFAULT_REVERSE_ZONE})
    return sut, _prepare(sut)


def _djbdns(text=None):
    sut = SimulatedDjbdns() if text is None else SimulatedDjbdns(text)
    return sut, _prepare(sut)


def _path_of(baseline, tree, predicate):
    found = baseline.trees.get(tree)
    return next(path for node, path in found.root.walk_with_paths() if path and predicate(node))


def _change(baseline, tree, path, name=None, value=None, **attrs):
    node = node_at(baseline.trees.get(tree), path)
    return NodeChange(
        tree=tree,
        path=path,
        kind=node.kind,
        name=node.name if name is None else name,
        value=node.value if value is None else value,
        attrs={**node.attrs, **attrs},
    )


def _edited_files(baseline, edits):
    files = dict(baseline.files)
    trees = {}
    for change in edits:
        tree = trees.setdefault(change.tree, baseline.trees.get(change.tree).clone())
        node = node_at(tree, change.path)
        node.name, node.value, node.attrs = change.name, change.value, dict(change.attrs)
    for name, tree in trees.items():
        files[name] = serialize_tree(tree)
    return files


def _record(name=None, rtype=None, value=None):
    """Predicate: a zone record line (or tinydns line, by ``rtype`` prefix)."""

    def matches(node):
        if node.kind != "record":
            return False
        if rtype is not None and rtype not in (node.get("type"), node.get("prefix")):
            return False
        return (name is None or node.name == name) and (value is None or node.value == value)

    return matches


def _control(name):
    return lambda node: node.kind == "control" and node.name == name


def _served(sut):
    return [(record.name, record.value) for record in sut.records]


def _start(sut, baseline, *changes):
    return sut.start_delta(baseline, ScenarioDelta(tuple(changes)))


# ----------------------------------------------------------------- the sweeps
@pytest.mark.parametrize("sut_class", [SimulatedBIND, SimulatedDjbdns], ids=lambda c: c.name)
def test_shipped_sweep_matches_a_full_start(sut_class, monkeypatch):
    """Every omission and transposition typo on the shipped configuration."""
    plugin = SpellingMistakesPlugin.from_params({"models": ["omission", "transposition"]})
    engine = InjectionEngine(sut_class(), plugin, seed=2008)
    config_set, view_set, scenarios = engine.generate_scenarios()
    prepared = engine.prepare_incremental(config_set, view_set)
    assert prepared is not None

    # BIND's whole-set fallback: only edits the index cannot localise
    rederived = []
    if sut_class is SimulatedBIND:
        full_reload = SimulatedBIND._start_patched

        def spy(self, baseline, delta):
            rederived.append(delta)
            return full_reload(self, baseline, delta)

        monkeypatch.setattr(SimulatedBIND, "_start_patched", spy)

    reused = 0
    for scenario in scenarios:
        with scenario.applied_to(view_set) as mutated:
            changes = engine.plugin.view.scenario_changes(scenario, mutated, prepared.trees)
            assert changes is not None, scenario.scenario_id
            vetted = tuple(engine._vet_change(change, prepared.trees) for change in changes)
        assert None not in vetted, scenario.scenario_id
        files = engine.materialize(scenario, config_set, view_set)
        delta_sut = sut_class()
        result = delta_sut.start_delta(prepared, ScenarioDelta(vetted))
        assert result is not None, scenario.scenario_id
        assert_parity(prepared, delta_sut, result, files)
        reused += result is prepared.result
    # the sweep exercises both verdicts
    assert 0 < reused < len(scenarios)

    for delta in rederived:
        (change,) = delta.changes
        # $ORIGIN/$TTL lines, and file directives that now load other files
        assert change.kind == "control" or (change.tree, change.name) == ("named.conf", "file")
    assert bool(rederived) == (sut_class is SimulatedBIND)


# --------------------------------------------------------------------- BIND
class TestBindDeltas:
    def test_origin_typo_rereads_the_file(self):
        sut, baseline = _bind()
        path = _path_of(baseline, FORWARD, _control("ORIGIN"))
        change = _change(baseline, FORWARD, path, value="exmaple.com.")
        result = _start(sut, baseline, change)
        assert not result.started
        assert "zone example.com/IN: has no SOA record" in result.errors
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_non_numeric_ttl_is_refused(self):
        sut, baseline = _bind()
        path = _path_of(baseline, REVERSE, _control("TTL"))
        change = _change(baseline, REVERSE, path, value="864OO")
        result = _start(sut, baseline, change)
        assert not result.started
        assert result.errors[0].startswith("zone data rejected: TTL '864OO'")
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_owner_edit_before_an_ownerless_line(self):
        zone = DEFAULT_FORWARD_ZONE.replace('www\tIN\tTXT', '\tIN\tTXT')
        sut, baseline = _bind(forward=zone)
        path = _path_of(baseline, FORWARD, _record("shell", "A"))
        change = _change(baseline, FORWARD, path, name="shel")
        result = _start(sut, baseline, change)
        assert result.started and result is not baseline.result
        # the ownerless TXT line follows the edited owner
        assert [r.name for r in sut.records if r.rtype == "TXT"] == [
            "example.com", "shel.example.com",
        ]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_ownerless_line_edit_keeps_the_inherited_owner(self):
        zone = DEFAULT_FORWARD_ZONE.replace('www\tIN\tTXT', '\tIN\tTXT')
        sut, baseline = _bind(forward=zone)
        path = _path_of(baseline, FORWARD, _record("", "TXT"))
        change = _change(baseline, FORWARD, path, value='"main wb server"')
        result = _start(sut, baseline, change)
        assert ("shell.example.com", "main wb server") in _served(sut)
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_zone_name_typo_fires_the_soa_check(self, monkeypatch):
        sut, baseline = _bind()
        path = _path_of(baseline, "named.conf", lambda node: node.value == '"example.com"')
        change = _change(baseline, "named.conf", path, value='"exmple.com"')
        monkeypatch.setattr(SimulatedBIND, "_start_patched", _refuse)
        result = _start(sut, baseline, change)
        assert result.errors == [
            "zone exmple.com/IN: has no SOA record",
            "zone exmple.com/IN: has no NS records",
        ]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_file_directive_typo_is_not_found(self):
        sut, baseline = _bind()
        path = _path_of(baseline, "named.conf", lambda node: node.value == '"example.com.zone"')
        change = _change(baseline, "named.conf", path, value='"exmple.com.zone"')
        result = _start(sut, baseline, change)
        assert result.errors == ["zone 'example.com': file 'exmple.com.zone' not found"]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_errors_come_out_in_document_order(self):
        sut, baseline = _bind()
        # two new CNAME clashes, the later file's passed first
        late = _change(
            baseline, REVERSE, _path_of(baseline, REVERSE, _record("20", "PTR")),
            name="10", type="CNAME",
        )
        early = _change(
            baseline, FORWARD, _path_of(baseline, FORWARD, _record("ftp", "CNAME")), name="mail"
        )
        result = _start(sut, baseline, late, early)
        assert result.errors == [
            "zone: mail.example.com: CNAME and other data (A)",
            "zone: 10.2.0.192.in-addr.arpa: CNAME and other data (PTR)",
            "zone: example.com/MX 'mail.example.com' is a CNAME (illegal)",
        ]
        assert_parity(baseline, sut, result, _edited_files(baseline, [late, early]))

    def test_noop_edit_is_the_pristine_start(self):
        sut, baseline = _bind()
        path = _path_of(baseline, "named.conf", lambda node: node.name == "recursion")
        conf = _change(baseline, "named.conf", path, value="n")
        record = _change(baseline, FORWARD, _path_of(baseline, FORWARD, _record("www", "A")))
        result = _start(sut, baseline, conf, record)
        assert result is baseline.result
        assert sut.zones == baseline.state.zones and sut.zones is not baseline.state.zones
        assert_parity(baseline, sut, result, _edited_files(baseline, [conf, record]))


# -------------------------------------------------------------------- djbdns
class TestDjbdnsDeltas:
    def test_empty_address_of_an_equals_line_fails_the_full_start(self):
        text = "=www.example.com::86400\n"
        result = SimulatedDjbdns(text).start({DATA: text})
        assert result.errors == [
            "tinydns-data: unable to parse IP address '' in line for www.example.com"
        ]

    @pytest.mark.parametrize("fields", [["", "86400"], []], ids=["empty", "absent"])
    def test_empty_address_of_an_equals_line_fails_the_splice(self, fields):
        sut, baseline = _djbdns()
        path = _path_of(baseline, DATA, _record("www.example.com", "="))
        change = _change(baseline, DATA, path, value="", fields=fields)
        result = _start(sut, baseline, change)
        assert result.errors == [
            "tinydns-data: unable to parse IP address '' in line for www.example.com"
        ]
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_plus_line_with_an_empty_address_still_starts(self):
        text = "+www.example.com::86400\n"
        assert SimulatedDjbdns(text).start({DATA: text}).started

    def test_first_syntax_error_in_document_order_wins(self):
        sut, baseline = _djbdns()
        late = _change(
            baseline, DATA, _path_of(baseline, DATA, _record("example.com", "@")),
            fields=["", "mail.example.com", "1O", "86400"],
        )
        early = _change(
            baseline, DATA, _path_of(baseline, DATA, _record("mail.example.com", "=")),
            fields=["192.0.2.2O", "86400"],
        )
        result = _start(sut, baseline, late, early)
        assert result.errors == [
            "tinydns-data: unable to parse IP address '192.0.2.2O' in line for mail.example.com"
        ]
        assert_parity(baseline, sut, result, _edited_files(baseline, [late, early]))

    def test_changed_line_replaces_only_its_records(self):
        sut, baseline = _djbdns()
        path = _path_of(baseline, DATA, _record("www.example.com", "="))
        change = _change(baseline, DATA, path, name="ww.example.com")
        result = _start(sut, baseline, change)
        assert result.started and result is not baseline.result
        assert ("10.2.0.192.in-addr.arpa", "ww.example.com") in _served(sut)
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))

    def test_noop_edit_is_the_pristine_start(self):
        sut, baseline = _djbdns()
        path = _path_of(baseline, DATA, _record("docs.example.com", "C"))
        change = _change(baseline, DATA, path)
        result = _start(sut, baseline, change)
        assert result is baseline.result and sut.is_running()
        assert_parity(baseline, sut, result, _edited_files(baseline, [change]))


# ------------------------------------------------------------------------ spy
def _refuse(*_args, **_kwargs):
    raise AssertionError("the splice path re-derived the whole record set")


def test_splice_path_derives_no_record_set(monkeypatch):
    """A record-line edit re-derives that line, never the whole set."""
    import repro.sut.dns.bind_server as bind_server
    import repro.sut.dns.djbdns_server as djbdns_server

    bind, bind_baseline = _bind()
    djbdns, djbdns_baseline = _djbdns()
    monkeypatch.setattr(bind_server, "config_set_to_records", _refuse)
    monkeypatch.setattr(djbdns_server, "config_set_to_records", _refuse)

    path = _path_of(bind_baseline, FORWARD, _record("www", "A"))
    result = _start(bind, bind_baseline, _change(bind_baseline, FORWARD, path, value="192.0.2.11"))
    assert result.started and ("www.example.com", "192.0.2.11") in _served(bind)
    path = _path_of(djbdns_baseline, DATA, _record("www.example.com", "="))
    change = _change(djbdns_baseline, DATA, path, fields=["192.0.2.11", "86400"])
    result = _start(djbdns, djbdns_baseline, change)
    assert result.started and ("www.example.com", "192.0.2.11") in _served(djbdns)
