"""The incremental-revalidation protocol must be invisible in results.

The delta path (``SystemUnderTest.prepare`` once, ``start_delta`` per
scenario) exists to cut validation *cost*; these tests pin its one hard
contract -- profiles are identical with it on or off -- plus the guard and
fallback machinery that makes the contract hold:

* full parity across every SUT family x plugin family (the delta path must
  actually engage where supported, and fall back where not),
* a hypothesis property: every change the round-trip guard accepts produces
  a patched tree that reparses to itself, so the SUT revalidates exactly
  what a real parse of the mutated file would build,
* fallback routing: structural edits on the DNS servers, newline
  smuggling, kind-changing typos and mutated include arguments all take
  the full path (or resolve identically through it),
* child-list edits: a view's edit splices the baseline exactly as the
  delete, insert or move it stands for edits the view, sharing every
  untouched subtree, and unsound edit sets fall back,
* the content-hash baseline cache, counters and the spec/CLI knob.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.campaign import Campaign
from repro.core.engine import InjectionEngine
from repro.core.infoset import ConfigSet
from repro.core.spec import RESUME_IRRELEVANT_PATHS, ExecutionSpec
from repro.core.templates.base import (
    DeleteOperation,
    FaultScenario,
    InsertOperation,
    MoveOperation,
    NodeAddress,
)
from repro.core.views.structure_view import StructureView
from repro.errors import TemplateError
from repro.parsers.base import get_dialect
from repro.plugins import (
    DnsSemanticErrorsPlugin,
    SpellingMistakesPlugin,
    StructuralErrorsPlugin,
    StructuralVariationsPlugin,
)
from repro.sut.apache import SimulatedApache
from repro.sut.dns import SimulatedBIND, SimulatedDjbdns
from repro.sut.incremental import (
    INCREMENTAL_STATS,
    ChildEdit,
    NodeChange,
    ScenarioDelta,
    clear_baseline_cache,
    node_at,
    node_from_change,
    patch_tree,
    patched_trees,
)
from repro.sut.mysql import SimulatedMySQL
from repro.sut.nginx import SimulatedNginx
from repro.sut.postgres import SimulatedPostgres
from repro.sut.sshd import SimulatedSshd

ALL_SUTS = [
    SimulatedMySQL,
    SimulatedPostgres,
    SimulatedApache,
    SimulatedBIND,
    SimulatedDjbdns,
    SimulatedNginx,
    SimulatedSshd,
]


@pytest.fixture(autouse=True)
def _isolate_incremental_state():
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()
    yield
    clear_baseline_cache()
    INCREMENTAL_STATS.reset()


def _semantics(profile):
    """Everything of a profile except per-record wall clock."""
    return [
        (r.scenario_id, r.category, r.outcome, r.messages, r.failed_tests, r.metadata)
        for r in profile.records
    ]


def _run_both(sut_class, plugin_factory, seed=11):
    """One campaign per mode; returns (semantics, stats) pairs."""
    runs = []
    for incremental in (True, False):
        clear_baseline_cache()
        INCREMENTAL_STATS.reset()
        engine = InjectionEngine(
            sut_class(), plugin_factory(), seed=seed, incremental=incremental
        )
        profile = engine.run()
        runs.append((_semantics(profile), INCREMENTAL_STATS.snapshot()))
    return runs


def _directive_paths(tree):
    """(path, node) of every directive in the tree, in document order."""
    found = []

    def walk(node, path):
        for index, child in enumerate(node.children):
            child_path = path + (index,)
            if child.kind == "directive":
                found.append((child_path, child))
            walk(child, child_path)

    walk(tree.root, ())
    return found


# ----------------------------------------------------------------- full parity
class TestDeltaFullParity:
    """Same records, outcomes and messages with the fast path on or off."""

    @pytest.mark.parametrize("sut_class", ALL_SUTS, ids=lambda c: c.name)
    def test_spelling_parity_and_delta_engages(self, sut_class):
        # mutations_per_token caps the stream (the default is the paper's
        # exhaustive sweep -- tens of thousands of scenarios for Apache)
        (fast, fast_stats), (slow, slow_stats) = _run_both(
            sut_class, lambda: SpellingMistakesPlugin(mutations_per_token=2)
        )
        assert fast == slow
        assert fast_stats["delta_starts"] > 0, "the delta path never engaged"
        assert slow_stats["attempts"] == 0, "incremental=False must disable the path"

    @pytest.mark.parametrize("sut_class", ALL_SUTS, ids=lambda c: c.name)
    def test_structural_parity(self, sut_class):
        """Deletes, duplicates and moves splice child lists; DNS falls back."""
        (fast, fast_stats), (slow, _) = _run_both(sut_class, StructuralErrorsPlugin)
        assert fast == slow
        if sut_class in (SimulatedBIND, SimulatedDjbdns):
            # record lines read their context from the lines above them
            assert fast_stats["delta_starts"] == 0
            assert fast_stats["fallbacks"] == fast_stats["attempts"]
        else:
            assert fast_stats["delta_starts"] > 0, "the delta path never engaged"

    @pytest.mark.parametrize(
        "sut_class", [SimulatedMySQL, SimulatedApache, SimulatedNginx], ids=lambda c: c.name
    )
    def test_structural_variations_parity(self, sut_class):
        (fast, _), (slow, _) = _run_both(sut_class, StructuralVariationsPlugin)
        assert fast == slow

    @pytest.mark.parametrize(
        "sut_class", [SimulatedBIND, SimulatedDjbdns], ids=lambda c: c.name
    )
    def test_dns_semantic_parity_disables_delta(self, sut_class):
        """DnsRecordView normalises trees, so prepare refuses the delta path."""
        (fast, fast_stats), (slow, _) = _run_both(sut_class, DnsSemanticErrorsPlugin)
        assert fast == slow
        assert fast_stats["attempts"] == 0

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_parity_holds_for_arbitrary_seeds(self, seed):
        """Property: no seed's scenario stream can split the two modes."""
        (fast, _), (slow, _) = _run_both(
            SimulatedSshd, lambda: SpellingMistakesPlugin(mutations_per_token=1), seed=seed
        )
        assert fast == slow


# ------------------------------------------------------------- round-trip guard
class TestRoundTripGuard:
    """_vet_change only admits changes whose patched tree reparses to itself."""

    @pytest.fixture(scope="class")
    def prepared_mysql(self):
        clear_baseline_cache()
        engine = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
        assert prepared is not None
        return engine, prepared

    @given(
        pick=st.integers(0, 10**6),
        name=st.text("abcdefghijklmnopqrstuvwxyz_-#[= \t", min_size=1, max_size=12),
        value=st.one_of(
            st.none(),
            st.text("abcdefghijklmnopqrstuvwxyz0123456789#;[]=_ \t", max_size=16),
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_accepted_changes_reparse_to_themselves(self, prepared_mysql, pick, name, value):
        """Whatever a typo writes into a node, the guard admits it only if
        the patched tree means exactly what a real parse would read."""
        engine, prepared = prepared_mysql
        tree = prepared.trees.get("my.cnf")
        paths = _directive_paths(tree)
        path, node = paths[pick % len(paths)]
        change = NodeChange(
            tree="my.cnf",
            path=path,
            kind="directive",
            name=name,
            value=value,
            attrs=dict(node.attrs),
        )
        vetted = engine._vet_change(change, prepared.trees)
        if vetted is None:
            return  # guard fallback: the full pass handles it
        patched = patch_tree(tree, [vetted])
        assert patched is not None
        dialect = get_dialect(tree.dialect)
        reparsed = dialect.parse(dialect.serialize(patched), filename=tree.name)
        assert reparsed.structurally_equal(patched), (
            f"guard admitted {vetted!r} but the patched tree does not round-trip"
        )

    def test_newline_smuggling_is_refused(self, prepared_mysql):
        """A value splitting into two lines would add a node: fallback."""
        engine, prepared = prepared_mysql
        path, node = _directive_paths(prepared.trees.get("my.cnf"))[0]
        change = NodeChange(
            tree="my.cnf",
            path=path,
            kind="directive",
            name=node.name,
            value="1\nskip-networking",
            attrs=dict(node.attrs),
        )
        INCREMENTAL_STATS.reset()
        assert engine._vet_change(change, prepared.trees) is None

    def test_kind_changing_typo_is_refused(self):
        """An sshd keyword mutated to ``Match`` reparses as a section."""
        clear_baseline_cache()
        engine = InjectionEngine(SimulatedSshd(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
        assert prepared is not None
        tree = prepared.trees.get(SimulatedSshd.config_filename)
        path, node = next(
            (p, n) for p, n in _directive_paths(tree) if not n.children
        )
        change = NodeChange(
            tree=tree.name,
            path=path,
            kind="directive",
            name="Match",
            value="User root",
            attrs=dict(node.attrs),
        )
        assert engine._vet_change(change, prepared.trees) is None

    @pytest.fixture(scope="class")
    def prepared_djbdns(self):
        clear_baseline_cache()
        engine = InjectionEngine(SimulatedDjbdns(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
        assert prepared is not None
        return engine, prepared

    @given(
        pick=st.integers(0, 10**6),
        name=st.text("abcdefghijklmnopqrstuvwxyz.:#=+ \t\n", max_size=16),
        value=st.one_of(st.none(), st.text("0123456789.:#= \t\n", max_size=12)),
        address=st.one_of(st.none(), st.text("0123456789abc.:# \t\n", max_size=12)),
    )
    @settings(max_examples=150, deadline=None)
    def test_tinydns_substitution_matches_a_whole_file_parse(
        self, prepared_djbdns, pick, name, value, address
    ):
        """Whatever a mutation writes into a ``data`` line, the node the guard
        admits is the node a parse of the whole mutated file has there."""
        engine, prepared = prepared_djbdns
        tree = prepared.trees.get(SimulatedDjbdns.config_filename)
        lines = [(path, node) for node, path in tree.root.walk_with_paths() if node.kind == "record"]
        path, node = lines[pick % len(lines)]
        attrs = dict(node.attrs)
        if address is not None:
            attrs["fields"] = [address, *attrs["fields"][1:]]
        change = NodeChange(
            tree=tree.name, path=path, kind="record", name=name, value=value, attrs=attrs
        )
        vetted = engine._vet_change(change, prepared.trees)
        if vetted is None:
            return  # guard fallback: the full pass handles it
        mutated = tree.clone()
        target = node_at(mutated, path)
        target.name, target.value, target.attrs = change.name, change.value, dict(change.attrs)
        dialect = get_dialect(tree.dialect)
        whole = dialect.parse(dialect.serialize(mutated), filename=tree.name)
        assert len(whole.root.children) == len(tree.root.children)
        assert whole.root.children[path[0]].structurally_equal(node_from_change(vetted, None))

    def test_tinydns_value_typo_substitutes_the_written_line(self, prepared_djbdns):
        """The tinydns writer emits a line's fields, not its ``value``: a
        value-only edit reparses as the untouched line, which is substituted."""
        engine, prepared = prepared_djbdns
        tree = prepared.trees.get(SimulatedDjbdns.config_filename)
        path, node = next(
            (path, node)
            for node, path in tree.root.walk_with_paths()
            if node.kind == "record" and node.get("prefix") == "="
        )
        change = NodeChange(
            tree=tree.name, path=path, kind="record", name=node.name, value="19.0.2.1",
            attrs=dict(node.attrs),
        )
        INCREMENTAL_STATS.reset()
        vetted = engine._vet_change(change, prepared.trees)
        assert INCREMENTAL_STATS.substitutions == 1
        assert node_from_change(vetted, None).structurally_equal(node)


# ------------------------------------------------------------------ patch_tree
def _shipped_trees():
    trees = []
    for sut_class in (SimulatedApache, SimulatedNginx, SimulatedSshd):
        sut = sut_class()
        for filename, text in sut.default_configuration().items():
            tree = get_dialect(sut.dialect_for(filename)).parse(text, filename=filename)
            paths = [path for _node, path in tree.root.walk_with_paths() if path]
            trees.append((tree, paths))
    return trees


SHIPPED_TREES = _shipped_trees()


def _identity_layout(tree):
    return [(id(node), [id(child) for child in node.children]) for node in tree.walk()]


class TestPatchTree:
    """patch_tree copies only the root-to-change paths and shares the rest."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_patched_tree_matches_a_whole_tree_rebuild(self, data):
        tree, paths = data.draw(st.sampled_from(SHIPPED_TREES))
        picked = data.draw(st.lists(st.sampled_from(paths), min_size=1, max_size=4, unique=True))
        words = st.one_of(st.none(), st.text("abc:/ ", max_size=6))
        changes = []
        for path in picked:
            node = node_at(tree, path)
            changes.append(
                NodeChange(
                    tree=tree.name,
                    path=path,
                    kind=node.kind,
                    name=data.draw(words),
                    value=data.draw(words),
                    attrs={**node.attrs, "patched": True},
                )
            )
        snapshot, layout = tree.clone(), _identity_layout(tree)

        patched = patch_tree(tree, changes)

        assert tree.structurally_equal(snapshot) and _identity_layout(tree) == layout
        nested = any(a != b and b[: len(a)] == a for a in picked for b in picked)
        if nested:
            assert patched is None
            return
        reference = tree.clone()
        for change in changes:
            node = node_at(reference, change.path)
            node.name, node.value, node.attrs = change.name, change.value, dict(change.attrs)
        assert patched.structurally_equal(reference)
        on_spine = {path[:depth] for path in picked for depth in range(len(path) + 1)}
        for node, path in patched.root.walk_with_paths():
            if path in on_spine:
                assert node is not node_at(tree, path)
            else:
                assert node is node_at(tree, path)

    def test_nested_changes_fall_back(self):
        """A change below another change's node is not silently dropped."""
        tree, _paths = SHIPPED_TREES[0]
        section_path = next(
            path for node, path in tree.root.walk_with_paths() if path and node.children
        )
        section = node_at(tree, section_path)
        child = section.children[0]
        changes = [
            NodeChange(tree.name, section_path, section.kind, section.name, "changed"),
            NodeChange(tree.name, section_path + (0,), child.kind, child.name, "changed"),
        ]
        assert patch_tree(tree, changes) is None
        assert patch_tree(tree, changes[::-1]) is None


# ------------------------------------------------------------- fallback routing
class TestFallbackRouting:
    def test_mutated_include_argument_matches_full_start(self):
        """nginx: an include pointing at a missing file must fail through the
        delta path with the same diagnostic a full start produces."""
        engine = InjectionEngine(SimulatedNginx(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
        assert prepared is not None
        tree = prepared.trees.get("nginx.conf")
        path, node = next(
            (p, n) for p, n in _directive_paths(tree) if n.name == "include"
        )
        change = NodeChange(
            tree="nginx.conf",
            path=path,
            kind="directive",
            name="include",
            value="mime.typo",
            attrs=dict(node.attrs),
        )
        vetted = engine._vet_change(change, prepared.trees)
        assert vetted is not None
        sut = engine.sut
        delta_result = sut.start_delta(prepared, ScenarioDelta((vetted,)))
        assert delta_result is not None

        mutated_files = dict(prepared.files)
        mutated_files["nginx.conf"] = mutated_files["nginx.conf"].replace(
            "mime.types", "mime.typo"
        )
        full_result = SimulatedNginx().start(mutated_files)
        assert delta_result.started == full_result.started is False
        assert delta_result.errors == full_result.errors
        assert "open()" in delta_result.errors[0]

    def test_missing_tree_falls_back(self):
        """A change addressing an unknown tree returns None from start_delta."""
        engine = InjectionEngine(SimulatedMySQL(), SpellingMistakesPlugin(), seed=1)
        config_set, view_set, _ = engine.generate_scenarios()
        prepared = engine.prepare_incremental(config_set, view_set)
        assert prepared is not None
        change = NodeChange(
            tree="no-such.conf", path=(0,), kind="directive", name="x", value="1"
        )
        assert engine.sut.start_delta(prepared, ScenarioDelta((change,))) is None


# ------------------------------------------------- counters and baseline cache
class TestCountersAndCache:
    def test_noop_scenarios_reuse_baseline_outcomes(self):
        """Typos the parser swallows (case changes, ignored groups) prove the
        scenario a no-op; the baseline functional outcomes are reused."""
        engine = InjectionEngine(
            SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2), seed=11
        )
        engine.run()
        stats = INCREMENTAL_STATS.snapshot()
        assert stats["prepares"] == 1
        assert stats["delta_starts"] > 0
        assert stats["noop_reuses"] > 0
        assert stats["errors"] == 0

    def test_second_run_hits_the_baseline_cache(self):
        """Same SUT class + file set => one prepare, then content-hash hits."""
        for _ in range(2):
            engine = InjectionEngine(
                SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2), seed=3
            )
            engine.run()
        stats = INCREMENTAL_STATS.snapshot()
        assert stats["prepares"] == 1
        assert stats["cache_hits"] >= 1

    def test_different_content_misses_the_cache(self):
        engine = InjectionEngine(
            SimulatedMySQL(), SpellingMistakesPlugin(mutations_per_token=2), seed=3
        )
        engine.run()
        other = InjectionEngine(
            SimulatedMySQL(default_config="[mysqld]\nport = 3307\n"),
            SpellingMistakesPlugin(mutations_per_token=2),
            seed=3,
        )
        other.run()
        assert INCREMENTAL_STATS.prepares == 2

    def test_fallback_rate_property(self):
        INCREMENTAL_STATS.reset()
        assert INCREMENTAL_STATS.fallback_rate == 0.0
        INCREMENTAL_STATS.attempts = 10
        INCREMENTAL_STATS.fallbacks = 2
        INCREMENTAL_STATS.guard_fallbacks = 1
        INCREMENTAL_STATS.errors = 1
        assert INCREMENTAL_STATS.fallback_total == 4
        assert INCREMENTAL_STATS.fallback_rate == pytest.approx(0.4)


# ------------------------------------------------------------- executor parity
class TestExecutorParity:
    """Profiles are identical across executors x incremental settings."""

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_parallel_incremental_matches_serial_full(self, executor):
        serial_full = Campaign(
            SimulatedMySQL, [SpellingMistakesPlugin(mutations_per_token=2)], seed=5, incremental=False
        ).run()
        parallel_fast = Campaign(
            SimulatedMySQL,
            [SpellingMistakesPlugin(mutations_per_token=2)],
            seed=5,
            jobs=2,
            executor=executor,
            incremental=True,
        ).run()
        assert _semantics(parallel_fast.overall) == _semantics(serial_full.overall)


# --------------------------------------------------------------- spec and knob
class TestIncrementalKnob:
    def test_default_on_and_omitted_from_dict(self):
        spec = ExecutionSpec()
        assert spec.incremental is True
        assert "incremental" not in spec.to_dict()

    def test_round_trips_when_disabled(self):
        spec = ExecutionSpec(incremental=False)
        data = spec.to_dict()
        assert data["incremental"] is False
        assert ExecutionSpec.from_dict(data).incremental is False

    def test_resume_may_flip_the_knob(self):
        assert "execution.incremental" in RESUME_IRRELEVANT_PATHS

    def test_campaign_threads_the_knob_to_engines(self):
        campaign = Campaign(SimulatedMySQL, [SpellingMistakesPlugin()], incremental=False)
        assert campaign.incremental is False


# --------------------------------------------------------------- splice_trees
@st.composite
def structural_operations(draw, tree):
    """A delete, insert (of a copy) or move of one node of ``tree``."""
    nodes = [(node, path) for node, path in tree.root.walk_with_paths() if path]
    node, path = draw(st.sampled_from(nodes))
    target = NodeAddress(tree.name, path)
    kind = draw(st.sampled_from(("delete", "insert", "move")))
    if kind == "delete":
        return DeleteOperation(target)
    containers = [
        (container, where)
        for container, where in tree.root.walk_with_paths()
        if container.kind in ("file", "section")
    ]
    container, where = draw(st.sampled_from(containers))
    index = draw(st.one_of(st.none(), st.integers(0, len(container.children) + 1)))
    if kind == "insert":
        return InsertOperation(NodeAddress(tree.name, where), node.clone(), index=index)
    return MoveOperation(target, NodeAddress(tree.name, where), index=index)


class TestSpliceTrees:
    """A view's child-list edit splices the baseline as the operation edits it."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_view_edit_splices_like_the_operation(self, data):
        tree, _paths = data.draw(st.sampled_from(SHIPPED_TREES))
        baseline = ConfigSet([tree])
        operation = data.draw(structural_operations(tree))
        scenario = FaultScenario("s", "structural edit", "test", (operation,))
        try:
            reference = scenario.apply(baseline).get(tree.name)
        except TemplateError:
            return  # a move into the node's own subtree
        snapshot, layout = tree.clone(), _identity_layout(tree)

        edits = StructureView().scenario_changes(scenario, baseline, baseline)
        patched = patched_trees(baseline, ScenarioDelta((), tuple(edits)))

        assert tree.structurally_equal(snapshot) and _identity_layout(tree) == layout
        if not reference.root.children:
            assert patched is None  # an emptied file takes the full path
            return
        assert patched.get(tree.name).structurally_equal(reference)
        # a moved node is the baseline subtree itself, never a copy
        if isinstance(operation, MoveOperation):
            moved = node_at(tree, operation.target.path)
            assert any(node is moved for node in patched.get(tree.name).walk())

    def test_untouched_subtrees_are_shared(self):
        tree, _paths = SHIPPED_TREES[0]
        section_path = next(
            path for node, path in tree.root.walk_with_paths() if len(path) == 1 and node.children
        )
        edit = ChildEdit(tree.name, remove=section_path + (0,))
        patched = patched_trees(ConfigSet([tree]), ScenarioDelta((), (edit,))).get(tree.name)
        assert patched.root is not tree.root
        for index, child in enumerate(patched.root.children):
            if index == section_path[0]:
                assert child is not tree.root.children[index]
                assert child.children == tree.root.children[index].children[1:]
            else:
                assert child is tree.root.children[index]

    def test_unsound_edit_sets_fall_back(self):
        tree, _paths = SHIPPED_TREES[0]
        baseline = ConfigSet([tree])
        section_path = next(
            path for node, path in tree.root.walk_with_paths() if path and node.children
        )
        node = node_at(tree, section_path)
        change = NodeChange(tree.name, section_path, node.kind, node.name, "x")
        unsound = [
            (ChildEdit(tree.name, remove=(len(tree.root.children),)),),  # no such node
            (ChildEdit("no-such-file", remove=(0,)),),
            (ChildEdit(tree.name, parent=(0,) * 9, node=node),),
            (ChildEdit(tree.name, parent=(), index=-1, node=node),),
            # an edit inside a removed subtree, and a node removed twice
            (
                ChildEdit(tree.name, remove=section_path),
                ChildEdit(tree.name, parent=section_path, node=node),
            ),
            (ChildEdit(tree.name, remove=(0,)), ChildEdit(tree.name, remove=(0,))),
            # a file root left without children
            tuple(ChildEdit(tree.name, remove=(i,)) for i in range(len(tree.root.children))),
        ]
        for edits in unsound:
            assert patched_trees(baseline, ScenarioDelta((), edits)) is None, edits
        mixed = ScenarioDelta((change,), (ChildEdit(tree.name, remove=(0,)),))
        assert patched_trees(baseline, mixed) is None
