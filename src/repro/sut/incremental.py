"""Incremental revalidation protocol: baselines, node deltas, fallbacks.

Every injected scenario mutates one or two nodes of an otherwise pristine
configuration set, yet the classic SUT contract re-parses and re-walks the
*entire* set per scenario.  This module carries the shared vocabulary of the
delta protocol:

* :class:`BaselineValidation` -- the result of fully validating the pristine
  file set once per ``(worker, plugin run)``, including the parsed trees and
  an opaque per-SUT reusable index (duplicate maps, option tables, context
  stacks).
* :class:`NodeChange` / :class:`ChildEdit` / :class:`ScenarioDelta` -- a
  scenario reduced to what it does to the baseline trees: the detached field
  data of the nodes it edits in place (typos, value changes), or the child
  lists it restructures (a node deleted, moved, duplicated or borrowed).  A
  change holds plain data, never node references, so it stays valid after
  the copy-on-write context manager has undone the mutation and is safe to
  share across threads; an edit may reference a read-only node to insert
  (a moved node is the baseline subtree itself).
* a content-hash keyed baseline cache, so consecutive plugin runs (and suite
  cells) over the same system files reuse one prepared baseline instead of
  re-validating per run.
* tree-patching helpers that build a revalidation tree by copying only the
  spine above each changed node or edited child list, sharing every
  untouched subtree with the baseline.
* :data:`INCREMENTAL_STATS` -- process-global counters tracking how often
  the delta path ran versus fell back to a full validation pass.

The engine decides *when* the delta path is sound (see
``InjectionEngine.prepare_incremental`` and its round-trip guard, which asks
each dialect's ``splice_safe`` whether an edited child list re-parses as
patched); SUTs decide *how* to revalidate a delta
(``SystemUnderTest.start_delta``).  Returning ``None`` anywhere falls back
to the byte-identical full pass, so the protocol can never change an
experiment's outcome -- only its cost.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.core.infoset import ConfigNode, ConfigSet, ConfigTree

__all__ = [
    "BaselineValidation",
    "NodeChange",
    "ChildEdit",
    "ScenarioDelta",
    "IncrementalStats",
    "INCREMENTAL_STATS",
    "content_key",
    "cached_baseline",
    "store_baseline",
    "clear_baseline_cache",
    "node_at",
    "node_from_change",
    "patch_tree",
    "patched_trees",
    "splice_trees",
]


# ------------------------------------------------------------------ statistics
@dataclass
class IncrementalStats:
    """Process-global counters for the delta-validation path.

    ``attempts`` counts scenarios offered to the delta path;
    ``delta_starts`` the ones it validated without a full pass.  The three
    fallback counters partition the remainder: ``fallbacks`` are scenarios
    the view cannot express as a delta (multi-operation restructurings,
    cross-file moves, aggregate views) or the SUT declined, ``guard_fallbacks``
    are changes or child-list edits the round-trip guard refused (a node
    that does not survive serialise+parse, a splice the dialect cannot
    vouch for), and ``errors`` are unexpected exceptions
    (always recoverable -- the full pass runs instead).  ``substitutions``
    counts changes the guard accepted after replacing the mutated fields
    with their single-node reparse (line-oriented dialects only), and
    ``noop_reuses`` delta starts that proved the scenario a no-op so the
    baseline functional outcomes were reused.
    """

    prepares: int = 0
    cache_hits: int = 0
    attempts: int = 0
    delta_starts: int = 0
    fallbacks: int = 0
    guard_fallbacks: int = 0
    substitutions: int = 0
    noop_reuses: int = 0
    errors: int = 0

    def reset(self) -> None:
        """Zero every counter (tests isolate themselves with this)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> dict[str, int]:
        """Current counter values as a plain dict."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    @property
    def fallback_total(self) -> int:
        """Scenarios that reached the delta path but ran the full pass."""
        return self.fallbacks + self.guard_fallbacks + self.errors

    @property
    def fallback_rate(self) -> float:
        """Fraction of attempted scenarios that fell back (0.0 when idle)."""
        return self.fallback_total / self.attempts if self.attempts else 0.0


#: Counters shared by every engine in the process (per-process in pools,
#: like ``CLONE_STATS``).
INCREMENTAL_STATS = IncrementalStats()


# ------------------------------------------------------------------ data model
@dataclass(frozen=True)
class NodeChange:
    """Detached description of one changed configuration node.

    ``tree``/``path`` address the node inside the *baseline* system trees
    (child indices from the root); the remaining fields are the node's
    post-mutation state.  Children are never part of a change: a scenario
    that restructures children is expressed as :class:`ChildEdit` records.
    """

    tree: str
    path: tuple[int, ...]
    kind: str
    name: str | None
    value: str | None
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ChildEdit:
    """One child-list edit of a baseline tree, in baseline coordinates.

    ``remove`` is the path of a baseline node to drop; ``parent``/``index``/
    ``node`` insert ``node`` under the baseline node at ``parent``, before
    its baseline child ``index`` (None appends).  A deletion sets only
    ``remove``, an insertion only the insert fields, and a move both, with
    ``node`` the baseline subtree at ``remove`` itself, shared by reference.
    ``node`` is read-only: patched trees splice it in without copying or
    re-parenting it.
    """

    tree: str
    remove: tuple[int, ...] | None = None
    parent: tuple[int, ...] | None = None
    index: int | None = None
    node: ConfigNode | None = None


@dataclass(frozen=True)
class ScenarioDelta:
    """What one scenario does to the baseline trees, in operation order.

    ``changes`` edit nodes in place; ``edits`` restructure child lists.  A
    delta carrying both is not patched (:func:`patched_trees` returns None).
    """

    changes: tuple[NodeChange, ...]
    edits: tuple[ChildEdit, ...] = ()

    def trees(self) -> list[str]:
        """Names of the trees this delta touches, deduplicated, in order."""
        seen: dict[str, None] = {}
        for item in (*self.changes, *self.edits):
            seen.setdefault(item.tree, None)
        return list(seen)


@dataclass
class BaselineValidation:
    """One fully validated pristine configuration set, ready for deltas.

    ``trees`` are the files parsed with the SUT's own dialects; ``result``
    is the full ``start()`` outcome on the pristine files; ``state`` is the
    SUT-specific reusable index built by ``_baseline_state`` while the
    pristine system was running (``None`` when the SUT offers no delta
    support); ``functional`` records the diagnosis suite's outcomes on the
    pristine system as ``(passed, name, detail)`` triples, reused verbatim
    for no-op deltas.  Treat instances as immutable: they are shared
    between plugin runs and threads through the baseline cache.
    """

    files: dict[str, str]
    trees: ConfigSet
    result: Any
    state: Any
    content_key: str
    functional: tuple[tuple[bool, str, str], ...] | None = None


# ------------------------------------------------------------- baseline cache
_BASELINE_CACHE: dict[tuple[str, str], BaselineValidation] = {}
_CACHE_LOCK = threading.Lock()
#: Distinct (SUT class, file set) baselines kept; oldest evicted beyond this.
_CACHE_LIMIT = 16


def content_key(files: Mapping[str, str]) -> str:
    """Stable content hash of a configuration file set."""
    digest = hashlib.sha256()
    for name in sorted(files):
        digest.update(name.encode("utf-8", "surrogateescape"))
        digest.update(b"\x00")
        digest.update(files[name].encode("utf-8", "surrogateescape"))
        digest.update(b"\x00")
    return digest.hexdigest()


def cached_baseline(sut_key: str, key: str) -> BaselineValidation | None:
    """Look up a prepared baseline for (SUT class, content hash)."""
    with _CACHE_LOCK:
        return _BASELINE_CACHE.get((sut_key, key))


def store_baseline(sut_key: str, key: str, baseline: BaselineValidation) -> None:
    """Cache a prepared baseline, evicting the oldest entry when full."""
    with _CACHE_LOCK:
        if len(_BASELINE_CACHE) >= _CACHE_LIMIT and (sut_key, key) not in _BASELINE_CACHE:
            _BASELINE_CACHE.pop(next(iter(_BASELINE_CACHE)))
        _BASELINE_CACHE[(sut_key, key)] = baseline


def clear_baseline_cache() -> None:
    """Drop every cached baseline (test isolation)."""
    with _CACHE_LOCK:
        _BASELINE_CACHE.clear()


# ------------------------------------------------------------- tree utilities
def node_at(tree: ConfigTree, path: Iterable[int]) -> ConfigNode | None:
    """The node at a child-index ``path`` from the root, or None."""
    node = tree.root
    for index in path:
        if not 0 <= index < len(node.children):
            return None
        node = node.children[index]
    return node


def node_from_change(change: NodeChange, baseline_node: ConfigNode | None) -> ConfigNode:
    """Build the post-mutation node a change describes.

    Children are taken from the baseline node (shared, not cloned: patched
    trees are read-only revalidation inputs and nothing in the SUT
    validators follows ``parent`` pointers).
    """
    node = ConfigNode(change.kind, name=change.name, value=change.value, attrs=change.attrs)
    if baseline_node is not None and baseline_node.children:
        node.children = list(baseline_node.children)
    return node


def patch_tree(tree: ConfigTree, changes: Iterable[NodeChange]) -> ConfigTree | None:
    """Copy of ``tree`` with each change's node replaced.

    Only the nodes on the path from the root to each change are copied, each
    with a shallow copy of its child list; every other node is shared with
    the baseline by reference and never visited.  Returns None when a
    change's path does not resolve, its kind disagrees with the baseline
    node, or one change's path is a proper prefix of another's (the
    ancestor's replacement would drop the descendant change) -- the caller
    then falls back to a full pass.
    """
    by_path: dict[tuple[int, ...], NodeChange] = {}
    for change in changes:
        if not change.path:
            return None
        by_path[change.path] = change
    for path, change in by_path.items():
        existing = node_at(tree, path)
        if existing is None or existing.kind != change.kind:
            return None
    # a prefix sorts directly before its extensions, so adjacent pairs suffice
    ordered = sorted(by_path)
    for shorter, longer in zip(ordered, ordered[1:]):
        if longer[: len(shorter)] == shorter:
            return None
    root, copies = _spine_copies(tree.root, [path[:-1] for path in by_path])
    for path, change in by_path.items():
        parent = copies[path[:-1]]
        parent.children[path[-1]] = node_from_change(change, parent.children[path[-1]])
    return ConfigTree(tree.name, root, dialect=tree.dialect)


def _spine_copy(node: ConfigNode) -> ConfigNode:
    copy = ConfigNode(node.kind, name=node.name, value=node.value, attrs=node.attrs)
    copy.children = list(node.children)
    return copy


def _spine_copies(
    root: ConfigNode, paths: Iterable[tuple[int, ...]]
) -> tuple[ConfigNode, dict[tuple[int, ...], ConfigNode]]:
    """Copy ``root`` and every node on the way to each path, sharing the rest.

    Returns the root copy and the copies keyed by their baseline path; each
    copy's child list is its own, still in baseline order.
    """
    root_copy = _spine_copy(root)
    copies: dict[tuple[int, ...], ConfigNode] = {(): root_copy}
    for path in paths:
        node = root_copy
        for depth in range(1, len(path) + 1):
            copy = copies.get(path[:depth])
            if copy is None:
                copy = copies[path[:depth]] = _spine_copy(node.children[path[depth - 1]])
                node.children[path[depth - 1]] = copy
            node = copy
    return root_copy, copies


#: Where a child-list edit landed: (tree name, edited parent copy, slot).
SplicePoint = tuple[str, ConfigNode, int]


def _splice_tree(
    tree: ConfigTree, edits: Iterable[ChildEdit]
) -> tuple[ConfigTree, list[SplicePoint]] | None:
    # per edited parent: (baseline index, 0 = insert / 1 = remove, order, node)
    steps: dict[tuple[int, ...], list[tuple[int, int, int, ConfigNode | None]]] = {}
    removed_paths: list[tuple[int, ...]] = []
    for order, edit in enumerate(edits):
        if edit.remove is None and edit.node is None:
            return None
        if edit.remove is not None:
            if not edit.remove or node_at(tree, edit.remove) is None:
                return None
            removed_paths.append(edit.remove)
            steps.setdefault(edit.remove[:-1], []).append((edit.remove[-1], 1, order, None))
        if edit.node is not None:
            parent = None if edit.parent is None else node_at(tree, edit.parent)
            if parent is None:
                return None
            index = len(parent.children) if edit.index is None else edit.index
            if not 0 <= index <= len(parent.children):
                return None
            steps.setdefault(edit.parent, []).append((index, 0, order, edit.node))
    if len(set(removed_paths)) != len(removed_paths):
        return None
    for path in removed_paths:
        # nothing may be edited inside a removed (or moved) subtree
        if any(other[: len(path)] == path for other in steps):
            return None
    root, copies = _spine_copies(tree.root, steps)
    points: list[SplicePoint] = []
    for path, parent_steps in steps.items():
        copy = copies[path]
        old = copy.children
        children: list[ConfigNode] = []
        done = 0
        for index, removal, _order, node in sorted(parent_steps, key=lambda step: step[:3]):
            children.extend(old[done:index])
            points.append((tree.name, copy, len(children)))
            if removal:
                done = index + 1
            else:
                done = index
                children.append(node)
        children.extend(old[done:])
        if not path and not children:
            return None
        copy.children = children
    return ConfigTree(tree.name, root, dialect=tree.dialect), points


def splice_trees(
    baseline_trees: ConfigSet, edits: Iterable[ChildEdit]
) -> tuple[ConfigSet, list[SplicePoint]] | None:
    """The baseline with child-list ``edits`` applied, and where each landed.

    Every touched parent is spine-copied and its copied child list spliced;
    untouched subtrees stay shared.  Each removal and insertion yields one
    ``(tree, parent, slot)`` point: ``parent`` is the edited copy and
    ``slot`` the index, in its edited child list, of the inserted node or of
    the node that now follows a removed one -- what a dialect's
    ``splice_safe`` inspects.  Returns None when a path does not resolve, a
    node is removed twice, an edit lands inside a removed subtree, or a file
    root would be left without children.
    """
    by_tree: dict[str, list[ChildEdit]] = {}
    for edit in edits:
        if edit.tree not in baseline_trees:
            return None
        by_tree.setdefault(edit.tree, []).append(edit)
    patched = ConfigSet()
    points: list[SplicePoint] = []
    for tree in baseline_trees:
        tree_edits = by_tree.get(tree.name)
        if tree_edits is None:
            patched.add(tree)
            continue
        spliced = _splice_tree(tree, tree_edits)
        if spliced is None:
            return None
        patched.add(spliced[0])
        points.extend(spliced[1])
    return patched, points


def patched_trees(baseline_trees: ConfigSet, delta: ScenarioDelta) -> ConfigSet | None:
    """A ConfigSet mirroring the baseline with the delta applied.

    Unchanged trees are shared verbatim; changed trees are spine-copied
    (field changes via :func:`patch_tree`, child-list edits via
    :func:`splice_trees`).  Returns None when a change or edit addresses an
    unknown tree or node, or the delta mixes field changes with edits.
    """
    if delta.edits:
        if delta.changes:
            return None
        spliced = splice_trees(baseline_trees, delta.edits)
        return None if spliced is None else spliced[0]
    by_tree: dict[str, list[NodeChange]] = {}
    for change in delta.changes:
        if change.tree not in baseline_trees:
            return None
        by_tree.setdefault(change.tree, []).append(change)
    patched = ConfigSet()
    for tree in baseline_trees:
        changes = by_tree.get(tree.name)
        if changes is None:
            patched.add(tree)
            continue
        new_tree = patch_tree(tree, changes)
        if new_tree is None:
            return None
        patched.add(new_tree)
    return patched
