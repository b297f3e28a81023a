"""Incremental revalidation protocol: baselines, node deltas, fallbacks.

Every injected scenario mutates one or two nodes of an otherwise pristine
configuration set, yet the classic SUT contract re-parses and re-walks the
*entire* set per scenario.  This module carries the shared vocabulary of the
delta protocol:

* :class:`BaselineValidation` -- the result of fully validating the pristine
  file set once per ``(worker, plugin run)``, including the parsed trees and
  an opaque per-SUT reusable index (duplicate maps, option tables, context
  stacks).
* :class:`NodeChange` / :class:`ScenarioDelta` -- a scenario reduced to the
  detached field data of the configuration nodes it touches.  A change holds
  plain data (kind, name, value, attrs), never node references, so it stays
  valid after the copy-on-write context manager has undone the mutation and
  is safe to share across threads.
* a content-hash keyed baseline cache, so consecutive plugin runs (and suite
  cells) over the same system files reuse one prepared baseline instead of
  re-validating per run.
* tree-patching helpers that build a revalidation tree by copying only the
  spine above each changed node, sharing every untouched subtree with the
  baseline.
* :data:`INCREMENTAL_STATS` -- process-global counters tracking how often
  the delta path ran versus fell back to a full validation pass.

The engine decides *when* the delta path is sound (see
``InjectionEngine.prepare_incremental`` and its round-trip guard); SUTs
decide *how* to revalidate a delta (``SystemUnderTest.start_delta``).
Returning ``None`` anywhere falls back to the byte-identical full pass, so
the protocol can never change an experiment's outcome -- only its cost.
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
]


# ------------------------------------------------------------------ statistics
@dataclass
class IncrementalStats:
    """Process-global counters for the delta-validation path.

    ``attempts`` counts scenarios offered to the delta path;
    ``delta_starts`` the ones it validated without a full pass.  The three
    fallback counters partition the remainder: ``fallbacks`` are structural
    or unsupported edits, ``guard_fallbacks`` are changes the serialisation
    round-trip guard refused, and ``errors`` are unexpected exceptions
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
    post-mutation state.  Children are never part of a change -- a scenario
    that restructures children is a fallback, not a delta.
    """

    tree: str
    path: tuple[int, ...]
    kind: str
    name: str | None
    value: str | None
    attrs: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ScenarioDelta:
    """All node changes of one scenario, in operation order."""

    changes: tuple[NodeChange, ...]

    def trees(self) -> list[str]:
        """Names of the trees this delta touches, deduplicated, in order."""
        seen: dict[str, None] = {}
        for change in self.changes:
            seen.setdefault(change.tree, None)
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
    root = _spine_copy(tree.root)
    copies: dict[tuple[int, ...], ConfigNode] = {(): root}
    for path, change in by_path.items():
        parent = root
        for depth in range(1, len(path)):
            node = copies.get(path[:depth])
            if node is None:
                node = copies[path[:depth]] = _spine_copy(parent.children[path[depth - 1]])
                parent.children[path[depth - 1]] = node
            parent = node
        parent.children[path[-1]] = node_from_change(change, parent.children[path[-1]])
    return ConfigTree(tree.name, root, dialect=tree.dialect)


def _spine_copy(node: ConfigNode) -> ConfigNode:
    copy = ConfigNode(node.kind, name=node.name, value=node.value, attrs=node.attrs)
    copy.children = list(node.children)
    return copy


def patched_trees(baseline_trees: ConfigSet, delta: ScenarioDelta) -> ConfigSet | None:
    """A ConfigSet mirroring the baseline with the delta's changes applied.

    Unchanged trees are shared verbatim; changed trees are spine-copied.
    Returns None when a change addresses an unknown tree or node.
    """
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
