"""View interface: bidirectional mappings between tree representations."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterable, Optional

from repro.core.infoset import ConfigSet
from repro.sut.incremental import ChildEdit, NodeChange, node_at

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from repro.core.templates.base import FaultScenario

__all__ = ["View", "IdentityView"]


class View(ABC):
    """A bidirectional mapping between system-specific and plugin-specific trees.

    ``transform`` produces the plugin-specific representation the error
    templates operate on; ``untransform`` maps a (possibly mutated) view back
    onto the system-specific representation so it can be serialised.  The
    original configuration set is passed to ``untransform`` because the view
    usually needs the complementary information it carries (formatting,
    comments, source addresses) to rebuild a faithful native tree.
    """

    #: Identifier used in reports.
    name: str = "view"

    @abstractmethod
    def transform(self, config_set: ConfigSet) -> ConfigSet:
        """Map the system-specific ``config_set`` to the plugin representation."""

    @abstractmethod
    def untransform(self, view_set: ConfigSet, original: ConfigSet) -> ConfigSet:
        """Map a (mutated) view back to system-specific trees.

        Raises :class:`~repro.errors.SerializationError` when the mutated view
        cannot be expressed in the original configuration format.
        """

    def untransform_touched(
        self, view_set: ConfigSet, original: ConfigSet, touched: Iterable[str]
    ) -> Optional[ConfigSet]:
        """Reverse-map only the system trees affected by changes in ``touched``.

        ``touched`` names the view trees a scenario mutated.  Views whose
        mapping is per-tree (the view tree named X determines exactly the
        system tree named X) override this to rebuild just those trees; the
        engine then reuses cached baseline serialisations for the rest.

        Returning ``None`` (the default) means the view cannot localise the
        change -- e.g. one view tree aggregates many system files -- and the
        caller must fall back to the full :meth:`untransform`.

        Unlike :meth:`untransform`, the result is scratch: it may alias nodes
        of ``view_set``, so callers must serialise it before the mutated view
        is rolled back, and must not mutate or retain it.
        """
        return None

    def scenario_changes(
        self,
        scenario: "FaultScenario",
        view_set: ConfigSet,
        baseline_trees: ConfigSet,
    ) -> "Optional[list[NodeChange | ChildEdit]]":
        """Reduce a scenario to what it does to the baseline system trees.

        Called with the *mutated* view (inside the scenario's apply/undo
        context) and the baseline system trees; returns detached
        :class:`~repro.sut.incremental.NodeChange` records for nodes edited
        in place, or :class:`~repro.sut.incremental.ChildEdit` records for
        child lists the scenario restructures, all addressing baseline
        nodes -- or ``None`` when the view cannot localise the scenario
        (multi-operation restructurings, cross-file moves, aggregate
        views).  ``None`` routes the scenario through the full validation
        pass, so a conservative answer is always sound.
        """
        return None


class IdentityView(View):
    """View whose plugin representation *is* the system-specific tree.

    Useful when the native tree already has the shape a plugin needs (for
    example the structural plugin on section/directive based formats), and
    as the trivial case in tests.
    """

    name = "identity"

    def transform(self, config_set: ConfigSet) -> ConfigSet:
        return config_set.clone()

    def untransform(self, view_set: ConfigSet, original: ConfigSet) -> ConfigSet:
        return view_set.clone()

    def untransform_touched(
        self, view_set: ConfigSet, original: ConfigSet, touched: Iterable[str]
    ) -> Optional[ConfigSet]:
        # The identity mapping can hand the mutated view trees straight to the
        # serialiser; the caller discards them before the view is rolled back.
        result = ConfigSet()
        for name in touched:
            if name not in view_set:
                return None
            result.add(view_set.get(name))
        return result

    def scenario_changes(
        self,
        scenario: "FaultScenario",
        view_set: ConfigSet,
        baseline_trees: ConfigSet,
    ) -> Optional[list[NodeChange | ChildEdit]]:
        # Identity mapping: a view path *is* the system-tree path, so a
        # field edit maps one-to-one onto a baseline node, and a lone
        # delete, insert or same-tree move onto one child-list edit.
        from repro.core.templates.base import SetFieldOperation  # cycle guard

        operations = scenario.operations
        if len(operations) == 1 and not isinstance(operations[0], SetFieldOperation):
            edit = _child_edit(operations[0], baseline_trees)
            return None if edit is None else [edit]
        latest: dict[tuple[str, tuple[int, ...]], NodeChange] = {}
        for operation in scenario.operations:
            if not isinstance(operation, SetFieldOperation):
                return None
            address = operation.target
            path = tuple(address.path)
            if not path or address.tree not in view_set or address.tree not in baseline_trees:
                return None
            node = node_at(view_set.get(address.tree), path)
            base = node_at(baseline_trees.get(address.tree), path)
            if node is None or base is None or node.kind != base.kind:
                return None
            latest[(address.tree, path)] = NodeChange(
                tree=address.tree,
                path=path,
                kind=node.kind,
                name=node.name,
                value=node.value,
                attrs=node.attrs,
            )
        return list(latest.values())


def _child_edit(operation, baseline_trees: ConfigSet) -> Optional[ChildEdit]:
    """One structural operation as a child-list edit in baseline coordinates.

    The scenario's single operation runs on the pristine view, so its
    addresses are baseline paths; only a move's index counts positions
    after the detach and is mapped back.
    """
    from repro.core.templates.base import DeleteOperation, InsertOperation, MoveOperation

    if isinstance(operation, DeleteOperation):
        # splicing refuses a path that does not resolve
        return ChildEdit(tree=operation.target.tree, remove=tuple(operation.target.path))
    if isinstance(operation, InsertOperation):
        address = operation.parent
        if address.tree not in baseline_trees:
            return None
        parent = node_at(baseline_trees.get(address.tree), address.path)
        if parent is None:
            return None
        index = operation.index
        if index is not None and index >= len(parent.children):
            index = None
        return ChildEdit(
            tree=address.tree, parent=tuple(address.path), index=index, node=operation.node
        )
    if isinstance(operation, MoveOperation):
        target, destination = operation.target, operation.new_parent
        if target.tree != destination.tree or target.tree not in baseline_trees:
            return None
        path, parent_path = tuple(target.path), tuple(destination.path)
        if not path or parent_path[: len(path)] == path:
            return None
        tree = baseline_trees.get(target.tree)
        node, parent = node_at(tree, path), node_at(tree, parent_path)
        if node is None or parent is None:
            return None
        index = operation.index
        same_parent = parent_path == path[:-1]
        if index is not None:
            if index >= len(parent.children) - same_parent:
                index = None
            elif same_parent and index >= path[-1]:
                index += 1  # the detached node no longer takes up a slot
        return ChildEdit(tree=target.tree, remove=path, parent=parent_path, index=index, node=node)
    return None
