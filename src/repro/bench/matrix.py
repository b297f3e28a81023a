"""The resilience matrix -- M systems x N plugins, one table.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
the matrix driver is where that ambition becomes visible: every registered
system crossed with every applicable error family, rendered as one table
whose cells are ``detected/injected (rate)``.  Adding a system or a plugin
to the registries grows the matrix automatically.

A matrix run is an ordinary campaign suite over :func:`matrix_spec`, so it
is resumable, persistable and executor-invariant like any suite, and
:func:`matrix_from_store` renders it (or any suite store) from disk.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profile import ResilienceProfile
from repro.core.report import resilience_matrix_table, store_matrix_profiles
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.core.store import ResultStore

__all__ = [
    "MatrixResult",
    "MATRIX_SYSTEMS",
    "MATRIX_PLUGINS",
    "matrix_spec",
    "matrix_from_store",
]

#: Default system line-up: the paper's five plus the beyond-the-paper SUTs.
MATRIX_SYSTEMS = ("mysql", "postgres", "apache", "bind", "djbdns", "nginx", "sshd")

#: Default plugin line-up: every error family that applies across systems.
MATRIX_PLUGINS = ("spelling", "structural", "omission", "semantic-constraints")


@dataclass
class MatrixResult:
    """Per-(system, plugin) profiles plus the rendered matrix."""

    profiles: dict[str, dict[str, ResilienceProfile]]
    table_text: str

    def cell(self, system: str, plugin: str) -> ResilienceProfile:
        """Profile of one (system display name, plugin) cell."""
        return self.profiles[system][plugin]


def matrix_spec(
    systems: tuple[str, ...] | list[str] | None = None,
    plugins: tuple[str, ...] | list[str] | None = None,
    execution: ExecutionSpec | None = None,
) -> ExperimentSpec:
    """The matrix experiment as a declarative spec.

    The default execution sets ``mutations_per_token`` to 1 (the CLI's
    default) rather than the spelling plugin's exhaustive enumeration: an
    M x N matrix multiplies whatever each cell costs.
    """
    return ExperimentSpec(
        systems=tuple(SystemSpec(name) for name in (systems or MATRIX_SYSTEMS)),
        plugins=tuple(PluginSpec(name) for name in (plugins or MATRIX_PLUGINS)),
        execution=execution or ExecutionSpec(mutations_per_token=1),
    )


def matrix_from_store(store: ResultStore) -> MatrixResult:
    """Rebuild a :class:`MatrixResult` from records on disk.

    Works for any suite-kind store (``conferr suite --store`` and
    ``conferr matrix --store`` write the same layout).
    """
    store.require_kind("suite")
    profiles, plugin_order = store_matrix_profiles(store)
    # a campaign that injected nothing has no records on disk; fill in the
    # empty cells so .cell() behaves exactly like a live MatrixResult's
    for display, per_plugin in profiles.items():
        for plugin in plugin_order or ():
            per_plugin.setdefault(plugin, ResilienceProfile(display))
    table = resilience_matrix_table(profiles, plugin_order=plugin_order)
    return MatrixResult(profiles=profiles, table_text=table)
