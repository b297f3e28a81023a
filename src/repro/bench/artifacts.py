"""The one path from a paper artefact's spec to its rendering.

Every artefact is a pair: a spec builder (``table1_spec`` & co.) and a
store renderer (``table1_from_store`` & co.).  :func:`run_artifact` runs
the spec through :class:`~repro.core.suite.CampaignSuite` into a result
store -- a temporary one when none is given -- and renders from that
store, so a live rendering *is* the ``--from-store`` rendering of the
run's own records.  :func:`render_artifact` is the text the CLI prints
and the campaign service serves for a store.
"""

from __future__ import annotations

import json
import tempfile
from typing import Any, Callable

from repro.bench.figure3 import figure3_from_store, figure3_spec
from repro.bench.matrix import matrix_from_store, matrix_spec
from repro.bench.table1 import table1_from_store, table1_spec
from repro.bench.table2 import table2_from_store, table2_spec
from repro.bench.table3 import table3_from_store, table3_spec
from repro.core.spec import ExperimentSpec
from repro.core.store import ResultStore
from repro.core.suite import CampaignSuite
from repro.errors import ServiceError

__all__ = [
    "ARTIFACTS",
    "ARTIFACT_NAMES",
    "artifact_kind",
    "artifact_text",
    "render_artifact",
    "run_artifact",
]

#: Every artefact a run can produce: its spec builder and its store renderer.
ARTIFACTS: dict[str, tuple[Callable[..., ExperimentSpec], Callable[[ResultStore], Any]]] = {
    "table1": (table1_spec, table1_from_store),
    "table2": (table2_spec, table2_from_store),
    "table3": (table3_spec, table3_from_store),
    "figure3": (figure3_spec, figure3_from_store),
    "matrix": (matrix_spec, matrix_from_store),
}

#: Renderable artifacts of a result store, named after the CLI sub-commands
#: that print them.
ARTIFACT_NAMES = (*ARTIFACTS, "report")


def artifact_kind(name: str) -> str:
    """Manifest kind of an artifact's run: its name (a matrix is a suite)."""
    return "suite" if name == "matrix" else name


def run_artifact(
    name: str,
    spec: ExperimentSpec,
    store: ResultStore | None = None,
    *,
    resume: bool = False,
    record_observer: Callable[..., None] | None = None,
) -> Any:
    """Run ``spec`` into ``store`` and return the artifact rendered from it.

    Without a ``store`` the records go to a temporary directory that is
    removed once the result (which holds its profiles in memory) is built.
    ``resume`` continues an interrupted run in ``store``; ``record_observer``
    is the suite's per-record callback (the CLI's progress line).
    """
    if store is None:
        with tempfile.TemporaryDirectory(prefix="conferr-") as scratch:
            return run_artifact(
                name, spec, ResultStore(scratch), record_observer=record_observer
            )
    suite = CampaignSuite.from_spec(
        spec, record_observer=record_observer, kind=artifact_kind(name)
    )
    with store:
        suite.run(store=store, resume=resume)
    _builder, render = ARTIFACTS[name]
    return render(store)


def artifact_text(name: str, result: Any) -> str:
    """The text the CLI prints for an artifact's rendered ``result``."""
    if name == "figure3":
        return f"{result.chart_text}\n\n{json.dumps(result.distributions, indent=2)}\n"
    return result.table_text + "\n"


def render_artifact(store: ResultStore, name: str) -> str:
    """Render one artifact from a result store, as the CLI prints it.

    Raises :class:`~repro.errors.StoreError` when the store's run kind
    cannot serve the artifact (e.g. ``table2`` from a suite store) and
    :class:`~repro.errors.ServiceError` for an unknown artifact name.
    """
    if name == "report":
        from repro.core.report import render_store_report

        return render_store_report(store) + "\n"
    if name not in ARTIFACTS:
        raise ServiceError(
            f"unknown artifact {name!r}; available: {', '.join(ARTIFACT_NAMES)}"
        )
    _builder, render = ARTIFACTS[name]
    return artifact_text(name, render(store))
