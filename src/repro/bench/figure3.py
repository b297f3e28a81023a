"""Figure 3 -- comparing the typo resilience of MySQL and Postgres.

The Section 5.5 benchmark views configuration as a transformation of an
initial file and measures how many of the errors introduced along the way
the system detects.  Concretely (and as in the paper):

* the starting configuration contains most of the available directives with
  their default values; directives with boolean values or no default are
  excluded,
* only typos in directive *values* are injected (name typos are detected by
  both systems and would not differentiate them),
* each directive receives ``experiments_per_directive`` independent typo
  experiments (the paper uses 20),
* the per-directive detection rate is binned into poor / fair / good /
  excellent, and Figure 3 reports the share of directives in each bin.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profile import ResilienceProfile
from repro.core.report import (
    detection_distribution,
    per_directive_detection_rates,
    render_distribution_chart,
)
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.core.store import ResultStore
from repro.core.views.token_view import TOKEN_DIRECTIVE_VALUE

__all__ = ["Figure3Result", "figure3_from_store", "figure3_spec"]

#: Store campaign key for the one plugin the comparison runs per system.
FIGURE3_CAMPAIGN = "value-typos"


def figure3_spec(
    experiments_per_directive: int = 20, execution: ExecutionSpec | None = None
) -> ExperimentSpec:
    """The Figure 3 comparison as a declarative spec.

    Both systems run the full-directive workload variants (most available
    directives at their defaults, Section 5.5) with value typos only.
    """
    return ExperimentSpec(
        systems=(
            SystemSpec("mysql-full-directives", label="MySQL"),
            SystemSpec("postgres-full-directives", label="Postgresql"),
        ),
        plugins=(
            PluginSpec(
                "spelling",
                label=FIGURE3_CAMPAIGN,
                params={
                    "token_types": [TOKEN_DIRECTIVE_VALUE],
                    "mutations_per_token": experiments_per_directive,
                },
            ),
        ),
        execution=execution or ExecutionSpec(),
    )


@dataclass
class Figure3Result:
    """Per-system directive detection rates, bin distributions and the chart."""

    per_directive_rates: dict[str, dict[str, float]]
    distributions: dict[str, dict[str, float]]
    profiles: dict[str, ResilienceProfile]
    chart_text: str

    def share(self, system: str, bin_label: str) -> float:
        """Share of a system's directives in one detection bin."""
        return self.distributions[system].get(bin_label, 0.0)


def figure3_from_store(store: ResultStore) -> Figure3Result:
    """Rebuild a :class:`Figure3Result` from records on disk.

    The per-directive detection rates are computed from the stored
    records' metadata.
    """
    store.require_kind("figure3", "suite")
    per_directive_rates: dict[str, dict[str, float]] = {}
    distributions: dict[str, dict[str, float]] = {}
    profiles = store.merged_profiles()
    for name, profile in profiles.items():
        rates = per_directive_detection_rates(profile)
        per_directive_rates[name] = rates
        distributions[name] = detection_distribution(rates)
    return Figure3Result(
        per_directive_rates=per_directive_rates,
        distributions=distributions,
        profiles=profiles,
        chart_text=render_distribution_chart(distributions),
    )
