"""Table 3 -- resilience to semantic (RFC-1912 style) DNS errors.

For BIND and djbdns the experiment injects record-level faults through the
system-independent record view and classifies each fault class:

* ``found``     -- at least one scenario of the class was detected (the
  server refused to load the zone, or the functional tests failed),
* ``not found`` -- every scenario was served without complaint,
* ``N/A``       -- every scenario was impossible to express in the system's
  configuration format (djbdns' combined ``=`` records).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.profile import ResilienceProfile
from repro.core.report import classify_semantic_behaviour, semantic_behaviour_table
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.core.store import ResultStore

__all__ = ["Table3Result", "table3_from_store", "table3_spec", "FAULT_LABELS"]

#: Store campaign key for the one plugin Table 3 runs per system.
TABLE3_CAMPAIGN = "semantic-dns"

#: Fault classes shown in the paper's Table 3, with the row descriptions.
FAULT_LABELS = {
    "missing-ptr": "Missing PTR",
    "ptr-to-cname": "PTR pointing to CNAME",
    "ns-cname-clash": "dupl name for NS and CNAME",
    "mx-to-cname": "MX pointing to CNAME",
}


@dataclass
class Table3Result:
    """Behaviour matrix (fault -> system -> found / not found / N/A) plus profiles."""

    behaviour: dict[str, dict[str, str]]
    profiles: dict[str, ResilienceProfile]
    table_text: str

    def behaviour_of(self, fault_class_label: str, system: str) -> str:
        """Behaviour of one system for one fault row."""
        return self.behaviour[fault_class_label][system]


#: Table 3 cell classification; the rule lives in :mod:`repro.core.report`
#: so the table can also be rebuilt from stored profiles.
_classify = classify_semantic_behaviour


def _behaviour_matrix(
    profiles: dict[str, ResilienceProfile], labels: dict[str, str]
) -> dict[str, dict[str, str]]:
    """Classify each (fault class, system) cell from the raw profiles."""
    behaviour: dict[str, dict[str, str]] = {label: {} for label in labels.values()}
    for name, profile in profiles.items():
        by_category = profile.by_category()
        for fault_class, label in labels.items():
            class_profile = by_category.get(f"semantic-{fault_class}", ResilienceProfile(name))
            behaviour[label][name] = _classify(class_profile)
    return behaviour


def table3_spec(
    max_scenarios_per_class: int = 3,
    fault_classes: Sequence[str] | None = None,
    execution: ExecutionSpec | None = None,
) -> ExperimentSpec:
    """The Table 3 experiment as a declarative spec (the DNS semantic sweep)."""
    return ExperimentSpec(
        systems=(SystemSpec("bind", label="BIND"), SystemSpec("djbdns")),
        plugins=(
            PluginSpec(
                TABLE3_CAMPAIGN,
                params={
                    "classes": list(fault_classes if fault_classes is not None else FAULT_LABELS),
                    "max_scenarios_per_class": max_scenarios_per_class,
                },
            ),
        ),
        execution=execution or ExecutionSpec(),
    )


def table3_from_store(
    store: ResultStore, fault_classes: dict[str, str] | None = None
) -> Table3Result:
    """Rebuild a :class:`Table3Result` from records on disk.

    The stored records carry their fault class in the scenario category,
    which is what the behaviour matrix is classified by.
    """
    store.require_kind("table3", "suite")
    labels = fault_classes if fault_classes is not None else FAULT_LABELS
    profiles = store.merged_profiles()
    behaviour = _behaviour_matrix(profiles, labels)
    return Table3Result(
        behaviour=behaviour,
        profiles=profiles,
        table_text=semantic_behaviour_table(behaviour),
    )
