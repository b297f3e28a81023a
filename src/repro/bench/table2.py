"""Table 2 -- resilience to structural errors (configuration variations).

For each system and each variation class of Section 5.3 the experiment
creates ``variants_per_class`` semantically-equivalent configuration files
and checks whether the system accepts all of them.  A class is "Yes" when every variant
starts and passes the functional tests, "No" when at least one is rejected,
and "n/a" when the class does not apply to the system's format (for example
section reordering for the flat ``postgresql.conf``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profile import ResilienceProfile
from repro.core.report import classify_structural_support, structural_support_table
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.core.store import ResultStore

__all__ = [
    "Table2Result",
    "table2_from_store",
    "table2_spec",
    "VARIATION_LABELS",
    "APPLICABLE_CLASSES",
]

#: Human-readable row labels, in the paper's order.
VARIATION_LABELS = {
    "section-order": "Order of sections",
    "directive-order": "Order of directives",
    "separator-whitespace": "Spaces near separators",
    "mixed-case-names": "Mixed-case directive names",
    "truncated-names": "Truncatable directive names",
}

#: Which variation classes apply to which system.  Reordering top-level
#: sections is meaningful for MySQL's flat group structure but not for the
#: sectionless postgresql.conf nor for Apache's nested, context-carrying
#: containers -- the paper marks both "n/a".
APPLICABLE_CLASSES = {
    "MySQL": tuple(VARIATION_LABELS),
    "Postgres": tuple(c for c in VARIATION_LABELS if c != "section-order"),
    "Apache": tuple(c for c in VARIATION_LABELS if c != "section-order"),
}


@dataclass
class Table2Result:
    """Support matrix (system -> variation label -> Yes/No/n/a) plus profiles."""

    support: dict[str, dict[str, str]]
    profiles: dict[str, dict[str, ResilienceProfile]]
    table_text: str

    def satisfied_fraction(self, system: str) -> float:
        """Fraction of applicable variation classes the system accepts."""
        values = [v for v in self.support[system].values() if v != "n/a"]
        return sum(1 for v in values if v == "Yes") / len(values) if values else 0.0


#: Table 2 cell classification; the rule lives in :mod:`repro.core.report`
#: so the table can also be rebuilt from stored profiles.
_classify = classify_structural_support


def table2_spec(
    variants_per_class: int = 10,
    min_truncation: int = 8,
    execution: ExecutionSpec | None = None,
) -> ExperimentSpec:
    """The Table 2 experiment as a declarative spec.

    One ``structural-variations`` entry per variation class, labelled with
    the paper's row name -- each class is its own campaign, so the support
    matrix can be rebuilt cell-exactly from a store.
    """
    return ExperimentSpec(
        systems=(
            SystemSpec("mysql", label="MySQL"),
            SystemSpec("postgres", label="Postgres"),
            SystemSpec("apache", label="Apache"),
        ),
        plugins=tuple(
            PluginSpec(
                "structural-variations",
                label=label,
                params={
                    "classes": [variation_class],
                    "variants_per_class": variants_per_class,
                    "min_truncation": min_truncation,
                },
            )
            for variation_class, label in VARIATION_LABELS.items()
        ),
        execution=execution or ExecutionSpec(),
    )


def table2_from_store(store: ResultStore) -> Table2Result:
    """Rebuild a :class:`Table2Result` from records on disk.

    A variation class outside the system's :data:`APPLICABLE_CLASSES` (or
    one that stored no records) classifies as "n/a", whatever its records
    say: the run crosses every system with every class.
    """
    store.require_kind("table2")
    stored = store.load_profiles()
    support: dict[str, dict[str, str]] = {}
    profiles: dict[str, dict[str, ResilienceProfile]] = {}
    for system in store.systems():
        per_label = stored.get(system, {})
        applicable = APPLICABLE_CLASSES.get(
            store.system_display_name(system), tuple(VARIATION_LABELS)
        )
        support[system] = {}
        profiles[system] = {}
        for variation_class, label in VARIATION_LABELS.items():
            profile = per_label.get(label)
            if variation_class not in applicable or profile is None:
                support[system][label] = "n/a"
                continue
            profiles[system][label] = profile
            support[system][label] = _classify(profile)
    return Table2Result(
        support=support, profiles=profiles, table_text=structural_support_table(support)
    )
