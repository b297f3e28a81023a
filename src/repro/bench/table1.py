"""Table 1 -- resilience to typos.

The paper injects three kinds of errors into the default configuration files
of MySQL, Postgres and Apache (Section 5.2):

* deletion of entire directives,
* typos in directive names (for each section, up to ten randomly selected
  directives get typos in their names),
* typos in directive values (same selection, typos in the values).

Outcomes are classified as detected at startup, detected by the functional
tests or ignored; :func:`table1_spec` describes the run and
:func:`table1_from_store` renders the per-system profiles in the Table 1
layout.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.profile import ResilienceProfile
from repro.core.report import typo_resilience_table
from repro.core.spec import ExecutionSpec, ExperimentSpec, PluginSpec, SystemSpec
from repro.core.store import ResultStore
from repro.core.views.token_view import TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE

__all__ = ["Table1Result", "table1_from_store", "table1_spec"]


def table1_spec(
    typos_per_directive: int = 10,
    directives_per_section: int = 10,
    execution: ExecutionSpec | None = None,
) -> ExperimentSpec:
    """The Table 1 experiment as a declarative spec.

    MySQL uses the server-group-only workload variant so that every injected
    typo targets a directive the server actually parses at startup; the paper
    counts 14 directives for MySQL, 8 for Postgres and 98 for Apache.  Name
    and value typos are one ``spelling`` campaign over both token types, so
    one random draw of ``directives_per_section`` directives per section
    gets its names and its values misspelled.
    """
    return ExperimentSpec(
        systems=(
            SystemSpec("mysql-server-only", label="MySQL"),
            SystemSpec("postgres", label="Postgres"),
            SystemSpec("apache", label="Apache"),
        ),
        plugins=(
            PluginSpec("structural", label="omit-directive", params={"include": ["omit-directive"]}),
            PluginSpec(
                "spelling",
                label="typos",
                params={
                    "token_types": [TOKEN_DIRECTIVE_NAME, TOKEN_DIRECTIVE_VALUE],
                    "mutations_per_token": typos_per_directive,
                    "directives_per_section": directives_per_section,
                },
            ),
        ),
        execution=execution or ExecutionSpec(),
    )


@dataclass
class Table1Result:
    """Per-system typo-resilience profiles plus the rendered table."""

    profiles: dict[str, ResilienceProfile]
    table_text: str

    def detection_rate(self, system: str) -> float:
        """Overall detection rate of one system."""
        return self.profiles[system].detection_rate()


def table1_from_store(store: ResultStore) -> Table1Result:
    """Rebuild a :class:`Table1Result` from records on disk.

    Works for Table 1 stores and for campaign-suite stores alike: each
    system's campaigns are merged into one profile and rendered through the
    same Table 1 layout.
    """
    store.require_kind("table1", "suite")
    profiles = store.merged_profiles()
    return Table1Result(profiles=profiles, table_text=typo_resilience_table(profiles))
