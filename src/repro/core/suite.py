"""Campaign suites: whole evaluations as one durable, resumable run.

The paper's evaluation is inherently a *suite*: every table crosses several
systems with several error classes.  A :class:`CampaignSuite` fans M systems
x N plugins into per-system campaigns driven through the parallel executor,
derives a stable seed for every (system, plugin) cell from one suite seed,
and -- when given a :class:`~repro.core.store.ResultStore` -- appends every
record to disk as it lands so an interrupted suite can be resumed.  Appends
are live under every executor strategy: the engine's streaming merge
releases records in scenario order while workers are still injecting, so a
``--jobs 4`` run killed mid-campaign still leaves everything but the
in-flight tail on disk.

Resumption is scenario-exact: the suite regenerates each cell's scenarios
from the derived seed (generation is deterministic), skips the scenario ids
already on disk, and runs only the remainder.  A second run of a completed
suite therefore replays zero scenarios, and rendering the paper's tables
from the store is byte-identical to rendering them from the live run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.campaign import Campaign
from repro.core.faults import FaultPolicy
from repro.core.profile import InjectionRecord, ResilienceProfile
from repro.core.report import resilience_matrix_table, typo_resilience_table
from repro.core.spec import ExperimentSpec, derive_seed
from repro.core.store import ResultStore
from repro.errors import CampaignError, CancelledRun, StoreError
from repro.plugins.base import ErrorGeneratorPlugin
from repro.sut.base import SystemUnderTest, split_sut

__all__ = ["CampaignSuite", "SuiteResult", "derive_seed"]


@dataclass
class SuiteResult:
    """Profiles and bookkeeping of one suite invocation.

    ``profiles`` holds the *complete* per-(system, plugin) profiles -- on a
    resumed run that includes the records reloaded from the store, not just
    the ones this invocation executed.  ``executed``/``skipped`` count, per
    system and plugin, the scenarios run now vs. skipped as already stored.
    """

    system_names: dict[str, str]
    profiles: dict[str, dict[str, ResilienceProfile]] = field(default_factory=dict)
    executed: dict[str, dict[str, int]] = field(default_factory=dict)
    skipped: dict[str, dict[str, int]] = field(default_factory=dict)

    def overall(self, system: str) -> ResilienceProfile:
        """All plugins' records for one system merged into one profile."""
        merged = ResilienceProfile(self.system_names.get(system, system))
        for profile in self.profiles.get(system, {}).values():
            merged.extend(profile.records)
        return merged

    def overall_profiles(self) -> dict[str, ResilienceProfile]:
        """Merged per-system profiles keyed by display name, in suite order."""
        return {self.system_names[key]: self.overall(key) for key in self.profiles}

    def total_executed(self) -> int:
        """Scenarios actually run by this invocation."""
        return sum(count for per_plugin in self.executed.values() for count in per_plugin.values())

    def total_skipped(self) -> int:
        """Scenarios skipped because their records were already stored."""
        return sum(count for per_plugin in self.skipped.values() for count in per_plugin.values())

    def table1(self) -> str:
        """Table 1 layout over the suite's merged per-system profiles."""
        return typo_resilience_table(self.overall_profiles())

    def profiles_by_display(self) -> dict[str, dict[str, ResilienceProfile]]:
        """Per-(system, plugin) cell profiles keyed by system display name.

        The shape the matrix renderer (and :class:`MatrixResult`) consumes;
        keeping the display-name remapping in one place is what guarantees
        the live rendering stays byte-identical to the store-backed one.
        """
        return {
            self.system_names.get(key, key): dict(per_plugin)
            for key, per_plugin in self.profiles.items()
        }

    def matrix(self) -> str:
        """The systems x plugins resilience matrix of this suite.

        Byte-identical to :func:`~repro.core.report.store_matrix_table`
        over the store the same run wrote: columns are the suite's systems
        (display names, suite order), rows its plugins (campaign order).
        """
        return resilience_matrix_table(self.profiles_by_display())

    def summary(self) -> str:
        """Multi-line human-readable overview of the whole suite."""
        lines = []
        for key in self.profiles:
            profile = self.overall(key)
            lines.append(
                f"{self.system_names.get(key, key)}: "
                f"{profile.injected_count()} injected, "
                f"{profile.detected_count()} detected "
                f"({profile.detection_rate():.1%}), "
                f"{profile.ignored_count()} ignored"
            )
        lines.append(
            f"scenarios executed: {self.total_executed()}, "
            f"skipped (already stored): {self.total_skipped()}"
        )
        return "\n".join(lines)


class CampaignSuite:
    """M systems x N plugins, one seed, one optional persistent store.

    Parameters
    ----------
    systems:
        Mapping of system key (used for store file names and seed
        derivation) to a zero-argument SUT factory.
    plugins:
        The error-generator plugins to run against every system.  Plugin
        names must be unique: they key the per-campaign records in the
        store.
    seed:
        The one suite seed; every (system, plugin) campaign runs under
        :func:`derive_seed` of it.
    layout:
        Keyboard-layout name recorded in the manifest (informational; the
        spelling plugin itself carries the layout used for generation).
    jobs / executor / block_size:
        Worker fan-out per campaign, as in :class:`~repro.core.campaign.Campaign`.
    policy:
        Optional :class:`~repro.core.faults.FaultPolicy` opting every
        campaign into the fault-tolerance layer.  Scenarios it gives up on
        land in the store's ``quarantine.jsonl``, not the record stream.
    retry_quarantined:
        What a resume does with previously quarantined scenarios: False
        (default) keeps skipping them, True drops their quarantine entries
        and re-attempts them.
    spec:
        Optional :class:`~repro.core.spec.ExperimentSpec` this suite was
        built from; when present it is embedded in the store manifest so
        resume compatibility is a structured spec diff.
    record_observer:
        Optional ``(system_key, plugin_name, record)`` callback fired once
        per record, live, in scenario order -- under every executor
        strategy (the engine's streaming merge releases records as the
        front of the scenario sequence completes).  Fires after the store
        append, so a progress line never reports a record that could still
        be lost.
    kind:
        Run kind recorded in the manifest: ``"suite"`` for general suites,
        the artefact name (``"table1"``...) for a paper artefact's run.  The
        ``--from-store`` readers check it, and a resume refuses a store of
        another kind.
    cancel_check:
        Optional zero-argument callable polled before every cell and before
        every record append; returning True raises
        :class:`~repro.errors.CancelledRun`, aborting the run cooperatively.
        Everything already released to the store stays durable (the check
        runs *before* an append, never between an append and its
        observer), so a cancelled run resumes exactly like an interrupted
        one.  This is the cancellation hook behind ``DELETE /jobs/{id}``
        and graceful service shutdown.
    """

    def __init__(
        self,
        systems: Mapping[str, Callable[[], SystemUnderTest]],
        plugins: Sequence[ErrorGeneratorPlugin],
        *,
        seed: int = 2008,
        layout: str | None = None,
        jobs: int = 1,
        executor: str | None = None,
        block_size: int | None = None,
        policy: FaultPolicy | None = None,
        incremental: bool = True,
        retry_quarantined: bool = False,
        check_baseline: bool = True,
        spec: ExperimentSpec | None = None,
        record_observer: Callable[[str, str, InjectionRecord], None] | None = None,
        cancel_check: Callable[[], bool] | None = None,
        kind: str = "suite",
    ):
        if not systems:
            raise CampaignError("a suite needs at least one system")
        if not plugins:
            raise CampaignError("a suite needs at least one plugin")
        names = [plugin.name for plugin in plugins]
        duplicates = {name for name in names if names.count(name) > 1}
        if duplicates:
            raise CampaignError(
                f"plugin names must be unique within a suite, got duplicates: {sorted(duplicates)}"
            )
        self.systems = dict(systems)
        self.plugins = list(plugins)
        self.seed = seed
        self.layout = layout
        self.jobs = jobs
        self.executor = executor
        self.block_size = block_size
        self.policy = policy
        self.incremental = incremental
        self.retry_quarantined = retry_quarantined
        self.check_baseline = check_baseline
        self.spec = spec
        self.record_observer = record_observer
        self.cancel_check = cancel_check
        self.kind = kind

    @classmethod
    def from_spec(
        cls,
        spec: ExperimentSpec,
        record_observer: Callable[[str, str, InjectionRecord], None] | None = None,
        cancel_check: Callable[[], bool] | None = None,
        kind: str = "suite",
    ) -> "CampaignSuite":
        """Build the suite a declarative :class:`ExperimentSpec` describes.

        The spec is validated first, so a suite built here is guaranteed to
        reference registered systems and plugins with well-formed params.
        """
        spec.validate()
        return cls(
            spec.build_systems(),
            spec.build_plugins(),
            seed=spec.execution.seed,
            layout=spec.execution.layout,
            jobs=spec.execution.jobs,
            executor=spec.execution.executor,
            block_size=spec.execution.block_size,
            policy=FaultPolicy.from_execution(spec.execution),
            incremental=spec.execution.incremental,
            retry_quarantined=spec.store.retry_quarantined if spec.store else False,
            spec=spec,
            record_observer=record_observer,
            cancel_check=cancel_check,
            kind=kind,
        )

    # ----------------------------------------------------------------- manifest
    def system_names(self) -> dict[str, str]:
        """Display name of every system, by key.

        A system the spec labels is shown under its label; any other under
        its SUT's name (instantiating its factory once).  Duplicate display
        names are refused: the rendered tables are keyed by display name, so
        two systems sharing one would silently collapse into a single column.
        """
        labels = {system.key: system.label for system in self.spec.systems} if self.spec else {}
        names = {
            key: labels.get(key) or split_sut(factory)[0].name
            for key, factory in self.systems.items()
        }
        seen: dict[str, str] = {}
        for key, name in names.items():
            if name in seen:
                raise CampaignError(
                    f"systems {seen[name]!r} and {key!r} share the display name {name!r}; "
                    "rendered tables would merge them -- give one a distinguishable SUT name"
                )
            seen[name] = key
        return names

    def manifest(self) -> dict[str, Any]:
        """The run manifest persisted alongside the records."""
        manifest: dict[str, Any] = {
            "kind": self.kind,
            "seed": self.seed,
            "systems": self.system_names(),
            "plugins": [
                {"name": plugin.name, "params": plugin.manifest_params()}
                for plugin in self.plugins
            ],
            "layout": self.layout,
            "executor": self._executor_manifest(),
        }
        if self.spec is not None:
            manifest["spec"] = self.spec.to_dict()
        return manifest

    def _executor_manifest(self) -> dict[str, Any]:
        """Worker settings recorded in the manifest (informational only:
        profiles are executor-invariant, so resume never compares them)."""
        executor: dict[str, Any] = {"jobs": self.jobs, "executor": self.executor}
        if self.block_size is not None:
            executor["block_size"] = self.block_size
        return executor

    def campaign_seed(self, system: str, plugin_name: str) -> int:
        """Seed of one (system, plugin) campaign."""
        return derive_seed(self.seed, system, plugin_name)

    # ---------------------------------------------------------------------- run
    def run(self, store: ResultStore | None = None, resume: bool = False) -> SuiteResult:
        """Run (or resume) every campaign of the suite.

        With a ``store``, every record is appended to disk as it lands and
        the manifest is written up front.  With ``resume=True`` the store's
        manifest is checked for compatibility and scenario ids already on
        disk are skipped; without it, an existing store is refused rather
        than silently mixed into.
        """
        if resume and store is None:
            raise CampaignError("resuming needs a result store")
        manifest = self.manifest()
        if store is not None:
            if store.exists():
                if not resume:
                    raise StoreError(
                        f"result store {store.root} already exists; "
                        "resume it or point at a fresh directory"
                    )
                store.check_compatible(manifest)
            else:
                store.write_manifest(manifest)

        result = SuiteResult(system_names=dict(manifest["systems"]))
        for system_key, factory in self.systems.items():
            self._check_cancelled()
            prior: dict[str, list[InjectionRecord]] = {}
            completed: set[tuple[str, str]] = set()
            if store is not None and resume:
                for campaign_name, record in store.iter_records(system_key):
                    prior.setdefault(campaign_name, []).append(record)
                    completed.add((campaign_name, record.scenario_id))
                if self.retry_quarantined:
                    # drop the quarantine entries so the filter below lets
                    # the scenarios run again (and re-quarantine on failure)
                    store.clear_quarantine(system_key)
                else:
                    # quarantined scenarios count as handled: re-running a
                    # scenario that hung or killed its worker every resume
                    # would make the store unfinishable
                    completed |= store.quarantined_ids(system_key)

            campaign = Campaign(
                factory,
                self.plugins,
                seed=self.seed,
                check_baseline=self.check_baseline,
                jobs=self.jobs,
                executor=self.executor,
                block_size=self.block_size,
                policy=self.policy,
                incremental=self.incremental,
                seed_for=lambda plugin, _index, key=system_key: self.campaign_seed(
                    key, plugin.name
                ),
                scenario_filter=(
                    (lambda name, scenario: (name, scenario.scenario_id) not in completed)
                    if completed
                    else None
                ),
                plugin_observer=self._cell_observer(system_key, store),
            )
            campaign_result = campaign.run()

            display = result.system_names[system_key]
            merged: dict[str, ResilienceProfile] = {}
            for plugin in self.plugins:
                records = list(prior.get(plugin.name, []))
                records.extend(campaign_result.per_plugin[plugin.name].records)
                merged[plugin.name] = ResilienceProfile(display, records)
            result.profiles[system_key] = merged
            result.executed[system_key] = dict(campaign_result.executed)
            result.skipped[system_key] = dict(campaign_result.skipped)
        return result

    def _check_cancelled(self) -> None:
        if self.cancel_check is not None and self.cancel_check():
            raise CancelledRun(
                "suite run cancelled; records released so far are durable "
                "and the store can be resumed"
            )

    def _cell_observer(
        self, system_key: str, store: ResultStore | None
    ) -> Callable[[str, InjectionRecord], None] | None:
        """Per-record callback for one system's campaign: persist, then report.

        The store append runs first so that by the time a progress observer
        announces a record it is already durable on disk.  The cancellation
        check runs before the append: a record is either fully released
        (stored *and* reported) or not released at all.
        """
        if store is None and self.record_observer is None and self.cancel_check is None:
            return None

        def observe(plugin_name: str, record: InjectionRecord) -> None:
            self._check_cancelled()
            if store is not None:
                store.append(system_key, plugin_name, record)
            if self.record_observer is not None:
                self.record_observer(system_key, plugin_name, record)

        return observe
