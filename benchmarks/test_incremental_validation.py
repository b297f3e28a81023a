"""Benchmark: the delta-validation fast path vs full revalidation.

The incremental protocol (``SystemUnderTest.prepare`` once, then
``start_delta`` per scenario) exists to amortise the parse-and-validate cost
of the pristine configuration across a campaign.  This benchmark pins the
pay-off on the workload where full revalidation is most expensive -- the
Figure 3 ``mysql-full-directives`` system, whose ~250-directive ``my.cnf``
makes every full start re-parse and re-apply hundreds of directives while a
typo scenario only perturbs one.

Two things are asserted:

* **>= 5x scenarios/sec at jobs=1** for the incremental engine over the
  ``incremental=False`` engine on the same pre-generated scenario stream.
  Both engines run in interleaved rounds (incremental, full, incremental,
  full, ...) timed in process CPU time, and the medians are compared, so a
  burst of load from another tenant lands on both modes and a single slow
  round moves neither median.
* **Identical profiles** -- the speedup must not change a single outcome.

The measured numbers, the delta-path counter snapshot (fallback rate), and a
per-SUT breakdown across all seven families, for typo (spelling) and
structural scenarios, are written to ``BENCH_incremental.json`` for the
tracked perf trajectory.
"""

import statistics
import time

import pytest

from benchmarks.conftest import BENCH_SEED, write_bench_json
from repro.core.engine import InjectionEngine
from repro.plugins import SpellingMistakesPlugin, StructuralErrorsPlugin
from repro.registry import get_system
from repro.sut.incremental import INCREMENTAL_STATS

#: Minimum incremental-over-full throughput ratio on mysql-full-directives
#: (observed ~5.5-8x; the floor leaves headroom for loaded CI workers).
MIN_SPEEDUP = 5.0

#: All seven SUT families, for the per-SUT trajectory breakdown.
FAMILIES = ("mysql", "postgres", "apache", "bind", "djbdns", "nginx", "sshd")

#: Families with structural scenarios: a tinydns data file has no
#: directives or sections, so djbdns has none.
STRUCTURAL_FAMILIES = tuple(family for family in FAMILIES if family != "djbdns")

#: The benchmarked scenario streams, by plugin family.
PLUGINS = {
    "spelling": lambda: SpellingMistakesPlugin(mutations_per_token=2),
    "structural": StructuralErrorsPlugin,
}


def _interleaved_runs(system_name: str, plugin: str = "spelling", rounds: int = 3):
    """Median CPU seconds of the incremental and the full engine.

    Each engine runs its pre-generated scenarios once to warm up (parses,
    baseline prepare, caches), then the two alternate for ``rounds``
    rounds.  Scenario generation and the one-off ``prepare`` stay outside
    the clock: the quantity under test is the steady-state per-scenario
    cost, which is what dominates a long campaign.  Returns ``(incremental
    profile, full profile, scenario count, incremental median, full
    median)``.
    """
    runs = []
    for incremental in (True, False):
        engine = InjectionEngine(
            get_system(system_name), PLUGINS[plugin](), seed=BENCH_SEED, incremental=incremental
        )
        config_set, view_set, scenarios = engine.generate_scenarios()
        profile = engine.run(scenarios, config_set=config_set, view_set=view_set)
        runs.append((engine, config_set, view_set, scenarios, profile, []))
    for _ in range(rounds):
        for engine, config_set, view_set, scenarios, profile, seconds in runs:
            started = time.process_time()
            repeat = engine.run(scenarios, config_set=config_set, view_set=view_set)
            seconds.append(time.process_time() - started)
            assert [r.outcome for r in repeat.records] == [r.outcome for r in profile.records]
    (_, _, _, scenarios, fast, fast_seconds), (_, _, _, _, slow, slow_seconds) = runs
    return (
        fast,
        slow,
        len(scenarios),
        statistics.median(fast_seconds),
        statistics.median(slow_seconds),
    )


def _semantics(profile):
    """Everything of a profile except per-record wall clock."""
    return [
        (r.scenario_id, r.category, r.description, r.outcome, r.messages, r.failed_tests, r.metadata)
        for r in profile.records
    ]


class TestIncrementalSpeedup:
    def test_mysql_full_directives_5x_at_jobs1(self):
        """Delta validation >= 5x full revalidation, with identical records."""
        INCREMENTAL_STATS.reset()
        fast_profile, slow_profile, scenarios, fast_seconds, slow_seconds = _interleaved_runs(
            "mysql-full-directives", rounds=5
        )
        stats = INCREMENTAL_STATS.snapshot()

        assert scenarios >= 100
        assert _semantics(fast_profile) == _semantics(slow_profile), (
            "the fast path changed an outcome -- delta validation must be invisible"
        )
        assert stats["delta_starts"] > 0, "the fast path never engaged"

        fast_sps = scenarios / fast_seconds
        slow_sps = scenarios / slow_seconds
        speedup = fast_sps / slow_sps
        attempts = stats["attempts"] or 1
        fallback_rate = (stats["fallbacks"] + stats["guard_fallbacks"]) / attempts

        per_sut = {}
        for plugin, families in (("spelling", FAMILIES), ("structural", STRUCTURAL_FAMILIES)):
            for family in families:
                INCREMENTAL_STATS.reset()
                _, _, count, inc_seconds, full_seconds = _interleaved_runs(
                    family, plugin, rounds=1
                )
                family_stats = INCREMENTAL_STATS.snapshot()
                key = family if plugin == "spelling" else f"{family}/{plugin}"
                per_sut[key] = {
                    "scenarios": count,
                    "incremental_scenarios_per_second": round(count / inc_seconds, 1),
                    "full_scenarios_per_second": round(count / full_seconds, 1),
                    "speedup": round(full_seconds / inc_seconds, 2),
                    "delta_starts": family_stats["delta_starts"],
                    "fallbacks": family_stats["fallbacks"] + family_stats["guard_fallbacks"],
                }

        write_bench_json(
            "incremental",
            {
                "seed": BENCH_SEED,
                "system": "mysql-full-directives",
                "jobs": 1,
                "scenarios": scenarios,
                "incremental_scenarios_per_second": round(fast_sps, 1),
                "full_scenarios_per_second": round(slow_sps, 1),
                "speedup": round(speedup, 2),
                "fallback_rate": round(fallback_rate, 4),
                "counters": stats,
                "per_sut": per_sut,
            },
        )

        assert speedup >= MIN_SPEEDUP, (
            f"incremental path only {speedup:.2f}x full revalidation "
            f"({fast_sps:.0f} vs {slow_sps:.0f} scenarios/sec) -- floor is {MIN_SPEEDUP}x"
        )

    @staticmethod
    def _assert_breaks_even(family: str, plugin: str) -> None:
        _, _, count, inc_seconds, full_seconds = _interleaved_runs(family, plugin)
        assert count > 0
        # 1.35x tolerance: probe overhead plus timer noise on tiny configs
        assert inc_seconds <= full_seconds * 1.35, (
            f"{family} x {plugin}: incremental {inc_seconds:.4f}s vs full {full_seconds:.4f}s"
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_every_family_profits_or_breaks_even(self, family):
        """No SUT family may get *slower* under the delta protocol.

        A scenario that falls back pays only the cheap scenario_changes
        probe and the guard, so even the worst case must stay within
        noise of the full path.
        """
        self._assert_breaks_even(family, "spelling")

    @pytest.mark.parametrize("family", STRUCTURAL_FAMILIES)
    def test_every_family_profits_or_breaks_even_on_structural_errors(self, family):
        """The same for structural errors: spliced where a dialect vouches
        for the splice, the guard's cost only where it does not (BIND)."""
        self._assert_breaks_even(family, "structural")
