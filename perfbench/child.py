"""One benchmark pass in a fresh interpreter: spec -> suite -> store -> render.

Usage (``run.py`` does this)::

    PYTHONPATH=src python3 perfbench/child.py --spec SPEC.json [--trace]

The pass follows the path every campaign command takes: import the CLI,
load and validate the spec, build the suite with a ``record_observer``,
open the spec's (fresh) store, run, then re-render Table 1 and the matrix
from the store with the service's renderer.  It checks its own outputs and
prints one JSON object as its last line of standard output.

Every end-to-end time is CPU time of this process (user plus system, all
threads), not wall time, rescaled to a fixed host speed (``hostspeed.py``).
On a shared host the hypervisor takes the CPU away from the pass for
stretches that have nothing to do with the program; that stolen time lands
in wall time but not in CPU time.  Each interval is rescaled by the
reference jobs run at and around it: set-up by a burst right after it, the
run by the jobs run between records, each cell's start-up by a burst
right after its first record, and each render by bursts on either side.
``setup_s`` counts from the start of the process, so it includes
interpreter start-up and every import.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import threading

from hostspeed import BURST, HostSpeed

#: Renders timed per pass, each from a fresh reader; ``render_s`` is their
#: median.  The first also pays the renderers' lazy imports.
RENDERS = 5


def store_digest(store) -> tuple[str, int]:
    """SHA-256 of the store's record stream without ``duration_seconds``.

    Reads the JSONL files directly rather than through the store's reader,
    so the check does not trust the code it checks.  Returns the digest and
    the number of records.
    """
    digest = hashlib.sha256()
    records = 0
    for system in store.systems():
        path = store.path_for(system)
        if not path.is_file():
            continue
        with open(path, "rb") as handle:
            for line in handle:
                entry = json.loads(line)
                entry["record"].pop("duration_seconds", None)
                entry["system"] = system
                digest.update(json.dumps(entry, sort_keys=True).encode("utf-8") + b"\n")
                records += 1
    return digest.hexdigest(), records


def layer_metrics(tracer, summary: dict[str, float], bytes_written: int) -> dict[str, float]:
    def seconds(name: str) -> float:
        return summary.get(name + "_s", 0.0)

    def calls(name: str) -> int:
        return int(summary.get(name + "_n", 0))

    scenarios = calls("engine.run_scenario")
    capacity = sum(jobs * (end - start) for jobs, start, end in tracer.streams)
    return {
        "plugins.generate_s": seconds("plugins.generate"),
        "plugins.scenarios": tracer.counters.get("plugins.scenarios", 0),
        "views.transform_s": seconds("views.transform"),
        "views.transform_n": calls("views.transform"),
        "views.untransform_s": seconds("views.untransform"),
        "views.untransform_n": calls("views.untransform"),
        "views.scenario_changes_s": seconds("views.scenario_changes"),
        "views.scenario_changes_n": calls("views.scenario_changes"),
        "parsers.parse_s": seconds("parsers.parse"),
        "parsers.parse_n": calls("parsers.parse"),
        "parsers.serialize_s": seconds("parsers.serialize"),
        "parsers.serialize_n": calls("parsers.serialize"),
        "sut.start_s": seconds("sut.start"),
        "sut.start_n": calls("sut.start"),
        "sut.start_delta_s": seconds("sut.start_delta"),
        "sut.start_delta_n": calls("sut.start_delta"),
        "sut.delta_hits": tracer.counters.get("sut.delta_hits", 0),
        "sut.delta_hit_ratio": (
            tracer.counters.get("sut.delta_hits", 0) / scenarios if scenarios else 0.0
        ),
        "sut.prepare_s": seconds("sut.prepare"),
        "sut.stop_s": seconds("sut.stop"),
        "sut.functional_test_s": seconds("sut.functional_test"),
        "engine.run_scenario_self_s": seconds("engine.run_scenario"),
        "engine.scenarios": scenarios,
        "engine.harness_errors": tracer.counters.get("engine.harness_errors", 0),
        "executor.wait_s": seconds("executor.stream"),
        "executor.utilisation": summary["worker_busy_s"] / capacity if capacity else 0.0,
        "store.append_s": seconds("store.append"),
        "store.append_n": calls("store.append"),
        "store.bytes_written": bytes_written,
        "store.load_s": seconds("store.load_profiles") + seconds("store.iter_records"),
        "render.table1_s": seconds("render.table1"),
        "render.matrix_s": seconds("render.matrix"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    host = HostSpeed()

    # --- set-up: what every CLI call pays before its first scenario
    import repro.cli  # noqa: F401 -- every CLI call pays this import
    from repro.core.profile import InjectionOutcome
    from repro.core.spec import ExperimentSpec
    from repro.core.suite import CampaignSuite

    firsts: dict[tuple[str, str], float] = {}
    clock = {"last": 0.0, "records": 0}

    def observe(system: str, plugin: str, _record) -> None:
        now = host.cpu()
        clock["records"] += 1
        if (system, plugin) not in firsts:
            # a cell starts when the previous cell released its last record
            # (or when the run starts): the wait a user watching progress
            # sees, rescaled by the host's speed right after it
            firsts[(system, plugin)] = (now - clock["last"]) * host.scale(host.sample(BURST))
        else:
            host.tick()
        clock["last"] = host.cpu()

    spec = ExperimentSpec.from_file(args.spec)
    suite = CampaignSuite.from_spec(spec, record_observer=observe)
    store = spec.build_store()
    setup_s = host.cpu()
    after_setup = host.sample(BURST)

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    # --- the run: generation, injection, merge and durable append
    run_mark = len(host.samples)
    clock["last"] = run_start = host.cpu()
    result = suite.run(store=store)
    run_s = host.cpu() - run_start
    during_run = host.samples[run_mark:]
    store.close()

    # --- the read side: re-render from the store the run just wrote
    from repro.core.store import ResultStore
    from repro.service.app import render_artifact

    span = tracer.span if tracer is not None else lambda _name: contextlib.nullcontext()
    problems = []  # output checks; every mismatch is one failed operation
    renders = []
    # a traced pass renders once, so the render layers' spans cover one render
    for _ in range(1 if tracer is not None else RENDERS):
        reader = ResultStore(spec.store.root)
        before = host.sample(BURST)
        start = host.cpu()
        with span("render.table1"):
            table1 = render_artifact(reader, "table1")
        with span("render.matrix"):
            matrix = render_artifact(reader, "matrix")
        renders.append((host.cpu() - start) * host.scale(before + host.sample(BURST)))
        if table1 != result.table1() + "\n":
            problems.append("Table 1 rendered from the store differs from the live suite")
        if matrix != result.matrix() + "\n":
            problems.append("matrix rendered from the store differs from the live suite")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest, stored = store_digest(reader)
    if not stored == clock["records"] == result.total_executed():
        problems.append(
            f"{stored} records stored, {clock['records']} observed, "
            f"{result.total_executed()} executed"
        )
    harness_errors = sum(
        record.outcome is InjectionOutcome.HARNESS_ERROR
        for per_plugin in result.profiles.values()
        for profile in per_plugin.values()
        for record in profile.records
    )
    quarantined = sum(1 for _ in reader.iter_quarantined())

    # each interval is rescaled by the host's speed at and around it
    setup_scale = host.scale(after_setup)
    run_scale = host.scale(after_setup + during_run)
    report = {
        "cpu_run_s": run_s,
        "records": clock["records"],
        "setup_s": setup_s * setup_scale,
        "records_per_s": clock["records"] / (run_s * run_scale),
        "cell_startup_s": sum(firsts.values()),
        "render_s": statistics.median(renders),
        "peak_rss_mb": peak_rss_mb,
        "digest": digest,
        "attempted": stored + quarantined,
        "failed": harness_errors + quarantined + len(problems),
        "problems": problems,
    }
    if tracer is not None:
        bytes_written = sum(
            reader.path_for(system).stat().st_size
            for system in reader.systems()
            if reader.path_for(system).is_file()
        )
        summary = tracer.summary(threading.main_thread().ident)
        report["layers"] = layer_metrics(tracer, summary, bytes_written)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
