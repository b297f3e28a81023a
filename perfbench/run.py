"""Campaign benchmark runner: one workload, timed passes, checked outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 2008 --seconds 25 --trace 0

Each pass runs in a fresh interpreter (``child.py``), one after another, so
the load comes from one process at a time with at most the workload's
``jobs`` workers.  Passes repeat until ``--seconds`` have elapsed (and at
least :data:`MIN_PASSES` ran); every metric is the median over passes.
Times are CPU seconds rescaled to a fixed host speed (see ``hostspeed.py``);
the summary also prints the unscaled CPU time of a pass's run.

``--trace 0`` reports the end-to-end metrics of untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_frac`` (how
much slower the traced passes' ``records_per_s`` is) and
``trace.unstable_counts`` (deterministic counts that differed between
traced passes of this same code).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import DETERMINISTIC_COUNTS  # noqa: E402
from workloads import RECORDED_SEED, WORKLOADS  # noqa: E402

#: Fewest timed passes a run makes, however short ``--seconds`` is.
MIN_PASSES = 3
#: A pass that takes longer than this is a hung program, not a slow one.
PASS_TIMEOUT_S = 120

#: Metric names and units, as BENCHMARK.json declares them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}


class Passes:
    """Runs passes of one spec in fresh interpreters, one at a time."""

    def __init__(self, work: Path, spec: dict):
        self.work = work
        self.store = work / "store"
        self.spec_path = work / "spec.json"
        work.mkdir(parents=True, exist_ok=True)
        self.spec_path.write_text(
            json.dumps({**spec, "store": {"root": str(self.store)}}, indent=2),
            encoding="utf-8",
        )
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, trace: bool = False) -> dict:
        shutil.rmtree(self.store, ignore_errors=True)
        command = [sys.executable, str(HERE / "child.py"), "--spec", str(self.spec_path)]
        if trace:
            command.append("--trace")
        done = subprocess.run(
            command, env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
        shutil.rmtree(self.store, ignore_errors=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"benchmark pass failed with exit code {done.returncode}")
        return json.loads(done.stdout.strip().splitlines()[-1])


def median_of(reports: list[dict], key: str) -> float:
    return statistics.median(report[key] for report in reports)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=RECORDED_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated runner still kills its running pass and removes its stores
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench-work" / f"{workload.name}-{os.getpid()}"
    spec = workload.spec(args.seed)
    try:
        passes = Passes(work, spec)
        # compile and page in the package once, so no pass pays for that
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=passes.env, cwd=ROOT,
            check=True, timeout=PASS_TIMEOUT_S,
        )
        untraced: list[dict] = []
        traced: list[dict] = []
        deadline = time.monotonic() + args.seconds
        while time.monotonic() < deadline or len(untraced) < MIN_PASSES:
            untraced.append(passes.run())
            if args.trace:
                traced.append(passes.run(trace=True))
        reports = untraced + traced
        if spec["execution"].get("jobs", 1) > 1:
            # a parallel run must store exactly what its serial twin stores;
            # the twin is untimed and checked like any other pass
            serial = {**spec, "execution": {**spec["execution"], "jobs": 1}}
            reports.append(Passes(work / "serial", serial).run())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    # --- output checks across passes: every pass must store the same records
    problems = [problem for report in reports for problem in report["problems"]]
    expected = reports[0]["digest"]
    if args.seed == RECORDED_SEED:
        expected = workload.digest
    mismatched = sum(report["digest"] != expected for report in reports)
    if mismatched:
        problems.append(
            f"{mismatched} of {len(reports)} passes stored a record stream whose "
            f"digest is not {expected}"
        )
    attempted = sum(report["attempted"] for report in reports)
    failed = sum(report["failed"] for report in reports) + mismatched

    if args.trace:
        metrics = {
            name: statistics.median_low(report["layers"][name] for report in traced)
            for name in LAYER_UNITS
            if not name.startswith("trace.")
        }
        metrics["trace.overhead_frac"] = 1.0 - (
            median_of(traced, "records_per_s") / median_of(untraced, "records_per_s")
        )
        unstable = [
            name
            for name in DETERMINISTIC_COUNTS
            if len({report["layers"][name] for report in traced}) > 1
        ]
        if unstable:
            print(f"counts differ between traced passes: {', '.join(unstable)}", file=sys.stderr)
        metrics["trace.unstable_counts"] = len(unstable)
        units = LAYER_UNITS
    else:
        metrics = {name: median_of(untraced, name) for name in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    for problem in problems:
        print(f"output check failed: {problem}", file=sys.stderr)
    print(
        f"{workload.name} seed={args.seed}: {len(untraced)} untraced, {len(traced)} traced "
        f"passes of {untraced[0]['records']} records, median unscaled run "
        f"{median_of(untraced, 'cpu_run_s'):.3f} CPU s; error_rate "
        f"{failed / attempted:.6f} ({failed} failed of {attempted} attempted); "
        f"record stream sha256 {reports[0]['digest']}"
    )
    for name, value in metrics.items():
        print(f"  {name:28} {value:14.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
