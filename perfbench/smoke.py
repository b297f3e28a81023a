"""Smoke run: every workload on the recorded seed and on a second seed.

Usage, from the repository root::

    python3 perfbench/smoke.py

Runs ``run.py`` once per workload on seeds 2008 and 7 with ``--seconds 0``
(so three passes each), prints the six end-to-end metrics -- ``error_rate``
included -- with their units, and exits 1 unless every run passed its output
check with no failed operation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS  # noqa: E402
from workloads import RECORDED_SEED, WORKLOADS  # noqa: E402


#: The recorded seed, whose digests are pinned, and a second seed.
SEEDS = (RECORDED_SEED, 7)


def main() -> int:
    header = ["workload", "seed", "correct"] + [
        f"{name} [{unit}]" for name, unit in END_TO_END_UNITS.items()
    ] + ["error_rate [ratio]"]
    print("  ".join(header))
    ok = True
    for seed in SEEDS:
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", "0", "--trace", "0"],
                capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.stderr:
                sys.stderr.write(done.stderr)
            ok = ok and result["correct"] and result["failed"] == 0
            values = [f"{metric['value']:.6g}" for metric in result["metrics"].values()]
            error_rate = result["failed"] / result["attempted"]
            print("  ".join([name, str(seed), str(result["correct"])] + values + [f"{error_rate:g}"]))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
