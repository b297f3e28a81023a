"""Host speed: rescale a pass's CPU times to a fixed reference speed.

On a shared host the CPU under a pass changes speed from one tenth of a
second to the next (another tenant on the same physical core): a fixed
pure-Python job takes about 1.6 times as long in the slow stretches as in
the fast ones, and the mix of the two changes from one minute to the next.
Medians over passes cannot remove a drift that lasts longer than a run, so
every end-to-end time is rescaled by how fast the host ran at the time.

The pass runs :func:`reference_job` -- a fixed job that uses the standard
library only, so no change to the program can change its cost -- at the
edges of each timed interval and, during the run, on the thread that stores
records (at most every :data:`INTERVAL_S` of CPU time).  Its times are taken
with ``time.thread_time`` and left out of every timed interval
(:meth:`HostSpeed.cpu`).  A time ``t`` is reported as
``t * REFERENCE_JOB_S / median(reference job times around t)``: the time it
would have taken on a host that runs the reference job in
:data:`REFERENCE_JOB_S`.  The median, not the mean: a few reference jobs
in a pass take several times as long as the rest, and the mean follows
them.  A change to the program moves ``t`` and not the reference job, so
it shows in full.
"""

from __future__ import annotations

import json
import statistics
import time

#: CPU seconds between two reference jobs during the run.
INTERVAL_S = 0.01
#: Reference jobs run back to back at the edge of a timed interval.
BURST = 10
#: The reference job's time on the host these figures are scaled to
#: (about its median time during a run on a 2-vCPU Intel Xeon VM at 2.1 GHz).
REFERENCE_JOB_S = 0.0003

#: Fixed configuration-like text for :func:`reference_job`.
_REFERENCE_TEXT = "\n".join(
    f"directive_{i} = value-{i * 7919 % 1009} {i % 13}  # comment {i}" for i in range(100)
)


def reference_job() -> None:
    """Parse ``_REFERENCE_TEXT`` into a table, round-trip it through JSON, sort it."""
    table = {}
    for line in _REFERENCE_TEXT.splitlines():
        key, _, rest = line.partition("=")
        table[key.strip()] = rest.split("#", 1)[0].split()
    sorted(json.loads(json.dumps(table)).items())


class HostSpeed:
    """Runs reference jobs through a pass and keeps their time apart."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.job_s = 0.0
        self._next_at = 0.0

    def cpu(self) -> float:
        """CPU seconds of this process, all threads, less the reference jobs'."""
        return time.process_time() - self.job_s

    def sample(self, count: int = 1) -> list[float]:
        taken = []
        for _ in range(count):
            start = time.thread_time()
            reference_job()
            taken.append(time.thread_time() - start)
        self.samples += taken
        self.job_s += sum(taken)
        self._next_at = self.cpu() + INTERVAL_S
        return taken

    def tick(self) -> None:
        """Sample if :data:`INTERVAL_S` of CPU time passed since the last sample."""
        if self.cpu() >= self._next_at:
            self.sample()

    def scale(self, samples: list[float]) -> float:
        """The factor that turns times taken amid ``samples`` into reference-speed times."""
        return REFERENCE_JOB_S / statistics.median(samples)
