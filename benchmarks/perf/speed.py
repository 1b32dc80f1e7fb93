"""Speed probe: report times in reference seconds on a shared, drifting CPU.

The machines this benchmark runs on share their cores with other
tenants, and a core's speed drifts by up to 2x within seconds, so raw
wall-clock numbers of identical runs spread by 10-50%. Every run
therefore samples the CPU's speed while it works: SIGALRM every
``PERIOD_S`` runs a fixed pure-Python loop and records the thread CPU
time the loop took. A wall-clock interval is reported in *reference
seconds*::

    reference = wall * mean(REFERENCE_S / sample for samples in the interval)

the time the interval would have taken on a CPU that runs the loop in
``REFERENCE_S`` (about an uncontended core of the 2-vCPU Xeon VM the
baseline was recorded on). The mean of speed ratios, not of sample
times, is what turns wall time into work: work = integral of speed dt.
The probe costs about 1% of every timed run, on both sides of any
comparison.

The loop runs in the benchmark's own process. When the work runs in
other processes on every CPU (the job service's pool), the probe
alternates its own CPU affinity between samples so it measures every
core the work may be on.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any

REFERENCE_S = 0.001
PERIOD_S = 0.1
LOOP_N = 4000


def probe_loop(n: int = LOOP_N) -> int:
    """Fixed work shaped like the simulator's: tuples, dicts, lists, ints."""
    table: dict[int, int] = {}
    items = []
    acc = 0
    for i in range(n):
        entry = (i & 7, i >> 3, i * 3)
        acc = (acc + table.get(entry[0], 0) + entry[1]) & 0xFFFFF
        table[entry[0]] = acc
        if acc & 1:
            items.append(entry)
        elif items:
            items.pop()
    return acc


class SpeedProbe:
    """Timer-driven samples of ``probe_loop``'s thread CPU time."""

    def __init__(self) -> None:
        self.samples: list[tuple[int, float]] = []  # (perf_counter_ns, s)
        self._cpus: list[int] | None = None

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def spread_over_cpus(self) -> None:
        """From now on, take each sample on the next CPU in turn."""
        self._cpus = sorted(os.sched_getaffinity(0))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if self._cpus is not None:
            os.sched_setaffinity(0, self._cpus)
            self._cpus = None

    def sample(self, *_: Any) -> None:
        if self._cpus is not None:
            os.sched_setaffinity(0, {self._cpus[len(self.samples) % len(self._cpus)]})
        start = time.thread_time()
        probe_loop()
        self.samples.append((time.perf_counter_ns(), time.thread_time() - start))

    def factor(self, windows: list[tuple[int, int]]) -> float | None:
        """Mean REFERENCE_S / sample over samples inside the windows."""
        ratios = [REFERENCE_S / cpu for at, cpu in self.samples
                  if cpu > 0 and any(lo <= at <= hi for lo, hi in windows)]
        return sum(ratios) / len(ratios) if ratios else None
