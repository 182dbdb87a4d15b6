"""Host speed probe: expresses measured times at a nominal host speed.

On shared virtual machines the speed of a vCPU swings by up to ~1.7x in
phases lasting tens of seconds (another tenant's load on the same
physical core), which swamps any program change.  A fixed pure-Python
loop timed right before and right after each measured span tracks
those swings; dividing a measured time by ``probe / NOMINAL_S`` gives
the time the span would have taken on a host where the probe takes
exactly ``NOMINAL_S``.  The probe runs once on each CPU the process may
use, because the measured work (a daemon, shard workers, BLAS threads)
runs on all of them and their speeds swing separately.  Each probe
first waits :data:`SETTLE_S`: BLAS worker threads keep spinning for a
while after the last matrix product, and a probe sharing a CPU with
them would charge the program's own spinning to the host.  Raw times
are printed beside the normalized ones.
"""

from __future__ import annotations

import os
import statistics
import time

#: iterations of the probe loop
PROBE_LOOPS = 200_000
#: the probe's duration at nominal host speed
NOMINAL_S = 0.008
#: CPUs probed at most, so the probe stays short on large hosts
MAX_CPUS = 8
#: idle seconds before probing, longer than BLAS threads spin
SETTLE_S = 0.2


def _probe_here() -> float:
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probe() -> float:
    """Seconds one probe loop takes right now: the median of three
    runs on each usable CPU, averaged over the CPUs."""
    time.sleep(SETTLE_S)
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return _probe_here()
    times = []
    try:
        for cpu in cpus[:MAX_CPUS]:
            os.sched_setaffinity(0, {cpu})
            times.append(_probe_here())
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def slowdown(probes: list[float]) -> float:
    """How much slower than nominal the host ran across ``probes``."""
    return statistics.mean(probes) / NOMINAL_S
