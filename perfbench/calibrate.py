"""Host-speed calibration: a fixed pure-Python probe sampled around every call.

A shared host's CPU speed drifts by tens of percent over seconds to
minutes, and every pass of a run moves with it.  The benchmark samples this
fixed probe just before, during (for child processes) and just after each
measured call, on the same CPU (``pin_to_one_cpu``), and reports the call's
time at the reference speed:

    calibrated = wall * REFERENCE_MS / median(the call's probe samples)

so a call that takes 1.0 s while the probe takes ``REFERENCE_MS`` reads
1.0 s.  The probe runs no code of the package, so only a change of the host
moves it; a change of the program moves the calibrated time just as it
moves the raw time.  The raw wall times are printed beside the metrics.

A sample is the probe's own CPU time, so a sample taken while a child
shares the CPU does not count the child's time.
"""

from __future__ import annotations

import os
import statistics
import time

PROBE_STEPS = 20_000
PROBE_KEYS = 2_000
SAMPLES_AT_ENDS = 5  # samples just before and just after a call
# the probe's median on the reference machine (a 2-vCPU VM, Python 3.11)
REFERENCE_MS = 2.0


def probe_ms() -> float:
    """CPU time of one run of the fixed probe, in milliseconds."""
    start = time.thread_time()
    total = 0
    for i in range(PROBE_STEPS):
        total += i * i
    table = {}
    for i in range(PROBE_KEYS):
        table[str(i)] = i
    return (time.thread_time() - start) * 1e3


def samples() -> list[float]:
    """The samples taken at one end of a call."""
    return [probe_ms() for _ in range(SAMPLES_AT_ENDS)]


def calibrated(wall_s: float, probes_ms: list[float]) -> float:
    """``wall_s`` at the reference host speed, from the call's probe samples."""
    return wall_s * REFERENCE_MS / statistics.median(probes_ms)


class Timer:
    """Times a block; ``seconds`` is its time at the reference host speed.

    The block may add the samples it takes while its children run to
    ``probes``.
    """

    def __enter__(self) -> "Timer":
        self.probes = samples()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        wall = time.perf_counter() - self.start
        self.seconds = calibrated(wall, self.probes + samples())


def pin_to_one_cpu() -> int:
    """Keep this process, and the children it starts, on one CPU.

    The probe then runs on the CPU whose speed it gauges for the calls; a
    closed loop with one client loses nothing by it.  Returns that CPU.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
