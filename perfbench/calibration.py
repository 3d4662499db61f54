"""Host-speed calibration of op times.

The benchmark runs on shared virtual CPUs whose speed flips between about
1x and 2x within a second and drifts over minutes; CPU time moves with
wall time, so neither longer runs nor minima remove it. A fixed reference
kernel that does not touch phasorstats is therefore timed right before
and right after every op, and each op's wall time is rescaled to a host on
which the kernel takes REFERENCE_S:

    calibrated = wall * REFERENCE_S / mean(kernel before, kernel after)

A change to the program moves the op's wall time and leaves the kernel
alone; a change in host speed moves both. On the host the benchmark was
written on, raw wall-clock ops_per_s spread 11-39% (interquartile range
over median) across ten seeds; calibrated, 1.5-9%. The raw wall times are
kept in each run's record.

Set-up runs in child processes, so each child times the kernel itself, at
the start and at the end of its set-up.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time that calibrated figures are scaled to: its wall time on the
#: 2-vCPU Xeon host the benchmark was written on, in that host's fast regime.
REFERENCE_S = 0.5e-3
KERNEL_ITERS = 700

_X = np.arange(256.0)


def kernel() -> float:
    """Interpreter work and small numpy calls, as in the ops. It allocates
    no containers, so no garbage collection of the program's heap runs
    inside it."""
    total = 0.0
    for i in range(KERNEL_ITERS):
        total += float(np.dot(_X, _X)) + i * 0.5
    return total


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(times, kernel_times) -> list[float]:
    """Calibrate ``times``; ``kernel_times[j]`` was taken just before
    ``times[j]`` and ``kernel_times[j + 1]`` just after it."""
    k = np.asarray(kernel_times, dtype=float)
    if k.size != len(times) + 1:
        raise ValueError("need one kernel time before every op and one after the last")
    return (np.asarray(times, dtype=float) * REFERENCE_S / ((k[:-1] + k[1:]) / 2)).tolist()
