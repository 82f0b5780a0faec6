"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants, CPU-bound work of identical size runs
up to about 1.5x slower while neighbours are busy, in phases lasting tens of
seconds, so raw wall times of whole runs drift by 20-40% between runs. The
benchmark therefore times a fixed kernel next to every measurement and
rescales the measurement to the speed at which the kernel takes REFERENCE_S.
Rescaled timings are in seconds at that reference speed; across runs they
vary by a few percent where raw timings vary by tens of percent.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on an idle 2-vCPU Xeon at 2.1 GHz, where the benchmark was written
REFERENCE_S = 0.020

_DATA = np.random.default_rng(0).random(20_000)


def kernel_seconds() -> float:
    """Time a fixed mix of interpreter loop, numpy sort and small-array ops."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    for _ in range(30):
        np.sort(_DATA)
    a = np.arange(16.0)
    for _ in range(6000):
        a = np.sqrt(a * a + 1.0)
    return time.perf_counter() - start


def rescale(seconds: float, kernel_s: float) -> float:
    """`seconds` measured while the kernel took `kernel_s`, at reference speed."""
    return seconds * REFERENCE_S / kernel_s
