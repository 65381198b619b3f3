"""Machine-speed calibration for the time metrics.

The speed of the machine the benchmark runs on can drift by 30–40 % over a
few minutes, which is longer than one run and shorter than a set of runs.
So every end-to-end time is scaled to a fixed reference speed: a short
kernel is timed again and again, interleaved with the measured work in the
same process, and a measured time t is reported as

    t * REFERENCE_S / (median kernel time while t was measured)

in seconds at the speed where the kernel takes ``REFERENCE_S``.  The kernel
is the reference checker's own augmenting-path flow on a fixed instance plus
an integer loop; it shares no code with ``covmatroid``, so a change to the
program leaves it alone.  Changing the kernel or ``REFERENCE_S`` re-bases
every time metric.
"""

from __future__ import annotations

import gc
import random
import statistics
from time import perf_counter

from reference import Instance

# About the kernel's median time on a 2-vCPU virtual machine with Python
# 3.11.7 (5–7 ms there, depending on the machine's speed at the time).
REFERENCE_S = 0.006
# Seconds between kernel samples in ``Calibrator.maybe``.
INTERVAL_S = 0.1

_rng = random.Random("calibrate")
_INSTANCE = Instance("covering", 24,
                     [_rng.getrandbits(24) & _rng.getrandbits(24) for _ in range(8)],
                     [_rng.choice((1, 2)) for _ in range(8)])
_SUBSETS = [_rng.getrandbits(24) for _ in range(150)]


def kernel() -> float:
    """Seconds taken by one pass of the fixed kernel.  The cyclic garbage
    collector is held off meanwhile, so a collection that the measured
    work has made due runs in that work and not in the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for bits in _SUBSETS:
            _INSTANCE.flow(bits)
        x = 0
        for i in range(20000):
            x += (i * 2654435761) & 0xFFFF
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Kernel times, sampled at most every ``INTERVAL_S`` through ``maybe``."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = float("-inf")

    def sample(self) -> None:
        self.samples.append(kernel())
        self.last = perf_counter()

    def maybe(self) -> None:
        if perf_counter() - self.last >= INTERVAL_S:
            self.sample()

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Multiply a time measured while ``samples[start:stop]`` were taken
        by this to get reference seconds.  The median keeps one sample
        caught by a passing stall from moving the scale."""
        return REFERENCE_S / statistics.median(self.samples[start:stop])
