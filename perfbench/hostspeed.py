"""How fast the host runs right now, from a fixed kernel timed next to the work.

The benchmark runs on shared 2-vCPU hosts whose speed drifts.  A fixed
Python loop timed 11-20 ms from one second to the next, and sets of ten
runs of the same replay spread by up to 45% over a few minutes (the
middle half, as a share of the median), more than the largest bound a
time may be gated with, 25%.  Neither process CPU time nor the main thread's CPU time
helps: both grow with the wall time, because the host runs every
instruction slower, not less often (steal time is near zero).

So set-up and replay times are bracketed by samples of a kernel that
belongs to the benchmark, never to the program: a Python loop, a
threaded float64 GEMM and small per-window numpy ops, about a third of
its time each, the mix the pipeline's layers run.  A time of the program
is scaled by ``REFERENCE_KERNEL_S`` over the mean of the samples on
either side of it, which gives the seconds it would take on a host that
runs the kernel in ``REFERENCE_KERNEL_S``.  A slow spell of the host
slows the work and the kernel together and cancels; a change to the
program moves only the work.  Raw wall times are kept in every record
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Median kernel sample between benchmark passes on the host the bounds
#: were set on (2 vCPUs, threaded OpenBLAS 0.3.31), so that scaled times
#: read about as raw times there.
REFERENCE_KERNEL_S = 0.060
#: Kernel runs per sample; a sample is their median.
KERNEL_REPEATS = 5

_rng = np.random.default_rng(20230417)
_A = _rng.standard_normal((512, 768))
_B = _rng.standard_normal((768, 256))
_WINDOWS = _rng.standard_normal((64, 256))


def kernel() -> float:
    """Run the fixed kernel once; its wall time in seconds."""
    t0 = time.perf_counter()
    total = 0
    for i in range(250_000):
        total += i * i
    for _ in range(8):
        _A @ _B
    for _ in range(100):
        np.abs(np.fft.rfft(_WINDOWS, axis=1)).argmax(axis=1)
        np.diff(_WINDOWS, axis=1).std(axis=1)
        np.sort(_WINDOWS, axis=1)
    return time.perf_counter() - t0


class HostSpeed:
    """Kernel samples of one run, and times scaled by them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        # The first runs of a process start BLAS threads and fill numpy's
        # caches; they read up to twice the usual time.
        for _ in range(KERNEL_REPEATS):
            kernel()

    def sample(self) -> float:
        """Median of ``KERNEL_REPEATS`` kernel runs, in seconds."""
        sample = statistics.median(kernel() for _ in range(KERNEL_REPEATS))
        self.samples.append(sample)
        return sample

    @staticmethod
    def scaled(seconds: float, before: float, after: float) -> float:
        """``seconds`` of program work, timed between two samples, at reference speed."""
        return seconds * REFERENCE_KERNEL_S * 2 / (before + after)
