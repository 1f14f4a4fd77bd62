"""Machine-speed calibration: benchmark times in reference seconds.

On a 2-core shared Xeon virtual machine, other tenants change the speed of
the same code by up to 1.8x for seconds to minutes at a time; CPU time moves
with wall time. While a ``Clock`` is entered, a timer signal runs a fixed
reference kernel every INTERVAL_S of wall time, in the middle of whatever
the benchmark is doing. ``now()`` is wall time minus the time spent in those
kernels, so an interval timed with it holds only the program's work. The
speed of a phase is sampled uniformly in time by the kernels run during it,
and

    reference seconds = seconds by now() * mean(NOMINAL_S / kernel time)

is the time the phase's work would take on a machine where the kernel takes
NOMINAL_S. On that machine when it is quiet, reference seconds are wall
seconds.

The kernel is the benchmark's own code and calls nothing in ``wfhtomo``, so
a change to the program cannot change it. It mixes the kinds of work the
program does: a pure-Python 64-bit integer stream with bisection (sampling),
a column recursion of scatter-adds on small complex arrays (Fock-space
unitaries), combinatorial block loops (POVM elements) and dense
matrix-vector iterations (likelihood fits). A tight loop alone does not
track the slowdowns: the program's wide mix of interpreter and numpy paths
slows with the machine when a tight loop does not.
"""
from __future__ import annotations

import bisect
import itertools
import math
import signal
import statistics
import time

import numpy as np

# Median kernel time on that 2-core Xeon, in a quiet period.
NOMINAL_S = 0.011
# Wall seconds between two kernels while a Clock is entered; the kernels take
# about 5 % of the time.
INTERVAL_S = 0.25
_MASK64 = (1 << 64) - 1
# Seconds spent in kernels so far. Process-wide, like the SIGALRM timer that
# adds to it: every interval timed in the process must leave them out.
_kernel_s = 0.0


def now() -> float:
    """``time.perf_counter()`` minus every second spent in reference kernels."""
    return time.perf_counter() - _kernel_s


def reference_kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    rng = np.random.default_rng(20230530)
    total = 0.0

    state, cum, tallies = 0x9E3779B97F4A7C15, [i / 64 for i in range(1, 65)], [0] * 64
    for _ in range(6000):
        state = (state * 6364136223846793005 + 1442695040888963407) & _MASK64
        tallies[bisect.bisect_right(cum, (state >> 11) * 2.0 ** -53)] += 1
    total += max(tallies)

    dim, modes = 20, 3
    idx = rng.integers(0, dim, size=(modes, dim))
    amp = rng.random((modes, dim))
    u = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    q, _ = np.linalg.qr(u)
    out = np.zeros((dim, dim), dtype=np.complex128)
    out[0, 0] = 1.0
    for col in range(1, dim):
        w = out[:, col - 1]
        acc = np.zeros(dim, dtype=np.complex128)
        for j in range(modes):
            np.add.at(acc, idx[j], q[j, col % modes] * amp[j] * w + 0.1)
        out[:, col] = acc / math.sqrt(col)
    total += float(np.abs(out @ out.conj().T).sum())

    for key in itertools.product(range(4), repeat=3):
        n = max(6 - sum(key) + 1, 1)
        block = np.zeros((n, n), dtype=np.complex128)
        for ks in itertools.product(*(range(i + 1) for i in key)):
            coef = 1.0
            for i, x in zip(key, ks):
                coef *= math.comb(i, x) * 0.5 ** i
            v = np.arange(1, n + 1) * coef
            block += np.outer(v, v.conj())
        total += float(block.real.trace())

    design = rng.standard_normal((600, 100))
    x = np.full(100, 0.01)
    for _ in range(60):
        y = design @ x
        x = 0.5 * x + 1e-3 * (design.T @ (y / (1.0 + np.abs(y))))
    total += float(x.sum())
    return total


class Clock:
    """Samples the machine's speed with the reference kernel while entered."""

    def __init__(self):
        self.samples: list[float] = []  # kernel seconds, in the order run
        self._previous = None
        self._busy = False
        self._sample(record=False)  # the first run pays numpy's lazy set-up

    def _sample(self, *_signal, record: bool = True) -> None:
        global _kernel_s
        if self._busy:  # a tick that lands inside a kernel is dropped
            return
        self._busy = True
        start = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - start
        _kernel_s += took
        if record:
            self.samples.append(took)
        self._busy = False

    def __enter__(self) -> "Clock":
        self._sample()  # so that even a phase shorter than INTERVAL_S has one
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def speed(self, first: int = 0) -> float:
        """Mean NOMINAL_S / kernel time over the kernels from index ``first``
        on: multiply seconds by ``now()`` by it to get reference seconds."""
        return statistics.fmean(NOMINAL_S / k for k in self.samples[first:])
