"""Machine speed, read from a fixed kernel that shares no code with the package.

The machine the benchmark was tuned on changes speed under its neighbours'
load, by a sixth within seconds and by a third over minutes: the same
serial grid took from 14.6 s to 23.5 s within five minutes. While a
serial pass runs, a timer signal runs this kernel once a second in the
benchmark process; ``clock`` leaves the kernel's time out of the pass's
time. Timings are then scaled by ``REFERENCE_S`` over the run's median
kernel time, which gives seconds at the reference speed, at which the
kernel takes ``REFERENCE_S``. A change to the package cannot move the
kernel, so it moves only the timings.
"""

from __future__ import annotations

import contextlib
import random
import signal
import statistics
import time

import numpy as np

# A round figure near the kernel's median time, 0.084 to 0.098 s, on the
# 2-vCPU Intel Xeon VM (2.1 GHz) the benchmark was tuned on, Python
# 3.11.7, numpy 2.4.6.
REFERENCE_S = 0.090
INTERVAL_S = 1.0

_RNG = random.Random(20150630)
_ITEMS = [(_RNG.random(), _RNG.randrange(1000)) for _ in range(20000)]
_SORTED = list(_ITEMS)
_A = np.random.default_rng(7).random(2400)
_B = np.random.default_rng(8).random(2400)
# Buffers made once: a fresh multi-megabyte array per call would time the
# allocator's page faults, which fall as the process's heap grows.
_BLOCK = 200
_D = np.ones((_BLOCK, len(_A)))
_E = np.ones((_BLOCK, len(_A)))
_POSITIVE = np.ones((_BLOCK, len(_A)), dtype=bool)


def kernel() -> int:
    """Interpreted dict, sort and integer work, then blocked numpy sign products."""
    sums: dict[int, float] = {}
    for value, key in _ITEMS:
        sums[key] = sums.get(key, 0.0) + value
    _SORTED[:] = _ITEMS
    _SORTED.sort()
    total = sum(i * i % 7 for i in range(100000))
    for start in range(0, len(_A), _BLOCK):
        block = slice(start, start + _BLOCK)
        np.sign(np.subtract(_A[block, None], _A[None, :], out=_D), out=_D)
        np.sign(np.subtract(_B[block, None], _B[None, :], out=_E), out=_E)
        np.greater(np.multiply(_D, _E, out=_D), 0.0, out=_POSITIVE)
        total += int(np.count_nonzero(_POSITIVE))
    return total + len(sums)


class Calibration:
    """Kernel times taken through a run, and the wall time they took."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        self._spent += elapsed

    def clock(self) -> float:
        """Wall time less the time spent in the kernel."""
        return time.perf_counter() - self._spent

    @contextlib.contextmanager
    def interleaved(self):
        """Sample once a second while the block runs in this process.

        Not during a workers pass: the kernel would take its share of the
        cores from the workers.
        """
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """Reference kernel time over this run's median kernel time."""
        return REFERENCE_S / statistics.median(self.samples)


class NoCalibration:
    """Plain wall time, for the traced run."""

    clock = staticmethod(time.perf_counter)
    interleaved = staticmethod(contextlib.nullcontext)
