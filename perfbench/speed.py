"""Host speed, measured between timed calls, to scale the end-to-end times.

On a shared host the cores change speed by up to twofold from one second to
the next under other tenants' load, and a run-to-run spread of that size
hides any regression.  So after each timed call the benchmark runs a fixed
unit of work a few times and scales the call's wall time by
``reference unit time / (median unit time then)``: a time in seconds of a host
running at the reference speed.  A change to thzloc moves the scaled time;
a change of host speed moves the call and the unit alike and cancels.

The unit imports nothing from thzloc, so no change to the program moves it.
It mixes the kinds of work thzloc does per path: keyed Philox draws,
complex exponentials, small complex matrix-vector products, a small linear
solve and interpreted scalar arithmetic.
"""

from __future__ import annotations

import math
import multiprocessing
import statistics
from time import perf_counter

import numpy as np

# Median unit time on the 2-core host where the benchmark was defined, by
# the number of processes running units at once, so scaled times there read
# close to wall times.  Two processes at once run each unit about 1.6 times
# slower than one alone on that host.
REFERENCE_UNIT_S = {1: 0.4e-3, 2: 0.65e-3}
# Calibration time after each call, as a share of the call's own time.
SHARE = 0.1
MIN_UNITS = 3

_ELEMENTS = np.linspace(-1.0, 1.0, 48)
_MATRIX = np.eye(6) * 3.0 + np.outer(np.arange(6.0), np.arange(6.0)) * 0.01


def unit(index: int) -> float:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    acc = 0.0
    for path in range(4):
        key = np.random.SeedSequence(index % 7, spawn_key=(path, 1, 2))
        rng = np.random.Generator(np.random.Philox(key))
        beams = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(8, 48)))
        steer = np.exp(1j * math.pi * _ELEMENTS * math.sin(0.3 + 0.1 * path))
        coupling = beams @ steer
        acc += float(np.linalg.solve(_MATRIX, np.abs(coupling[:6])).sum())
        for k in range(40):
            acc += math.atan2(k + 1.0, acc % 7.0 + 1.0) + math.sqrt(k)
    return acc


def _chunk(budget_s: float) -> list:
    """Unit times for about budget_s, at least MIN_UNITS units."""
    times, spent = [], 0.0
    while len(times) < MIN_UNITS or spent < budget_s:
        start = perf_counter()
        unit(len(times))
        elapsed = perf_counter() - start
        times.append(elapsed)
        spent += elapsed
    return times


class Speed:
    """Scale factors of timed calls to the reference host speed.

    With processes=2 the units run in two worker processes at once, for
    calls that keep both cores busy (the two-worker pool of fields-cli):
    two processes at once run slower than one alone, as the cores share
    the host's caches and memory, so one core's speed does not stand for
    the pair's.  Use it as a context manager so the workers are stopped.
    """

    def __init__(self, processes: int = 1):
        self.processes, self.pool = processes, None
        if processes > 1:
            self.pool = multiprocessing.get_context("fork").Pool(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.close()
            self.pool.join()
            self.pool = None

    def factor(self, busy_s: float) -> float:
        """Run units for about SHARE * busy_s right after a call of busy_s
        seconds and return the reference unit time over their median."""
        if self.pool is None:
            times = _chunk(SHARE * busy_s)
        else:
            chunks = self.pool.map(_chunk, [SHARE * busy_s] * self.processes)
            times = [t for chunk in chunks for t in chunk]
        return REFERENCE_UNIT_S[self.processes] / statistics.median(times)

    def scaled(self, busy_s: float) -> float:
        """busy_s, just measured, in seconds of the reference host."""
        return busy_s * self.factor(busy_s)
