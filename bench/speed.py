"""Rescale a pass's operation time to a reference speed of the host.

The benchmark runs on a few cores of a shared host, which gives a process
more or less of a core from one second to the next: identical work runs
25-40% slower in spells lasting from seconds to minutes, with cpu time
tracking wall time. A run's median over its passes cannot remove spells
that last longer than the run.

So a pass also times a fixed piece of the benchmark's own work, the probe,
between its operations: before the first, after the last, and between two
operations whenever at least SEGMENT_S of operation time has gone by since
the last probe. Each segment of operations between two probes is rescaled
by REFERENCE_S over the mean of those two probe times. The sum is the
pass's time at the speed where the probe takes REFERENCE_S seconds, about
the usual speed of the baseline machine. The probe runs no steprates code,
so a faster steprates shows in full, and probes are never inside the
timed operations.
"""
from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.008  # the probe's time at the reference speed
SEGMENT_S = 0.1  # operation time between two probes, at least

_LANES = 2000


class _Step:
    __slots__ = ("alpha", "gamma")

    def __init__(self, alpha: float, gamma: float):
        self.alpha, self.gamma = alpha, gamma

    def at(self, k: int) -> float:
        return self.alpha / (k + self.gamma) ** 0.75


def _probe_work(rng: np.random.Generator) -> float:
    # the kinds of work steprates does: Python loops over scalars with a
    # method call and a float power per step, and short numpy vector
    # updates, one per step
    total = 0
    for i in range(20000):
        total += i * i % 7
    step, y = _Step(0.5, 2.0), 1.0
    for k in range(8000):
        alpha = step.at(k)
        y = y - alpha * max(y, 0.0) ** (2 / 3) + alpha * alpha
    x = np.zeros(_LANES)
    for _ in range(40):
        x = x - 0.05 * (x + rng.standard_normal(_LANES))
    return total + y + float(x[0])


class Rescaler:
    """Accumulates operation time and its time at the reference speed."""

    def __init__(self, probe=None):
        rng = np.random.default_rng(0)
        self._probe = probe or (lambda: _timed(_probe_work, rng))
        self.probes = [self._probe()]
        self.wall = 0.0
        self.reference = 0.0
        self._segment = 0.0

    def before_op(self) -> None:
        if self._segment >= SEGMENT_S:
            self._close_segment()

    def add(self, seconds: float) -> None:
        self.wall += seconds
        self._segment += seconds

    def finish(self) -> float:
        """Close the last segment and return the time at the reference speed."""
        self._close_segment()
        return self.reference

    def _close_segment(self) -> None:
        self.probes.append(self._probe())
        speed = 2 * REFERENCE_S / (self.probes[-2] + self.probes[-1])
        self.reference += self._segment * speed
        self._segment = 0.0


def _timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
