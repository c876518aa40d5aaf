"""Step size families used throughout the package.

Four immutable families: constant, polynomial alpha/(k+gamma)^p, exponential
alpha*g^k with per-step factor g = (beta/K)^(p/K), and cosine
alpha*[(1+cos(k*pi/K))/2]^p; constant is the exponential rule at g = 1. All
are non-increasing in k. Each rule is stated once per arithmetic: in _steps
(math), which every scalar query reads, and in _lane_steps (numpy). _steps
forms k + gamma, k*log g and k*pi/K over exact float k below 2^53, and in
int arithmetic from there, which gives the same bits; where k*pi passes the
floats, the angle is (k/K)*pi. Helpers give the largest step, which the
bound evaluators and optimizers compare with their caps, and partial sums
(closed form where one exists). A family's constants are checked at
construction against their domains in steprates.domains (alpha, gamma, p
and beta positive and finite, a horizon an integer from 1 to the largest
float), as are the step index k and count K of every query.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, ClassVar, Iterable

import numpy as np

from .domains import Checked, check


@dataclass(frozen=True)
class Constant(Checked):
    """alpha_k = alpha for every k: the exponential rule at g = 1."""

    alpha: float
    log_decay: ClassVar[float] = 0.0  # log g


@dataclass(frozen=True)
class Polynomial(Checked):
    """alpha_k = alpha / (k + gamma)^p, 0.0 where (k + gamma)^p passes the floats."""

    alpha: float
    gamma: float
    p: float

    def __post_init__(self) -> None:
        super().__post_init__()
        try:  # not recursions._power: schedules is the leaf module
            scale = self.gamma**self.p
        except OverflowError:  # gamma^p past the floats: every step is 0.0
            return
        if scale == 0.0 or math.isinf(self.alpha / scale):
            raise ValueError(f"alpha/gamma^p overflows for gamma={self.gamma!r}, p={self.p!r}")


@dataclass(frozen=True)
class Exponential(Checked):
    """alpha_k = alpha * g^k with g = (beta/K)^(p/K), defined for k in [0, K]."""

    alpha: float
    beta: float
    p: float
    horizon: int

    def __post_init__(self) -> None:
        super().__post_init__()
        # beta < K keeps the per-step factor strictly below one
        if not self.beta < self.horizon:
            raise ValueError(f"need beta < horizon, got beta={self.beta}, horizon={self.horizon}")
        if math.isinf(self.log_decay):  # alpha_0 = alpha*exp(0*log g) would be NaN
            raise ValueError(f"log g passes the floats for beta={self.beta!r}, p={self.p!r}")

    @property
    def log_decay(self) -> float:
        """log g; the exp-of-log form stays accurate for large horizons."""
        return (self.p / self.horizon) * (math.log(self.beta) - math.log(self.horizon))


@dataclass(frozen=True)
class Cosine(Checked):
    """alpha_k = alpha * [(1+cos(k*pi/K))/2]^p, zero exactly at k = K."""

    alpha: float
    p: float
    horizon: int


StepSchedule = Constant | Polynomial | Exponential | Cosine


def _check_index(schedule: StepSchedule, k: int) -> None:
    """Step k, a nonnegative integer, lies within the schedule's horizon."""
    horizon = getattr(schedule, "horizon", None)
    if horizon is not None and k > horizon:
        raise ValueError(f"step index {k} beyond horizon {horizon}")


def _check_steps(schedule: StepSchedule, K: int) -> None:
    """K, a step count, is one that the schedule's horizon covers."""
    check(K=K)
    _check_index(schedule, K - 1)


# every int k <= 2^53 is a float, so float k gives Python's int k + g (which
# is float(k) + g), k * lg and k * pi / H their bits; on fewer than _SHORT
# steps numpy's call costs more than the Python arithmetic it saves
_EXACT, _SHORT = 1 << 53, 64
_SUM_BLOCK = 1 << 12  # steps per list of step_sum


def _bases(ks: range, rule: Callable) -> Iterable:
    """rule(k) for k in ks, where rule is IEEE arithmetic on k: as one numpy
    expression over float k where ks holds _SHORT or more k up to 2^53, else
    lazily over the ints."""
    if len(ks) < _SHORT or ks.stop > _EXACT + 1:
        return map(rule, ks)
    return rule(np.arange(ks.start, ks.stop, dtype=float)).tolist()


def _steps(schedule: StepSchedule, ks: range) -> list[float]:
    """alpha_k for k in ks by the family's closed form, over exact float k
    below 2^53 and int k from there (_bases); _lane_steps agrees to rounding
    (numpy's exp, cos and pow differ by about an ulp). At k = K, cos(K*pi/K)
    is exactly -1.0 (K*pi/K lies within two roundings of pi), so the cosine
    step is 0.0 there."""
    if isinstance(schedule, Polynomial):
        a, g, p = schedule.alpha, schedule.gamma, schedule.p
        steps: list[float] = []
        try:  # extend keeps the steps before a raise
            steps.extend(a / b**p for b in _bases(ks, lambda k: k + g))
        except OverflowError:  # (k + g)^p passes the floats from this k on
            steps += [0.0] * (len(ks) - len(steps))
        return steps
    if isinstance(schedule, (Constant, Exponential)):
        a, lg = schedule.alpha, schedule.log_decay
        if lg == 0.0:  # g = 1: exp(k*0.0) is exactly 1.0
            return [a] * len(ks)
        return [a * math.exp(x) for x in _bases(ks, lambda k: k * lg)]
    if isinstance(schedule, Cosine):
        a, p, H = schedule.alpha, schedule.p, float(schedule.horizon)  # x / int H reads float(H)

        def angle(k):  # k * pi passes the floats only for an int k above about 5.7e307
            x = k * math.pi
            return x / H if x.__class__ is not float or x < math.inf else k / H * math.pi

        angles = _bases(ks, angle)
        return [a * ((1.0 + math.cos(x)) / 2.0) ** p for x in angles]
    raise TypeError(f"unknown schedule type {type(schedule).__name__}")


def step_value(schedule: StepSchedule, k: int) -> float:
    """alpha_k for the given family; zero only for the cosine family at k = K."""
    check(k=k)
    _check_index(schedule, k)
    return _steps(schedule, range(k, k + 1))[0]


def step_values(schedule: StepSchedule, K: int) -> list[float]:
    """[alpha_0, ..., alpha_{K-1}] without per-element dispatch overhead."""
    _check_steps(schedule, K)
    return _steps(schedule, range(K))


def step_max(schedule: StepSchedule, K: int) -> float:
    """Largest step over k in [0, K-1]: the first, as no family increases."""
    _check_steps(schedule, K)
    return _steps(schedule, range(1))[0]


def step_sum(schedule: StepSchedule, K: int) -> float:
    """Sum of the first K steps.

    Exponential (so constant) sums use closed forms; the cosine sum at full
    horizon with p = 1 equals alpha*(K+1)/2; everything else is summed
    directly with compensated accumulation, reading _SUM_BLOCK steps at a
    time (fsum rounds the exact sum, so the grouping moves no bit).
    """
    _check_steps(schedule, K)
    if isinstance(schedule, (Constant, Exponential)):
        lg = schedule.log_decay
        if lg == 0.0:  # g = 1, where the geometric form below is 0/0
            return schedule.alpha * K
        # geometric sum (1 - g^K)/(1 - g) via expm1 to avoid cancellation
        return schedule.alpha * math.expm1(K * lg) / math.expm1(lg)
    if isinstance(schedule, Cosine) and schedule.p == 1.0 and K == schedule.horizon:
        return schedule.alpha * (K + 1) / 2.0
    try:
        blocks = (range(k, min(k + _SUM_BLOCK, K)) for k in range(0, K, _SUM_BLOCK))
        return math.fsum(chain.from_iterable(_steps(schedule, ks) for ks in blocks))
    except OverflowError:  # the steps are nonnegative: their sum passes the floats
        return math.inf


# the constants each family's closed form reads, as columns of lanes
_STEP_FIELDS = {
    Constant: ("alpha", "log_decay"),
    Polynomial: ("alpha", "gamma", "p"),
    Exponential: ("alpha", "log_decay"),
    Cosine: ("alpha", "p", "horizon"),
}


def _lane_columns(schedules: list[StepSchedule]) -> list[tuple[type, np.ndarray, np.ndarray]]:
    """The lanes of each family, in order of first appearance: (family, their
    indices, the constants its closed form reads, a row per field)."""
    families: dict[type, list[int]] = {}
    for i, schedule in enumerate(schedules):
        families.setdefault(type(schedule), []).append(i)
    columns = []
    for family, where in families.items():
        fields = [[getattr(schedules[i], name) for i in where] for name in _STEP_FIELDS[family]]
        columns.append((family, np.array(where), np.array(fields, dtype=float)))
    return columns


def _lane_steps(columns: list, k: np.ndarray, n: int, out: np.ndarray) -> None:
    """out[:, i] = the steps of lane i < n of _lane_columns at the indices k
    (a column), by step_values' closed forms, in one buffer per family."""
    for family, where, constants in columns:
        m = int(np.searchsorted(where, n))
        if not m:
            continue
        alpha, *rest = constants[:, :m]
        if family is Polynomial:
            gamma, p = rest
            steps = k + gamma
            np.power(steps, p, out=steps)
            np.divide(alpha, steps, out=steps)
        elif family is Cosine:
            p, horizon = rest
            steps = k * math.pi / horizon
            np.cos(steps, out=steps)
            steps += 1.0
            steps /= 2.0
            np.power(steps, p, out=steps)
            steps *= alpha
        else:  # exponential, and constant at log g = 0
            steps = k * rest[0]
            np.exp(steps, out=steps)
            steps *= alpha
        out[:, where[:m]] = steps
