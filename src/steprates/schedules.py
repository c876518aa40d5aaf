"""Step size families used throughout the package.

Four immutable families: constant, polynomial alpha/(k+gamma)^p, exponential
alpha*g^k with per-step factor g = (beta/K)^(p/K), and cosine
alpha*[(1+cos(k*pi/K))/2]^p. All are non-increasing in k. Aggregate helpers
compute the largest step, which the bound evaluators and optimizers compare
with their caps, and partial sums (closed form where one exists).
"""
from __future__ import annotations

import math
from contextlib import suppress
from dataclasses import dataclass


def _positive(value: float, name: str) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class Constant:
    """alpha_k = alpha for every k."""

    alpha: float

    def __post_init__(self) -> None:
        _positive(self.alpha, "alpha")


@dataclass(frozen=True)
class Polynomial:
    """alpha_k = alpha / (k + gamma)^p, 0.0 where (k + gamma)^p passes the floats."""

    alpha: float
    gamma: float
    p: float

    def __post_init__(self) -> None:
        _positive(self.alpha, "alpha")
        _positive(self.gamma, "gamma")
        _positive(self.p, "p")
        with suppress(OverflowError):  # gamma^p past the floats: every step is 0.0
            if self.gamma**self.p == 0.0 or math.isinf(self.alpha / self.gamma**self.p):
                raise ValueError(f"alpha/gamma^p overflows for gamma={self.gamma!r}, p={self.p!r}")


@dataclass(frozen=True)
class Exponential:
    """alpha_k = alpha * g^k with g = (beta/K)^(p/K), defined for k in [0, K]."""

    alpha: float
    beta: float
    p: float
    horizon: int

    def __post_init__(self) -> None:
        _positive(self.alpha, "alpha")
        _positive(self.beta, "beta")
        _positive(self.p, "p")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
        # beta < K keeps the per-step factor strictly below one
        if not self.beta < self.horizon:
            raise ValueError(
                f"horizon must exceed beta, got beta={self.beta}, horizon={self.horizon}"
            )

    @property
    def log_decay(self) -> float:
        """log g; the exp-of-log form stays accurate for large horizons."""
        return (self.p / self.horizon) * (math.log(self.beta) - math.log(self.horizon))


@dataclass(frozen=True)
class Cosine:
    """alpha_k = alpha * [(1+cos(k*pi/K))/2]^p, zero exactly at k = K."""

    alpha: float
    p: float
    horizon: int

    def __post_init__(self) -> None:
        _positive(self.alpha, "alpha")
        _positive(self.p, "p")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")


StepSchedule = Constant | Polynomial | Exponential | Cosine


def _check_index(schedule: StepSchedule, k: int) -> None:
    if k < 0:
        raise ValueError(f"step index must be nonnegative, got {k}")
    horizon = getattr(schedule, "horizon", None)
    if horizon is not None and k > horizon:
        raise ValueError(f"step index {k} beyond horizon {horizon}")


def _steps(schedule: StepSchedule, ks: range) -> list[float]:
    """alpha_k for k in ks, by the family's closed form: the one statement
    of each step rule. At k = K, cos(K*pi/K) is exactly -1.0 (K*pi/K lies
    within two roundings of pi), so the cosine step is 0.0 there."""
    if isinstance(schedule, Constant):
        return [schedule.alpha] * len(ks)
    if isinstance(schedule, Polynomial):
        a, g, p = schedule.alpha, schedule.gamma, schedule.p
        steps = []
        with suppress(OverflowError):  # (k + g)^p passes the floats from some k on
            for k in ks:
                steps.append(a / (k + g) ** p)
        return steps + [0.0] * (len(ks) - len(steps))
    if isinstance(schedule, Exponential):
        a, lg = schedule.alpha, schedule.log_decay
        return [a * math.exp(k * lg) for k in ks]
    if isinstance(schedule, Cosine):
        a, p, H = schedule.alpha, schedule.p, schedule.horizon
        return [a * ((1.0 + math.cos(k * math.pi / H)) / 2.0) ** p for k in ks]
    raise TypeError(f"unknown schedule type {type(schedule).__name__}")


def step_value(schedule: StepSchedule, k: int) -> float:
    """alpha_k for the given family; zero only for the cosine family at k = K."""
    _check_index(schedule, k)
    return _steps(schedule, range(k, k + 1))[0]


def step_values(schedule: StepSchedule, K: int) -> list[float]:
    """[alpha_0, ..., alpha_{K-1}] without per-element dispatch overhead."""
    if K < 1:
        raise ValueError("K must be at least 1")
    _check_index(schedule, K - 1)
    return _steps(schedule, range(K))


def step_max(schedule: StepSchedule, K: int) -> float:
    """Largest step over k in [0, K-1]; the first step for these families."""
    if K < 1:
        raise ValueError("K must be at least 1")
    _check_index(schedule, K - 1)
    return step_value(schedule, 0)


def step_sum(schedule: StepSchedule, K: int) -> float:
    """Sum of the first K steps.

    Constant and exponential sums use closed forms; the cosine sum at full
    horizon with p = 1 equals alpha*(K+1)/2; everything else is summed
    directly with compensated accumulation.
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    _check_index(schedule, K - 1)
    if isinstance(schedule, Constant):
        return schedule.alpha * K
    if isinstance(schedule, Exponential):
        lg = schedule.log_decay
        if lg == 0.0:
            return schedule.alpha * K
        # geometric sum (1 - g^K)/(1 - g) via expm1 to avoid cancellation
        return schedule.alpha * math.expm1(K * lg) / math.expm1(lg)
    if isinstance(schedule, Cosine) and schedule.p == 1.0 and K == schedule.horizon:
        return schedule.alpha * (K + 1) / 2.0
    return math.fsum(step_values(schedule, K))

