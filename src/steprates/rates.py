"""Convergence-rate measurement and theoretical rate-exponent maps.

Empirical rates come from ordinary least squares on (log2 K, log2 y) pairs
over a configurable index window; the default window keeps the upper half
of the horizon grid, where transients and log factors have died down.

The theoretical maps give, for each step-decay exponent p and each
gradient-domination level theta, the guaranteed decay exponent of the final
objective gap under single-draw and reshuffling updates. Each exponent is
the minimum of a noise branch growing in p and an initialization branch
shrinking in p; at theta = 1/2 the forgetting is geometric and the
initialization branch is treated as inactive (+inf), which also settles the
0/0 corner at p = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .plbounds import NumericFailure, _method


@dataclass(frozen=True)
class RateFit:
    """Least-squares line through (log2 K, log2 y) and the window it used."""

    slope: float
    intercept: float
    r_squared: float
    window: tuple[int, int]

    def __post_init__(self) -> None:
        lo, hi = self.window
        if hi - lo + 1 < 3:
            raise ValueError("fit window must contain at least 3 points")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared {self.r_squared} outside [0, 1]")


def fit_loglog(
    points: Sequence[tuple[int, float]], window: tuple[int, int] | None = None
) -> RateFit:
    """Regress log2(y) on log2(K) over a window of the K-sorted points.

    window is an inclusive (lo, hi) index pair into the points after sorting
    by horizon; the default keeps the upper half, indices n//2 through n-1.
    A value that is not finite raises NumericFailure whose index is its
    horizon K.
    """
    pts = sorted(((int(k), float(y)) for k, y in points), key=lambda kv: kv[0])
    n = len(pts)
    for k, y in pts:
        if not math.isfinite(y):
            raise NumericFailure(f"cannot fit through non-finite value {y} at K={k}", index=k)
        if k < 1:
            raise ValueError(f"horizons must be positive integers, got {k}")
        if not y > 0.0:
            raise ValueError(f"cannot fit a power law through nonpositive value {y}")
    if window is None:
        window = (n // 2, n - 1)
    lo, hi = int(window[0]), int(window[1])
    if not 0 <= lo <= hi < n:
        raise ValueError(f"window {window} out of range for {n} points")
    if hi - lo + 1 < 3:
        raise ValueError("fit window must contain at least 3 points")
    xs = [math.log2(k) for k, _ in pts[lo : hi + 1]]
    ys = [math.log2(y) for _, y in pts[lo : hi + 1]]
    m = hi - lo + 1
    x_mean = math.fsum(xs) / m
    y_mean = math.fsum(ys) / m
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("abscissae are all equal; slope is undefined")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(
        slope=slope,
        intercept=intercept,
        r_squared=min(max(r_squared, 0.0), 1.0),
        window=(lo, hi),
    )


def _noise_scale(method: str) -> float:
    """The scale s = 2/(tau - 1) of a method's noise branch p/(s*theta):
    p*q with q = (tau - 1)/(2*theta), exactly 2.0 for sgd and 1.0 for rr."""
    return 2.0 / (_method(method).tau - 1.0)


def _rate_exponent(p: float, theta: float, scale: float) -> float:
    """min of the noise branch p/(scale*theta) and the initialization branch."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    init = math.inf if theta == 0.5 else (1.0 - p) / (2.0 * theta - 1.0)
    return min(p / (scale * theta), init)


def rate_exponent_sgd(p: float, theta: float) -> float:
    """Guaranteed gap-decay exponent for single-draw steps alpha_k ~ k^-p."""
    return _rate_exponent(p, theta, _noise_scale("sgd"))


def rate_exponent_rr(p: float, theta: float) -> float:
    """Guaranteed gap-decay exponent for reshuffling steps alpha_k ~ k^-p.

    The noise branch is p/theta, twice as fast as the single-draw one; the
    initialization branch coincides.
    """
    return _rate_exponent(p, theta, _noise_scale("rr"))


def heatmap_grid(
    p_grid: Sequence[float], theta_grid: Sequence[float], method: str
) -> np.ndarray:
    """Rate exponents on a grid, one row per theta value, one column per p."""
    scale = _noise_scale(method)
    for name, grid in (("p_grid", p_grid), ("theta_grid", theta_grid)):
        if len(grid) == 0:
            raise ValueError(f"{name} is empty")
    out = np.empty((len(theta_grid), len(p_grid)))
    for i, theta in enumerate(theta_grid):
        for j, p in enumerate(p_grid):
            out[i, j] = _rate_exponent(float(p), float(theta), scale)
    return out


def optimal_p(theta: float, method: str) -> float:
    """The decay exponent p maximizing the rate at a fixed theta."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    scale = _noise_scale(method)
    return scale * theta / (scale * theta + 2.0 * theta - 1.0)
