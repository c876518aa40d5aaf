"""Tests for log-log rate fitting and the theoretical exponent maps."""
from __future__ import annotations

import math

import numpy as np
import pytest

from steprates.plbounds import NumericFailure
from steprates.rates import (
    RateFit,
    fit_loglog,
    heatmap_grid,
    optimal_p,
    rate_exponent_rr,
    rate_exponent_sgd,
)


def test_fit_recovers_exact_power_law():
    points = [(2**i, 3.0 * (2**i) ** -1.25) for i in range(4, 12)]
    fit = fit_loglog(points)
    assert fit.slope == pytest.approx(-1.25, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log2(3.0), rel=1e-9)
    assert fit.r_squared == 1.0
    assert fit.window == (4, 7)


def test_fit_window_selects_points():
    """Contaminated early points are ignored once the window skips them."""
    points = [(2**i, (2**i) ** -1.0) for i in range(2, 10)]
    points[0] = (4, 100.0)
    fit = fit_loglog(points, window=(1, 7))
    assert fit.slope == pytest.approx(-1.0, rel=1e-12)


def test_fit_small_grids_need_explicit_window():
    points = [(2, 0.5), (4, 0.25), (8, 0.125), (16, 0.0625)]
    with pytest.raises(ValueError):
        fit_loglog(points)  # default upper half has only 2 points
    fit = fit_loglog(points, window=(0, 3))
    assert fit.slope == pytest.approx(-1.0, rel=1e-14)
    assert fit.r_squared == 1.0


def test_fit_sorts_by_horizon():
    ordered = [(2**i, (2**i) ** -0.5) for i in range(3, 9)]
    shuffled = [ordered[4], ordered[0], ordered[5], ordered[2], ordered[1], ordered[3]]
    assert fit_loglog(shuffled).slope == pytest.approx(fit_loglog(ordered).slope, rel=1e-15)


def test_fit_input_validation():
    good = [(2**i, 1.0 / 2**i) for i in range(1, 7)]
    with pytest.raises(ValueError):
        fit_loglog([(0, 1.0)] + good)
    with pytest.raises(ValueError):
        fit_loglog([(2, -1.0)] + good[1:])
    with pytest.raises(ValueError):
        fit_loglog(good, window=(2, 9))
    with pytest.raises(ValueError):
        fit_loglog([(8, 1.0), (8, 2.0), (8, 3.0)], window=(0, 2))


def test_fit_rejects_non_finite_values_naming_the_point():
    good = [(2**i, 1.0 / 2**i) for i in range(1, 7)]
    for bad in (math.inf, math.nan):
        with pytest.raises(NumericFailure, match="K=8") as info:
            fit_loglog(good[:2] + [(8, bad)] + good[3:])
        assert info.value.index == 8


def test_fit_flat_series_has_unit_r_squared():
    fit = fit_loglog([(2**i, 7.0) for i in range(1, 6)], window=(0, 4))
    assert fit.slope == 0.0
    assert fit.r_squared == 1.0


def test_rate_fit_validation():
    with pytest.raises(ValueError):
        RateFit(slope=-1.0, intercept=0.0, r_squared=0.5, window=(0, 1))
    with pytest.raises(ValueError):
        RateFit(slope=-1.0, intercept=0.0, r_squared=1.5, window=(0, 4))


def test_rate_exponent_values():
    assert rate_exponent_sgd(0.5, 1.0) == 0.25
    assert rate_exponent_sgd(1.0, 0.5) == 1.0  # init branch inactive at theta = 1/2
    assert rate_exponent_rr(1.0, 0.5) == 2.0
    assert rate_exponent_sgd(0.9, 1.0) == pytest.approx(0.1, rel=1e-12)  # init-limited
    assert rate_exponent_rr(0.9, 1.0) == pytest.approx(0.1, rel=1e-12)


def test_reshuffling_never_slower_than_single_draw():
    for p in np.linspace(0.05, 1.0, 20):
        for theta in np.linspace(0.5, 1.0, 11):
            assert rate_exponent_rr(float(p), float(theta)) >= rate_exponent_sgd(
                float(p), float(theta)
            )


def test_rate_exponent_domain_errors():
    with pytest.raises(ValueError):
        rate_exponent_sgd(0.0, 0.5)
    with pytest.raises(ValueError):
        rate_exponent_sgd(1.2, 0.5)
    with pytest.raises(ValueError):
        rate_exponent_rr(0.5, 0.4)
    with pytest.raises(ValueError):
        optimal_p(0.5, "momentum")


def test_optimal_p_values():
    assert optimal_p(2.0 / 3.0, "sgd") == pytest.approx(0.8, rel=1e-12)
    assert rate_exponent_sgd(optimal_p(2.0 / 3.0, "sgd"), 2.0 / 3.0) == pytest.approx(
        0.6, rel=1e-12
    )
    assert optimal_p(0.5, "sgd") == 1.0
    assert optimal_p(0.5, "rr") == 1.0
    assert optimal_p(1.0, "rr") == 0.5


def test_heatmap_grid_argmax_matches_optimal_p():
    p_grid = [(i + 1) / 101 for i in range(101)]
    theta_grid = np.linspace(0.5, 1.0, 51)
    for method in ("sgd", "rr"):
        grid = heatmap_grid(p_grid, theta_grid, method)
        assert grid.shape == (51, 101)
        spacing = p_grid[1] - p_grid[0]
        for i, theta in enumerate(theta_grid):
            best = p_grid[int(np.argmax(grid[i]))]
            assert abs(best - optimal_p(float(theta), method)) <= spacing * (1 + 1e-9)


def test_heatmap_grid_rejects_unknown_method():
    with pytest.raises(ValueError):
        heatmap_grid([0.5], [0.5], "gd")
