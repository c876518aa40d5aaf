"""Tests for log-log rate fitting and the theoretical exponent maps."""
from __future__ import annotations

import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from steprates.plbounds import (
    NumericFailure,
    PLParams,
    descent_coefficients,
    rr_constants,
    smoothness_cap,
)
from steprates.rates import (
    RateFit,
    fit_loglog,
    heatmap_grid,
    optimal_p,
    rate_exponent_rr,
    rate_exponent_sgd,
)
from steprates.verify import bounds_suite


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


@pytest.mark.parametrize("window", [(0, 5, 9), (0.5, 6.7), (3,), (True, 5), [0, "5"]])
def test_fit_window_that_is_not_a_pair_of_integers_is_rejected_naming_it(window):
    """(0, 5, 9) fitted (0, 5), (0.5, 6.7) fitted (0, 6), and (3,) raised IndexError."""
    good = [(2**i, 1.0 / 2**i) for i in range(1, 9)]
    message = re.escape(f"window must be a two-element [lo, hi] list of integers, got {window!r}")
    with pytest.raises(ValueError, match=message):
        fit_loglog(good, window=window)


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


@pytest.mark.parametrize(
    "p_grid, theta_grid, name", [([], [0.5], "p_grid"), ([0.5], [], "theta_grid")]
)
def test_heatmap_grid_rejects_an_empty_grid(p_grid, theta_grid, name):
    with pytest.raises(ValueError, match=f"^{name} is empty$"):
        heatmap_grid(p_grid, theta_grid, "sgd")


# --- each method stated once: the per-method formulas it replaced, bit for bit ---

def _power(base, exponent):
    try:
        return base**exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf


def reference_coefficients(method, L, mu, A, sigma, N, theta):
    """descent_coefficients as its sgd and rr branches stated it, on the
    declared domains: L and mu positive and finite, and N, wherever given,
    an integer from 1 to the largest float."""
    if not (L > 0 and 0 < mu < math.inf):
        raise ValueError
    if A < 0 or sigma < 0:
        raise ValueError
    if N is not None and not (isinstance(N, int) and 1 <= N <= sys.float_info.max):
        raise ValueError
    if method == "sgd":
        l1, l2, l3, tau = A * L / 2.0, mu, L * _power(sigma, 2) / 2.0, 2.0
    else:
        if N is None or not 1 <= N <= sys.float_info.max:
            raise ValueError
        L2 = _power(L, 2)
        l1, l2, l3, tau = A * L2 / (2.0 * N), mu / 2.0, L2 * _power(sigma, 2) / (2.0 * N), 3.0
    if not (math.isfinite(l1) and math.isfinite(l3)):
        raise ValueError
    return PLParams(l1, l2, l3, tau, theta)


def reference_cap(method, L):
    if not (math.isfinite(L) and L > 0):
        raise ValueError
    return 1.0 / L if method == "sgd" else 0.5 / L


def reference_rate(p, theta, scale):
    if not 0.0 < p <= 1.0:
        raise ValueError
    if not 0.5 <= theta <= 1.0:
        raise ValueError
    init = math.inf if theta == 0.5 else (1.0 - p) / (2.0 * theta - 1.0)
    return min(p / (scale * theta), init)


def reference_grid(p_grid, theta_grid, scale):
    if not (p_grid and theta_grid):
        raise ValueError
    return np.array([[reference_rate(p, theta, scale) for p in p_grid] for theta in theta_grid])


def reference_optimal_p(theta, scale):
    if not 0.5 <= theta <= 1.0:
        raise ValueError
    return scale * theta / (scale * theta + 2.0 * theta - 1.0)


def outcome(call, *args):
    """The bits of what call returns, or the name of the ValueError it raises."""
    try:
        value = call(*args)
    except ValueError:
        return "ValueError"
    if isinstance(value, PLParams):
        value = dataclasses.astuple(value)
    return np.asarray(value, dtype=float).tobytes()


SUBNORMAL = st.floats(0.0, sys.float_info.min, exclude_max=True)
NUMBER = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(0.0, exclude_min=True, allow_infinity=False),
    SUBNORMAL,
    st.sampled_from([*oracles.EXTREME_FLOATS, math.inf, -math.inf, math.nan, 2.0 / 3.0]),
    st.floats(),
)
COUNT = st.one_of(
    st.none(),
    st.integers(1, 2**64),
    st.sampled_from([0, -3, 10**308, 10**400, 1.5, 1e308, math.inf]),
)
UNIT = st.one_of(st.floats(0.5, 1.0), st.floats(0.0, 1.0), NUMBER)
SCALES = {"sgd": 2.0, "rr": 1.0}


@pytest.mark.fuzz
@settings(deadline=None)
@given(
    method=st.sampled_from(sorted(SCALES)),
    constants=st.tuples(NUMBER, NUMBER, NUMBER, NUMBER, COUNT, UNIT),
    p_grid=st.lists(UNIT, max_size=4),
    theta_grid=st.lists(UNIT, max_size=4),
)
def test_method_records_keep_the_per_method_formulas_bit_for_bit(
    method, constants, p_grid, theta_grid
):
    L, mu, A, sigma, N, theta = constants
    assert outcome(descent_coefficients, method, L, mu, A, sigma, N, theta) == outcome(
        reference_coefficients, method, L, mu, A, sigma, N, theta
    )
    assert outcome(smoothness_cap, method, L) == outcome(reference_cap, method, L)
    if method == "rr" and isinstance(N, int):  # the bar constants' power of L
        try:
            zeta_bar = rr_constants(theta, L, mu, A, sigma, N).zeta_bar
        except ValueError:
            pass
        else:
            root = (L**2 * sigma**2 / mu) ** (1.0 / (2.0 * theta))
            assert outcome(max, 2.0 * theta - 1.0, root) == outcome(float, zeta_bar)
    scale = SCALES[method]
    rate = rate_exponent_sgd if method == "sgd" else rate_exponent_rr
    p = p_grid[0] if p_grid else L
    assert outcome(rate, p, theta) == outcome(reference_rate, p, theta, scale)
    assert outcome(heatmap_grid, p_grid, theta_grid, method) == outcome(
        reference_grid, p_grid, theta_grid, scale
    )
    assert outcome(optimal_p, theta, method) == outcome(reference_optimal_p, theta, scale)


@pytest.mark.parametrize("name", ["SGD", "Sgd", "RR", "Rr", "rR", "sgd ", "gd"])
def test_method_names_are_matched_exactly_in_plbounds_and_rates(name):
    calls = [
        lambda: descent_coefficients(name, 1.0, 1.0, 0.5, 1.0, N=2),
        lambda: smoothness_cap(name, 1.0),
        lambda: heatmap_grid([0.5], [0.75], name),
        lambda: optimal_p(0.75, name),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^unknown method {re.escape(repr(name))}$"):
            call()


@pytest.mark.parametrize("name", [["sgd"], {"rr"}, {"sgd": 1}])
def test_an_unhashable_method_name_is_an_unknown_method(name):
    """The method lookup caught only KeyError, so a name that cannot be
    hashed escaped as a raw TypeError."""
    calls = [
        lambda: bounds_suite(3, 0, method=name),
        lambda: descent_coefficients(name, 1.0, 1.0, 0.5, 1.0, N=2),
        lambda: smoothness_cap(name, 1.0),
        lambda: heatmap_grid([0.5], [0.75], name),
        lambda: optimal_p(0.7, name),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"^unknown method {re.escape(repr(name))}$"):
            call()
