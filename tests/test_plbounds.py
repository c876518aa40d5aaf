"""Tests for derived constants, the progress recursion, and the rate bounds."""
from __future__ import annotations

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

import oracles
import steprates.plbounds as plbounds
from steprates.optimizers import make_power_family, noise_free_bound
from steprates.plbounds import (
    NumericFailure,
    PLParams,
    bound_const,
    bound_cos,
    bound_exp,
    bound_poly,
    derive_constants,
    descent_coefficients,
    exp_horizon_floor,
    frak_p,
    offset_admissible,
    poly_alpha_floor,
    poly_gamma_floor,
    relaxed_recursion_transform,
    rr_constants,
    sgd_constants,
    simulate_pl_finals,
    simulate_pl_lanes,
    simulate_pl_recursion,
    smallest_offset,
)
from steprates.recursions import (
    ClassicalParams,
    FunctionDescriptor,
    PreconditionError,
    RecursionSpec,
    _power,
    classical_bound,
    classical_spec,
    find_lambda_constant,
    general_bound,
)
from steprates.schedules import (
    Constant,
    Cosine,
    Exponential,
    Polynomial,
    step_max,
    step_sum,
    step_value,
    step_values,
)


def test_frak_p_values():
    assert frak_p(0.5) == 1.0
    assert frak_p(1.0) == 1.0
    assert frak_p(0.75) == pytest.approx(0.70710678118654752, rel=1e-15)


def test_descent_coefficients_sgd():
    params = descent_coefficients("sgd", L=2.0, mu=0.5, A=0.3, sigma=1.5)
    assert params.l1 == pytest.approx(0.3, rel=1e-15)  # A*L/2
    assert params.l2 == 0.5
    assert params.l3 == pytest.approx(2.25, rel=1e-15)  # L*sigma^2/2
    assert params.tau == 2
    assert params.theta == 0.5


def test_descent_coefficients_rr():
    params = descent_coefficients("rr", L=2.0, mu=0.5, A=0.3, sigma=1.5, N=4, theta=0.75)
    assert params.l1 == pytest.approx(0.15, rel=1e-15)  # A*L^2/(2N)
    assert params.l2 == 0.25
    assert params.l3 == pytest.approx(1.125, rel=1e-15)  # L^2*sigma^2/(2N)
    assert params.tau == 3
    assert params.theta == 0.75


def test_sgd_constants_reference_point():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    d = mc.derived
    assert (d.zeta, d.xi, d.rho, d.omega, d.q) == (0.5, 0.5, 1.0, 1.0, 1.0)
    assert d.alpha_cap == 1.0
    assert mc.zeta_bar == d.zeta and mc.xi_bar == d.xi


def test_rr_constants_reference_point():
    mc = rr_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0, N=4)
    d = mc.derived
    assert (d.zeta, d.xi, d.rho, d.omega, d.q) == (0.25, 0.25, 1.0, 2.0, 2.0)
    assert d.alpha_cap == 0.5
    assert mc.zeta_bar == 1.0
    assert mc.xi_bar == 0.25


def test_noise_scale_upper_bounds_error_coefficient():
    """zeta is defined so that l3 <= l2 * zeta^(2*theta)."""
    rng = np.random.default_rng(2)
    for _ in range(50):
        theta = float(rng.uniform(0.5, 1.0))
        params = PLParams(
            l1=float(rng.uniform(0.0, 2.0)),
            l2=float(rng.uniform(0.1, 3.0)),
            l3=float(rng.uniform(0.0, 3.0)),
            tau=float(rng.uniform(1.5, 3.5)),
            theta=theta,
        )
        d = derive_constants(params, delta=float(rng.uniform(0.1, 1.0)))
        assert params.l3 <= params.l2 * d.zeta ** (2 * theta) * (1 + 1e-12)


def test_simulate_matches_geometric_closed_form_at_theta_half():
    """With theta = 1/2 and l1 = 0 the recursion is affine and solvable."""
    params = PLParams(l1=0.0, l2=0.8, l3=0.3, tau=2.0, theta=0.5)
    alpha = 0.5
    K = 60
    ys = simulate_pl_recursion(params, Constant(alpha=alpha), 2.0, K)
    contraction = 1.0 - params.l2 * alpha
    error = params.l3 * alpha**2
    fixed = error / (1.0 - contraction)
    for k, y in enumerate(ys):
        assert y == pytest.approx(fixed + contraction**k * (2.0 - fixed), rel=1e-12)


def test_simulate_raises_on_negative_trajectory():
    params = PLParams(l1=0.0, l2=1.0, l3=0.01, tau=2.0, theta=0.5)
    with pytest.raises(NumericFailure) as info:
        simulate_pl_recursion(params, Constant(alpha=2.5), 1.0, 16)
    assert info.value.index == 1


def test_simulate_raises_on_non_finite_trajectory():
    params = PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=0.5)
    with pytest.raises(NumericFailure, match="not finite at step 3") as info:
        # each step multiplies y by 1 + 50^2 - 50 = 2451: 1e300 overflows at step 3
        simulate_pl_recursion(params, Constant(alpha=50.0), 1e300, 8)
    assert info.value.index == 3
    general = PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=0.75)
    with pytest.raises(NumericFailure) as info:
        # float ** raises OverflowError where * gives inf
        simulate_pl_recursion(general, Constant(alpha=50.0), 1e300, 8)
    assert info.value.index == 1


def test_rr_constants_rejects_bool_and_non_integral_N():
    for bad in (True, False, 2.5, 4.0, "4", 0):
        with pytest.raises(ValueError):
            rr_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0, N=bad)
    mc = rr_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0, N=np.int64(4))
    assert mc == rr_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0, N=4)


@pytest.mark.parametrize("theta", [0.0, -0.0, 0.25, 1.5])
def test_rr_constants_checks_theta_before_forming_delta(theta):
    with pytest.raises(ValueError, match=r"^theta must lie in \[1/2, 1\]"):
        rr_constants(theta=theta, L=1.0, mu=1.0, A=0.0, sigma=1.0, N=4)


def test_simulate_validates_inputs():
    params = PLParams(l1=0.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5)
    with pytest.raises(ValueError):
        simulate_pl_recursion(params, Constant(alpha=0.1), -1.0, 4)
    with pytest.raises(ValueError):
        simulate_pl_recursion(params, Constant(alpha=0.1), 1.0, 0)


def finals_outcome(run):
    """The values of a run as float hex, or its first error as (type, message, index)."""
    try:
        return [v.hex() for v in run()]
    except (NumericFailure, ValueError, ArithmeticError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


STEP = st.floats(0.01, 3.0)
POWER = st.floats(0.2, 2.0)
# one builder K -> schedule per column of a K-major lane list; a polynomial
# lane with gamma = K has no horizon yet differs from K to K
BUILDERS = st.one_of(
    st.builds(lambda a: lambda K: Constant(alpha=a), STEP),
    st.builds(lambda s: lambda K: s, st.builds(Polynomial, STEP, st.floats(0.5, 16.0), POWER)),
    st.builds(lambda a, p: lambda K: Polynomial(alpha=a, gamma=float(K), p=p), STEP, POWER),
    st.builds(
        lambda a, b, p: lambda K: Exponential(alpha=a, beta=b, p=p, horizon=K + 4),
        STEP,
        st.floats(0.5, 4.0),
        POWER,
    ),
    st.builds(lambda a, p: lambda K: Cosine(alpha=a, p=p, horizon=K), STEP, POWER),
)
RECURSION_PARAMS = st.builds(
    PLParams,
    l1=st.floats(0.0, 2.0),
    l2=st.floats(0.1, 2.0),
    l3=st.one_of(st.floats(0.0, 2.0), st.just(-0.0)),
    tau=st.sampled_from([2.0, 3.0, 2.5]),
    theta=st.sampled_from([0.5, 1.0, 0.75, 2.0 / 3.0]),
)


@st.composite
def lane_lists(draw):
    """K-major lanes, one per K and builder, over an unsorted K grid that
    may repeat a K; each lane's params and y0 come from pools of one or
    two, so lanes share walks, and y0 = 0.0 and -0.0 may both appear."""
    params = draw(st.lists(RECURSION_PARAMS, min_size=1, max_size=2))
    starts = draw(
        st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, 1e100, 1e290, 1e300]), min_size=1, max_size=2)
    )
    builders = draw(st.lists(BUILDERS, min_size=1, max_size=4))
    k_grid = draw(st.lists(st.integers(1, 48), min_size=1, max_size=6))
    lanes = []
    for K in k_grid:
        for build in builders:
            lanes.append((draw(st.sampled_from(params)), build(K), draw(st.sampled_from(starts)), K))
    return lanes


# no max_examples: CI fuzzes it under the fuzz profile
@pytest.mark.fuzz
@given(lane_lists())
# inf from step 10 on: fine at K = 4 and 8, not finite at K = 16 and 12
@example(
    [
        (PLParams(l1=1.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5), schedule, 1e300, K)
        for K in [4, 8, 16, 12, 4]
        for schedule in (Polynomial(alpha=1.0, gamma=4.0, p=1.0), Constant(alpha=3.0))
    ]
)
# y = 16 after one step and negative after two: K = 1 passes, K = 3 fails
@example(
    [
        (PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=1.0), schedule, 1.0, K)
        for K in [1, 3, 2]
        for schedule in (Cosine(alpha=0.5, p=1.0, horizon=K), Constant(alpha=3.0))
    ]
)
# inf from step 1 and -inf at step 7: K = 4 and K = 8 both fail as not
# finite at step 1, the first bad step, not as negative at step 7
@example(
    [
        (PLParams(l1=1.0, l2=3.0, l3=0.0, tau=2.0, theta=0.5), schedule, 1e308, K)
        for K in [4, 8]
        for schedule in [Polynomial(alpha=40.0, gamma=10.0, p=1.0)]
    ]
)
# the constant lane fails at K = 16, yet the cosine lane past its horizon
# raises first: every lane is checked before any walk
@example(
    [
        (PLParams(l1=1.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5), schedule, 1e300, K)
        for K in [4, 16]
        for schedule in (Constant(alpha=3.0), Cosine(alpha=0.5, p=1.0, horizon=4))
    ]
)
# K = 0 is rejected after good lanes
@example(
    [
        (PLParams(l1=0.0, l2=1.0, l3=1.0, tau=2.0, theta=0.75), schedule, 1.0, K)
        for K in [8, 0, 4]
        for schedule in (Cosine(alpha=0.5, p=1.0, horizon=8), Polynomial(0.5, 1.0, 0.5))
    ]
)
# the first walk fails at step 2 (its K = 3 lane), but the lane before that
# one fails first, at step 1: a failing walk is replayed lane by lane in order
@example(
    [
        (PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=1.0), Constant(alpha=3.0), 1.0, 1),
        (PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.5, theta=0.5), Constant(alpha=1e200), 1.0, 8),
        (PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=1.0), Constant(alpha=3.0), 1.0, 3),
    ]
)
# y0 = -0.0 with l3 = -0.0 stays -0.0, and y0 = 0.0 stays 0.0: no shared walk
@example(
    [
        (PLParams(l1=1.0, l2=1.0, l3=-0.0, tau=2.0, theta=theta), Constant(alpha=0.5), y0, 4)
        for theta in (0.5, 1.0, 0.75)
        for y0 in (0.0, -0.0, 0.0)
    ]
)
def test_finals_equal_the_per_lane_runs(lanes):
    """Values bitwise, or the same first error: type, message and index.

    Large y0 and steps drive lanes negative, past the range of doubles or to
    NaN partway through a lane list whose K are unsorted and repeat.
    """
    reference = finals_outcome(
        lambda: oracles.recursion_finals_per_lane(simulate_pl_recursion, NumericFailure, lanes)
    )
    assert finals_outcome(lambda: simulate_pl_finals(lanes)) == reference


def test_finals_walk_each_distinct_lane_once(monkeypatch):
    """Constant and polynomial lanes once; exponential and cosine lanes once
    per distinct K, though K = 8 appears twice; a second y0 or params takes
    a walk of its own, and so does y0 = -0.0 beside 0.0."""
    walks = []

    def counted(params, schedule, k0, y, ends):
        walks.append((params.l3, type(schedule).__name__, repr(y), max(ends)))
        return walk(params, schedule, k0, y, ends)

    walk = plbounds._walk
    monkeypatch.setattr(plbounds, "_walk", counted)
    params = PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=0.75)
    builders = [
        lambda K: Constant(alpha=0.1),
        lambda K: Polynomial(alpha=1.0, gamma=4.0, p=1.0),
        lambda K: Exponential(alpha=0.5, beta=1.0, p=1.0, horizon=K),
        lambda K: Cosine(alpha=0.2, p=1.0, horizon=K),
    ]
    k_grid = [64, 8, 32, 8, 16]
    lanes = [(params, build(K), 1.0, K) for K in k_grid for build in builders]
    lanes += [
        (params, Constant(alpha=0.1), 0.5, 4),
        (PLParams(l1=1.0, l2=1.0, l3=2.0, tau=2.0, theta=0.75), Constant(alpha=0.1), 1.0, 4),
        (params, Constant(alpha=0.1), 0.0, 4),
        (params, Constant(alpha=0.1), -0.0, 4),
    ]
    finals = simulate_pl_finals(lanes)
    assert len(finals) == len(lanes)
    per_K = [(1.0, name, "1.0", K) for K in set(k_grid) for name in ("Exponential", "Cosine")]
    assert sorted(walks) == sorted(
        [(1.0, "Constant", "1.0", 64), (1.0, "Polynomial", "1.0", 64)]
        + per_K
        + [(1.0, "Constant", y0, 4) for y0 in ("0.5", "0.0", "-0.0")]
        + [(2.0, "Constant", "1.0", 4)]
    )


@pytest.mark.parametrize("block", [plbounds._FINALS_BLOCK, 5])
def test_walks_read_one_step_list_per_block_not_per_K(block):
    """The oracle, whose walk ends at every step, and a finals grid each read
    ceil(K / _FINALS_BLOCK) lists of steps for their largest K: the walk
    stops at each K, but no K cuts a block."""
    params = PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=0.75)
    schedule = Polynomial(alpha=1.0, gamma=4.0, p=1.0)
    with mock.patch.object(plbounds, "_FINALS_BLOCK", block):
        for K in (1, block - 1, block, block + 1, 3 * block + 2):
            grid = sorted({*range(1, K + 1, max(1, K // 7)), K})
            with mock.patch.object(plbounds, "_steps", wraps=plbounds._steps) as steps:
                ys = simulate_pl_recursion(params, schedule, 1.0, K)
                assert steps.call_count == -(-K // block)
                finals = simulate_pl_finals([(params, schedule, 1.0, k) for k in grid])
                assert steps.call_count == 2 * -(-K // block)
            assert finals == [ys[k] for k in grid]


# --- the finals runner against the scalar recursion --------------------------


def oracle_finals(params, schedule, y0, ks):
    """y_K of one simulate_pl_recursion run per K, in the order of ks; the
    error of the least K that fails (every larger K fails too)."""
    by_K = {K: simulate_pl_recursion(params, schedule, y0, K)[-1] for K in sorted(set(ks))}
    return [by_K[K] for K in ks]


@st.composite
def finals_cases(draw):
    """A run of 3-7 step blocks whose requested K fall inside blocks, on
    their edges and at a ragged end; large steps and starts drive it
    negative, past the floats (inf, NaN, float ** overflow) or, for
    polynomial steps whose denominator passes the floats, to steps of 0.0."""
    params = PLParams(
        l1=draw(st.floats(0.0, 2.0)),
        l2=draw(st.floats(0.1, 2.0)),
        l3=draw(st.floats(0.0, 2.0)),
        tau=draw(st.sampled_from([2.0, 3.0, 2.5, 1.5])),
        theta=draw(st.sampled_from([0.5, 1.0, 0.75, 2.0 / 3.0])),
    )
    block = draw(st.integers(3, 7))
    edges = st.integers(1, 6).map(lambda j: j * block)
    ks = draw(st.lists(st.one_of(st.integers(1, 40), edges), min_size=1, max_size=6))
    horizon = max(ks) + draw(st.integers(0, 3))
    alpha = draw(st.one_of(st.floats(0.01, 3.0), st.sampled_from([50.0, 1e200])))
    p = draw(st.one_of(st.floats(0.2, 2.0), st.sampled_from([300.0, 1e30])))
    family = draw(st.sampled_from(["const", "poly", "exp", "cos"]))
    if family == "const":
        schedule = Constant(alpha=alpha)
    elif family == "poly":
        schedule = Polynomial(alpha=alpha, gamma=draw(st.floats(1.0, 16.0)), p=p)
    elif family == "exp":
        beta = draw(st.floats(0.5, 4.0).filter(lambda b: b < horizon))
        schedule = Exponential(alpha=alpha, beta=beta, p=min(p, 2.0), horizon=horizon)
    else:
        schedule = Cosine(alpha=alpha, p=min(p, 2.0), horizon=horizon)
    y0 = draw(st.sampled_from([0.0, 0.5, 1.0, 1e100, 1e300, 1e308]))
    return params, schedule, y0, ks, block


@settings(max_examples=300)
@given(finals_cases())
# the steps' powers pass the floats (float ** overflows): inf, not finite at step 1
@example((PLParams(1.0, 1.0, 1.0, 2.5, 0.5), Constant(alpha=1e200), 1.0, [2, 5], 3))
# in y^(2*theta) at step 1, where the oracle raises NumericFailure
@example((PLParams(1.0, 1.0, 1.0, 2.0, 0.75), Constant(alpha=50.0), 1e300, [1, 4], 4))
# inf from step 1 and -inf at step 7: K = 4 and 8 both fail at step 1, the first bad step
@example(
    (PLParams(1.0, 3.0, 0.0, 2.0, 0.5), Polynomial(alpha=40.0, gamma=10.0, p=1.0), 1e308, [8, 4], 3)
)
# (k + 1)^300 passes the floats from k = 10 on, inside the third block of 4
@example((PLParams(0.0, 1.0, 1.0, 2.0, 0.5), Polynomial(1.0, 1.0, 300.0), 1.0, [9, 11, 20], 4))
def test_finals_equal_the_oracle_runs(case):
    """y_K bitwise, or the oracle's error (type, message and index)."""
    params, schedule, y0, ks, block = case
    reference = finals_outcome(lambda: oracle_finals(params, schedule, y0, ks))
    with mock.patch.object(plbounds, "_FINALS_BLOCK", block):
        lanes = [(params, schedule, y0, K) for K in ks]
        assert finals_outcome(lambda: simulate_pl_finals(lanes)) == reference


@settings(max_examples=300)
@given(finals_cases())
# inf from step 1 and -inf at step 7: not finite at step 1, the first bad
# step, not negative at step 7
@example(
    (PLParams(1.0, 3.0, 0.0, 2.0, 0.5), Polynomial(alpha=40.0, gamma=10.0, p=1.0), 1e308, [8], 3)
)
def test_oracle_equals_the_per_step_walk(case):
    """simulate_pl_recursion against an independent per-step walk: values
    bitwise, or the same error type, message and index (the first bad step)."""
    params, schedule, y0, ks, _ = case
    K = max(ks)
    ys, failure = oracles.recursion_walk(step_value, params, schedule, y0, K)
    reference = [y.hex() for y in ys] if failure is None else (NumericFailure, *failure)
    assert finals_outcome(lambda: simulate_pl_recursion(params, schedule, y0, K)) == reference


def test_an_infinite_start_fails_at_step_0():
    """y0 = inf is the first bad step, though step 1 would also be negative
    (growth factor 1 + 1 - 3 < 0), in the oracle and the finals runner."""
    params = PLParams(l1=1.0, l2=3.0, l3=0.0, tau=2.0, theta=0.5)
    schedule = Constant(alpha=1.0)
    message = "^trajectory value inf is not finite at step 0$"
    for run in (
        lambda: simulate_pl_recursion(params, schedule, math.inf, 4),
        lambda: simulate_pl_finals([(params, schedule, math.inf, K) for K in (4, 2)]),
    ):
        with pytest.raises(NumericFailure, match=message) as info:
            run()
        assert info.value.index == 0


def test_finals_validate_as_the_oracle_does():
    params = PLParams(l1=0.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5)
    flat, cosine = Constant(alpha=0.1), Cosine(alpha=0.1, p=1.0, horizon=4)
    assert simulate_pl_finals([]) == []
    with pytest.raises(ValueError, match="^y0 must be nonnegative, got -1.0$"):
        simulate_pl_finals([(params, flat, 1.0, 4), (params, flat, -1.0, 4)])
    message = "^K must be an integer from 1 to the largest float, got 0$"
    with pytest.raises(ValueError, match=message):
        simulate_pl_finals([(params, flat, 1.0, 4), (params, flat, 1.0, 0)])
    with pytest.raises(ValueError, match="^step index 5 beyond horizon 4$"):
        simulate_pl_finals([(params, cosine, 1.0, 2), (params, cosine, 1.0, 6)])
    with pytest.raises(TypeError, match="^unknown schedule type float$"):
        simulate_pl_finals([(params, flat, 1.0, 4), (params, 0.1, 1.0, 4)])


def test_polynomial_steps_past_the_floats_agree_in_every_runner():
    """Steps of 0.0 where (k + gamma)^p passes the floats, in the oracle,
    the finals runner and the lane batch (numpy's power gives inf there)."""
    params = PLParams(l1=0.0, l2=1.0, l3=1.0, tau=2.0, theta=0.5)
    for schedule in (Polynomial(1.0, 1.0, 300.0), Polynomial(1.0, 4.0, 1e30)):
        ys = simulate_pl_recursion(params, schedule, 0.5, 16)
        assert simulate_pl_finals([(params, schedule, 0.5, 16)]) == [ys[-1]]
        final, smallest, flagged = simulate_pl_lanes([(params, schedule, 0.5, 16)])
        assert not flagged[0]
        assert (final[0], smallest[0]) == pytest.approx((ys[-1], min(ys)), rel=SCREEN)


def test_powers_past_the_floats_are_inf_in_every_runner():
    """A tau-th power past the floats is inf, as numpy's power gives in the
    lane batch: the oracle and the finals runner raise the same
    NumericFailure, and the lane batch flags the lane, in every theta branch."""
    schedule = Constant(alpha=1e200)  # 1e200^2.5 passes the floats
    message = "^trajectory value inf is not finite at step 1$"
    for theta in (0.5, 1.0, 0.75):
        params = PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.5, theta=theta)
        for run in (
            lambda: simulate_pl_recursion(params, schedule, 1.0, 8),
            lambda: simulate_pl_finals([(params, schedule, 1.0, 8)]),
        ):
            with pytest.raises(NumericFailure, match=message):
                run()
        final, _, flagged = simulate_pl_lanes([(params, schedule, 1.0, 8)])
        assert flagged[0] and not math.isfinite(final[0])


def test_a_failing_run_holds_one_block_not_K():
    """A run to K = 2^20 that goes negative at step 1 reads one block of
    steps, not K steps and their powers (40 MiB of traced memory)."""
    params = PLParams(l1=0.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5)
    tracemalloc.start()
    try:
        with pytest.raises(NumericFailure, match="^trajectory negative at step 1$"):
            simulate_pl_finals([(params, Constant(alpha=3.0), 1.0, 1 << 20)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@settings(max_examples=300)
@given(
    st.builds(
        PLParams,
        l1=st.floats(0.0, 1e100),
        l2=st.floats(1e-100, 1e100),
        l3=st.floats(0.0, 1e100),
        tau=st.sampled_from([2.0, 3.0, 2.5, 1.5]),
        theta=st.sampled_from([0.5, 1.0, 0.75, 2.0 / 3.0]),
    ),
    st.one_of(st.just(0.0), st.floats(1e-100, 1e100)),
    st.floats(0.0, 1e300),
)
def test_a_value_that_is_not_finite_never_turns_finite(params, a, y):
    """Why the walk checks only the y at each block end: NaN stays NaN and
    +inf gives inf or NaN or -inf, so a block with a bad step ends bad and
    is walked again a step at a time. Steps include 0.0, the cosine step
    at K."""
    try:
        one = simulate_pl_recursion(params, Constant(alpha=a), y, 1)[1] if a else None
    except NumericFailure:
        one = None
    if one is not None:
        assert one == oracles.recursion_step(params, a, y)  # the oracle's arithmetic
    assert math.isnan(oracles.recursion_step(params, a, math.nan))
    after_inf = oracles.recursion_step(params, a, math.inf)
    assert after_inf == math.inf or math.isnan(after_inf) or after_inf < 0.0


def test_finals_memory_is_one_block_not_K():
    """One polynomial and one exponential lane to K = 2^16 peak well under
    1 MiB of traced memory; three K-long lists of a run would take 6 MiB."""
    params, K = PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=0.5), 1 << 16
    schedules = [
        Polynomial(alpha=4.0, gamma=8.0, p=1.0),
        Exponential(alpha=0.5, beta=1.0, p=1.0, horizon=K),
    ]
    tracemalloc.start()
    try:
        finals = simulate_pl_finals([(params, schedule, 1.0, K) for schedule in schedules])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(0.0 < y < 1.0 for y in finals)
    assert peak < 1 << 20, peak


# --- the lane batch against the scalar recursion -----------------------------
#
# simulate_pl_lanes must give the scalar y_K within the screen tolerance
# that bounds_suite relies on, 1e-12 * max(1, |y_K|), and flag every lane on
# which simulate_pl_recursion raises. The lanes below contract: steps of at
# most 1/2 with l2*a <= 1/2 and y0 <= 1, so the ulp-level differences of
# numpy's exp and pow stay at that level instead of being amplified.
SCREEN = 1e-12
THETAS = [0.5, 1.0, 0.75, 2.0 / 3.0, 0.9]  # affine, quadratic, general


@st.composite
def contracting_lanes(draw):
    params = PLParams(
        l1=draw(st.floats(0.0, 1.0)),
        l2=draw(st.floats(0.1, 2.0)),
        l3=draw(st.floats(0.0, 1.0)),
        tau=draw(st.sampled_from([2.0, 3.0, 2.5])),
        theta=draw(st.sampled_from(THETAS)),
    )
    alpha = draw(st.floats(0.01, 0.5)) * min(1.0, 1.0 / params.l2)
    p = draw(st.floats(0.3, 2.0))
    K = draw(st.integers(1, 400))
    family = draw(st.sampled_from(["const", "poly", "exp", "cos"]))
    if family == "const":
        schedule = Constant(alpha=alpha)
    elif family == "poly":
        schedule = Polynomial(alpha=alpha, gamma=draw(st.floats(1.0, 50.0)), p=p)
    elif family == "exp":
        K = max(K, 5)
        schedule = Exponential(alpha=alpha, beta=draw(st.floats(1.0, 4.0)), p=p, horizon=K)
    else:
        schedule = Cosine(alpha=alpha, p=p, horizon=K)
    return params, schedule, draw(st.floats(0.0, 1.0)), K


def scalar_outcome(lane):
    """(y_K, smallest y) of simulate_pl_recursion, or None where it raises."""
    try:
        ys = simulate_pl_recursion(*lane)
    except NumericFailure:
        return None
    return ys[-1], min(ys)


@settings(max_examples=150)
@given(st.lists(contracting_lanes(), min_size=1, max_size=12))
def test_lane_batch_matches_the_scalar_recursion(lanes):
    """Every family and theta branch, lanes of unequal K stepping together."""
    final, smallest, flagged = simulate_pl_lanes(lanes)
    for i, lane in enumerate(lanes):
        y, low = scalar_outcome(lane)
        assert not flagged[i]
        assert abs(final[i] - y) <= SCREEN * max(1.0, abs(y)), (lane, final[i], y)
        assert abs(smallest[i] - low) <= SCREEN * max(1.0, abs(y)), (lane, smallest[i], low)


# lanes that fail as simulate_pl_recursion does (negative after one step,
# infinite from step 3, OverflowError in y^(2*theta), -inf from a pull term
# y^2 that overflows, inf and then inf - inf) and three that do not, one of
# them at 0 throughout
FAILING_LANES = [
    (PLParams(l1=0.0, l2=1.0, l3=0.01, tau=2.0, theta=0.5), Constant(alpha=2.5), 1.0, 16),
    (PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=0.5), Constant(alpha=50.0), 1e300, 8),
    (PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=0.75), Constant(alpha=50.0), 1e300, 8),
    (PLParams(l1=1.0, l2=1.0, l3=0.0, tau=2.0, theta=1.0), Constant(alpha=3.0), 1e300, 4),
    (
        PLParams(l1=1.0, l2=3.0, l3=0.0, tau=2.0, theta=0.5),
        Polynomial(alpha=40.0, gamma=10.0, p=1.0),
        1e308,
        8,
    ),
    (
        PLParams(l1=0.0, l2=1.0, l3=1.0, tau=3.0, theta=1.0),
        Cosine(alpha=0.5, p=1.0, horizon=3),
        1.0,
        3,
    ),
    (
        PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.5, theta=0.6),
        Exponential(alpha=0.2, beta=2.0, p=1.0, horizon=64),
        1.0,
        64,
    ),
    (PLParams(l1=0.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5), Constant(alpha=0.5), 0.0, 10),
]


@settings(max_examples=100)
@given(st.lists(st.sampled_from(FAILING_LANES), min_size=1, max_size=10))
def test_lane_batch_flags_exactly_where_the_scalar_recursion_raises(lanes):
    final, smallest, flagged = simulate_pl_lanes(lanes)
    for i, lane in enumerate(lanes):
        outcome = scalar_outcome(lane)
        assert flagged[i] == (outcome is None), lane
        if outcome is not None:
            assert final[i] == pytest.approx(outcome[0], rel=SCREEN, abs=SCREEN)
            assert smallest[i] == pytest.approx(outcome[1], rel=SCREEN, abs=SCREEN)


def test_lane_batch_blocks_shrink_with_the_active_lanes():
    """K = 40000 runs alone in blocks of 2^15 steps; the other lanes end
    inside its first block and at the block boundary itself."""
    params = PLParams(l1=0.1, l2=1.0, l3=0.5, tau=3.0, theta=0.75)
    lanes = [
        (params, Exponential(alpha=0.1, beta=2.0, p=1.0, horizon=40000), 1.0, 40000),
        (params, Polynomial(alpha=0.4, gamma=3.0, p=0.6), 0.5, 1 << 15),
        (params, Constant(alpha=0.2), 0.25, 3),
    ]
    final, smallest, flagged = simulate_pl_lanes(lanes)
    assert not flagged.any()
    for i, lane in enumerate(lanes):
        y, low = scalar_outcome(lane)
        assert final[i] == pytest.approx(y, rel=SCREEN)
        assert smallest[i] == pytest.approx(low, rel=SCREEN)


def test_lane_batch_validates_its_lanes_and_warns_nowhere():
    params = PLParams(l1=0.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5)
    assert [len(a) for a in simulate_pl_lanes([])] == [0, 0, 0]
    with pytest.raises(ValueError):
        simulate_pl_lanes([(params, Constant(alpha=0.1), -1.0, 4)])
    with pytest.raises(ValueError):
        simulate_pl_lanes([(params, Constant(alpha=0.1), 1.0, 0)])
    with pytest.raises(ValueError, match="^step index 5 beyond horizon 4$"):
        simulate_pl_lanes([(params, Cosine(alpha=0.1, p=1.0, horizon=4), 1.0, 6)])
    with pytest.raises(TypeError, match="^unknown schedule type float$"):
        simulate_pl_lanes([(params, Constant(alpha=0.1), 1.0, 4), (params, 0.1, 1.0, 4)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flagged = simulate_pl_lanes(FAILING_LANES)[2]
    assert flagged.tolist() == [True] * 5 + [False] * 3


# --- the case-d offset test against its whole grid ----------------------------


@st.composite
def offset_cases(draw):
    params = PLParams(
        l1=draw(st.sampled_from([0.0, 1e-3, 0.1, 2.0])),
        l2=draw(st.floats(0.01, 10.0)),
        l3=draw(st.sampled_from([0.0, 1e-3, 0.5, 20.0])),
        tau=draw(st.sampled_from([2.0, 3.0, 1.2, 3.7])),
        theta=draw(st.floats(0.5001, 1.0)),
    )
    alpha = draw(st.floats(0.01, 1000.0))
    K = draw(st.sampled_from([4, 64, 65, 100, 256, 1000, 32768, 10**6]))
    return params, alpha, K


@settings(max_examples=300)
@given(offset_cases(), st.floats(1.0, 1e8), st.integers(-5, 5))
def test_offset_peak_test_decides_as_the_grid(case, scale, step):
    """Offsets spread over decades, and offsets within 1e-12 of the boundary
    that smallest_offset bisects to, where the two tests could part."""
    params, alpha, K = case
    gammas = [math.e * scale]
    try:
        gammas.append(smallest_offset(params, alpha, K) * (1.0 + step * 2e-13))
    except PreconditionError:
        pass
    for gamma in gammas:
        assert offset_admissible(params, alpha, K, gamma) == oracles.offset_admissible_grid(
            params, alpha, K, gamma
        ), (params, alpha, K, gamma)


def test_offset_test_at_theta_one_half_names_theta():
    # 2*theta/(2*theta - 1) divided by zero here, a raw ZeroDivisionError
    params = PLParams(0.1, 1.0, 0.1, 2.0, 0.5)
    message = "^the offset test needs theta > 1/2, got theta = 0.5$"
    with pytest.raises(ValueError, match=message):
        offset_admissible(params, 0.1, 64, 10.0)
    with pytest.raises(ValueError, match=message):
        smallest_offset(params, 0.1, 64)


def test_exp_bound_reference_values():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    sched = Exponential(alpha=1.0, beta=1.0, p=1.0, horizon=100)
    res = bound_exp(mc, sched, 1.0)
    assert res.noise_term == pytest.approx(0.36841361487904731, rel=1e-14)
    assert res.details["branch_floor"] == pytest.approx(0.005, rel=1e-14)
    assert res.init_term == pytest.approx(2.1471406738328662e-5, rel=1e-13)
    assert res.value == pytest.approx(0.36843508628578564, rel=1e-13)
    assert res.regime == "case I"


def test_exp_bound_cap_violation():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    with pytest.raises(PreconditionError):
        bound_exp(mc, Exponential(alpha=1.5, beta=1.0, p=1.0, horizon=100), 1.0)


def test_cos_bound_constant_and_regimes():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    res = bound_cos(mc, Cosine(alpha=0.5, p=1.0, horizon=100), 1.0)
    assert res.details["D"] == pytest.approx(19.739208802178717, rel=1e-15)
    assert res.regime in ("case I", "case II")
    assert res.value == res.noise_term + res.init_term
    with pytest.raises(PreconditionError):
        bound_cos(mc, Cosine(alpha=0.5, p=1.0, horizon=1), 1.0)


def test_const_bound_reference_values():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    res = bound_const(mc, Constant(alpha=0.1), 1.0, 100)
    assert res.noise_term == pytest.approx(0.1, rel=1e-15)
    assert res.init_term == pytest.approx(0.0067379469990854652, rel=1e-14)
    assert res.value == pytest.approx(0.10673794699908547, rel=1e-14)
    assert res.regime == "constant"


def test_const_bound_tuned_uses_floor_beta():
    """tuned=True picks beta = omega/xi, the canonical horizon-tuned level."""
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    K = 4096
    res = bound_const(mc, None, 1.0, K, tuned=True)
    assert res.details["tuned_beta"] == 2.0
    assert res.details["alpha"] == pytest.approx(2.0 * math.log(K) / K, rel=1e-15)
    explicit = bound_const(mc, None, 1.0, K, tuned={"beta": 2.0})
    assert res.value == explicit.value
    with pytest.raises(PreconditionError):
        bound_const(mc, None, 1.0, K, tuned={"beta": 1.0})


def test_tuned_false_equals_untuned():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    sched = Constant(alpha=0.05)
    assert (
        bound_const(mc, sched, 1.0, 50, tuned=False).value
        == bound_const(mc, sched, 1.0, 50).value
    )


def test_poly_tuned_sgd_reference_values():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    res = bound_poly(mc, Polynomial(alpha=4.0, gamma=4.0, p=1.0), 1.0, 96, tuned=True)
    assert res.regime == "case b"
    assert res.noise_term == pytest.approx(0.08, rel=1e-14)
    assert res.init_term == pytest.approx(0.0016, rel=1e-14)


def test_poly_tuned_rr_regime_and_floors():
    mc = rr_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0, N=4)
    res = bound_poly(mc, Polynomial(alpha=1.0, gamma=222.0, p=1.0), 1.0, 512, tuned=True)
    assert res.regime == "case b"
    assert res.details["tuned_beta"] == pytest.approx(16.0, rel=1e-14)
    with pytest.raises(PreconditionError):
        bound_poly(mc, Polynomial(alpha=1.0, gamma=222.0, p=1.0), 1.0, 2, tuned=True)
    with pytest.raises(PreconditionError):
        # horizon below 2*gamma
        bound_poly(mc, Polynomial(alpha=1.0, gamma=400.0, p=1.0), 1.0, 512, tuned=True)


def test_poly_case_selection_and_floors():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    res = bound_poly(mc, Polynomial(alpha=1.0, gamma=20.0, p=0.5), 1.0, 128)
    assert res.regime == "case a"
    res = bound_poly(mc, Polynomial(alpha=4.0, gamma=8.0, p=1.0), 1.0, 128)
    assert res.regime == "case b"
    with pytest.raises(PreconditionError):
        # case a offset floor
        bound_poly(mc, Polynomial(alpha=1.0, gamma=1.0, p=0.5), 1.0, 128)
    with pytest.raises(PreconditionError):
        # case b level floor
        bound_poly(mc, Polynomial(alpha=1.0, gamma=8.0, p=1.0), 1.0, 128)


def test_poly_cases_c_and_d_need_curved_landscape():
    mc = sgd_constants(theta=1.0, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    res = bound_poly(mc, Polynomial(alpha=0.4, gamma=1.0, p=0.8), 1.0, 256)
    assert res.regime == "case c"
    res = bound_poly(mc, Polynomial(alpha=2.0, gamma=16.0, p=1.0), 1.0, 256)
    assert res.regime == "case d"
    assert res.details["gamma0"] <= 16.0
    flat = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    with pytest.raises(PreconditionError):
        bound_poly(flat, Polynomial(alpha=0.4, gamma=1.0, p=0.8), 1.0, 256, case="c")
    with pytest.raises(PreconditionError) as info:
        bound_poly(mc, Polynomial(alpha=2.0, gamma=2.0, p=1.0), 1.0, 256)
    assert "gamma" in str(info.value)


def test_transform_split_index_for_exponential_steps():
    """Certifying lambda = 2 on the exponential spec stops at the known index."""
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    K = 100
    spec = relaxed_recursion_transform(
        mc.params, mc.derived.delta, Exponential(alpha=1.0, beta=1.0, p=1.0, horizon=K), K
    )
    cert = find_lambda_constant(spec, lambda_target=2.0)
    xi = mc.derived.xi
    predicted = math.floor(
        math.log(xi * 1.0 * K / (2.0 * math.log(K))) * K / math.log(K)
    )
    assert cert.certified_horizon - 1 == predicted == 36


def test_transform_families_reproduce_steps():
    """eta(b_k) equals the schedule step for every family."""
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    K = 32
    for sched in (
        Constant(alpha=0.25),
        Exponential(alpha=0.8, beta=1.0, p=1.0, horizon=K),
        Polynomial(alpha=0.9, gamma=3.0, p=0.7),
        Cosine(alpha=0.6, p=1.5, horizon=K),
    ):
        spec = relaxed_recursion_transform(mc.params, 1.0, sched, K)
        zeta, xi = mc.derived.zeta, mc.derived.xi
        from steprates.schedules import step_value

        for k in (0, 1, K // 2, K - 1):
            a_k = step_value(sched, k)
            assert spec.s(spec.b(k)) == pytest.approx(1.0 / (xi * a_k), rel=1e-12)
            assert spec.t(spec.b(k)) == pytest.approx(
                1.0 / (2.0 * zeta * xi * a_k**2), rel=1e-12
            )
            assert spec.r(spec.b(k)) == pytest.approx(2.0 * zeta * a_k, rel=1e-12)


def test_transform_terminal_cosine_point_is_flat():
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    K = 16
    spec = relaxed_recursion_transform(
        mc.params, 1.0, Cosine(alpha=0.5, p=1.0, horizon=K), K
    )
    assert spec.b(K) == 0.0
    assert math.isinf(spec.s(0.0))
    assert math.isinf(spec.t(0.0))


def test_transform_steps_whose_powers_pass_the_floats_give_s_and_t_inf():
    """1e-110^(-3) passes the floats, where float ** raised OverflowError:
    t is its limit inf, so the error term is 0; s = 1e-110^(-1)/xi stays finite."""
    params = PLParams(l1=0.0, l2=1.0, l3=1.0, tau=3.0, theta=0.5)
    spec = relaxed_recursion_transform(params, 1.0, Constant(1e-110), 8)
    assert spec.grid.t == (math.inf,) * 9 and spec.grid.error == (0.0,) * 9
    assert spec.grid.s == (2e110,) * 9


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PLParams(0.0, 1.0, 1.0, math.inf, 0.75), "tau must be finite and exceed 1"),
        (
            lambda: descent_coefficients("rr", 1.0, 1.0, 1.0, 1.0, N=10**400),
            "^N must be an integer from 1 to the largest float, got 10000",
        ),
    ],
    ids=["tau-inf", "N-past-the-floats"],
)
def test_arguments_no_power_can_take_are_rejected_by_name(make, message):
    """tau = inf left rho = 0 (1/rho raised ZeroDivisionError) and omega NaN;
    an N past the floats raised OverflowError in 2.0 * N."""
    with pytest.raises(ValueError, match=message):
        make()


def test_transform_rejects_oversized_steps():
    """The transform enforces the analytic cap xi^(-rho) = 2 at these params."""
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    with pytest.raises(PreconditionError):
        relaxed_recursion_transform(mc.params, 1.0, Constant(alpha=2.5), 16)
    with pytest.raises(ValueError):
        relaxed_recursion_transform(
            mc.params, 1.0, Cosine(alpha=0.5, p=1.0, horizon=8), 16
        )


def test_const_display_dominates_certified_product_route():
    """The displayed bound uses exp(-xi*alpha*K), above the exact product."""
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    alpha, K, y0 = 0.3, 200, 1.0
    spec = relaxed_recursion_transform(mc.params, 1.0, Constant(alpha=alpha), K)
    cert = find_lambda_constant(spec)
    assert cert.lam == pytest.approx(1.0, rel=1e-12)
    product_route = general_bound(spec, cert, y0, K - 1)
    display = bound_const(mc, Constant(alpha=alpha), y0, K)
    assert display.value >= product_route * (1 - 1e-12)
    # in the decayed-start regime the two routes agree to the noise floor
    assert display.value == pytest.approx(product_route, rel=1e-10)


def test_bounds_dominate_equality_recursion_spot_checks():
    rng = np.random.default_rng(23)
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
    for _ in range(40):
        K = int(rng.integers(8, 200))
        alpha = float(rng.uniform(0.05, 1.0))
        y0 = float(rng.uniform(0.0, 1.0))
        traj = simulate_pl_recursion(mc.params, Constant(alpha=alpha), y0, K)
        assert bound_const(mc, Constant(alpha=alpha), y0, K).value >= traj[-1] * (
            1 - 1e-10
        )
        sched = Cosine(alpha=alpha, p=float(rng.uniform(0.3, 2.0)), horizon=K)
        traj = simulate_pl_recursion(mc.params, sched, y0, K)
        assert bound_cos(mc, sched, y0).value >= traj[-1] * (1 - 1e-10)


_SGD = sgd_constants(theta=0.75, L=1.0, mu=0.8, A=0.3, sigma=0.7)
_RR = rr_constants(theta=0.75, L=1.0, mu=0.8, A=0.3, sigma=0.7, N=3)
_SGD_HALF = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)
_RR_HALF = rr_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0, N=4)
_CURVED = PLParams(l1=0.1, l2=1.0, l3=0.2, tau=2.0, theta=0.75)
_B = _SGD.derived.rho

# each failed precondition's message as the evaluators wrote it before their
# checks moved into shared helpers; the numbers in it are part of the pin
PRECONDITION_MESSAGES = {
    "const-cap": (
        lambda: bound_const(_SGD, Constant(alpha=1.5), 1.0, 100),
        "alpha 1.5 exceeds admissible cap 1.0",
    ),
    "const-tuned-cap": (
        lambda: bound_const(_SGD, None, 1.0, 4, tuned={"beta": 50.0}),
        "tuned alpha 8.493253803653078 exceeds admissible cap 1.0 (horizon too small)",
    ),
    "const-tuned-beta-floor": (
        lambda: bound_const(_RR, None, 1.0, 4096, tuned={"beta": 0.5}),
        "tuned beta 0.5 below floor 3.140026895092234",
    ),
    "const-tuned-K": (
        lambda: bound_const(_SGD, None, 1.0, 1, tuned={"beta": 100.0}),
        "tuned step needs K >= 2, got 1",
    ),
    "cos-cap": (
        lambda: bound_cos(_RR, Cosine(alpha=2.0, p=1.0, horizon=64), 1.0),
        "alpha 2.0 exceeds admissible cap 0.5",
    ),
    "cos-tuned-beta-floor": (
        lambda: bound_cos(_SGD, Cosine(alpha=0.1, p=1.5, horizon=64), 1.0, tuned={"beta": 0.1}),
        "tuned beta 0.1 below floor 4.714045207910315",
    ),
    "cos-tuned-cap": (
        lambda: bound_cos(_RR, Cosine(alpha=0.1, p=1.5, horizon=64), 1.0, tuned=True),
        "tuned alpha 1.4626271353660851 exceeds admissible cap 0.5 (horizon too small)",
    ),
    "cos-K": (
        lambda: bound_cos(_SGD, Cosine(alpha=0.1, p=1.5, horizon=1), 1.0, tuned=True),
        "cosine bound needs K >= 2, got 1",
    ),
    "exp-cap": (
        lambda: bound_exp(_SGD, Exponential(alpha=3.0, beta=1.0, p=1.0, horizon=64), 1.0),
        "alpha 3.0 exceeds admissible cap 1.0",
    ),
    "exp-rr-horizon": (
        lambda: bound_exp(_RR, Exponential(alpha=0.05, beta=2.0, p=1.0, horizon=64), 1.0),
        "horizon too small: K/log(K/beta) = 18.466496523378733 below 10473.450075885034",
    ),
    "transform-cap": (
        lambda: relaxed_recursion_transform(_SGD_HALF.params, 1.0, Constant(alpha=2.5), 16),
        "largest step 2.5 exceeds admissible cap 2.0",
    ),
    "poly-a-cap": (
        lambda: bound_poly(_SGD, Polynomial(alpha=5.0, gamma=1.0, p=0.3), 1.0, 100),
        "largest step 5.0 exceeds admissible cap 1.0",
    ),
    "poly-a-gamma-floor": (
        lambda: bound_poly(_SGD, Polynomial(alpha=0.1, gamma=1.0, p=0.3), 1.0, 100),
        "gamma 1.0 below floor 151.215085787518",
    ),
    "poly-b-alpha-floor": (
        lambda: bound_poly(_SGD, Polynomial(alpha=0.1, gamma=100.0, p=_B), 1.0, 100),
        "alpha 0.1 below floor 1.9022728546437844",
    ),
    "poly-b-p": (
        lambda: bound_poly(_SGD, Polynomial(alpha=0.1, gamma=100.0, p=0.3), 1.0, 100, case="b"),
        "case b needs p = 0.75, got 0.3",
    ),
    "poly-c-alpha-floor": (
        lambda: bound_poly(_SGD, Polynomial(alpha=0.5, gamma=100.0, p=0.9), 1.0, 100),
        "alpha 0.5 below floor 0.6666666666666664",
    ),
    "poly-c-gamma-floor": (
        lambda: bound_poly(_SGD, Polynomial(alpha=9.0, gamma=2.0, p=0.9), 1.0, 100),
        "gamma 2.0 below floor 5.418316185783636",
    ),
    "poly-d-alpha-floor": (
        lambda: bound_poly(_SGD, Polynomial(alpha=1.0, gamma=100.0, p=1.0), 1.0, 100),
        "alpha 1.0 below floor 6.666666666666666",
    ),
    "poly-d-offset": (
        lambda: bound_poly(_SGD, Polynomial(alpha=20.0, gamma=3.0, p=1.0), 1.0, 100),
        "gamma 3.0 inadmissible; smallest admissible offset is 3232.0818121712928",
    ),
    "poly-d-offset-params": (
        lambda: bound_poly(_CURVED, Polynomial(alpha=20.0, gamma=3.0, p=1.0), 1.0, 100, delta=0.5),
        "gamma 3.0 inadmissible; smallest admissible offset is 1610.6702284415796",
    ),
    "poly-no-case": (
        lambda: bound_poly(_SGD_HALF, Polynomial(alpha=1.0, gamma=3.0, p=1.5), 1.0, 100),
        "no polynomial case covers p = 1.5 at theta = 0.5 (balance exponent 1.0)",
    ),
    "poly-tuned-p": (
        lambda: bound_poly(_SGD, Polynomial(alpha=1.0, gamma=3.0, p=1.0), 1.0, 100, tuned=True),
        "tuned schedule must decay with exponent 0.75, got 1.0",
    ),
    "poly-tuned-sgd-alpha-floor": (
        lambda: bound_poly(_SGD, Polynomial(alpha=0.1, gamma=3.0, p=_B), 1.0, 100, tuned=True),
        "alpha 0.1 below floor 1.9022728546437844",
    ),
    "poly-tuned-sgd-cap": (
        lambda: bound_poly(_SGD, Polynomial(alpha=20.0, gamma=1.0, p=_B), 1.0, 100, tuned=True),
        "largest step 20.0 exceeds admissible cap 1.0",
    ),
    "poly-tuned-rr-K": (
        lambda: bound_poly(_RR_HALF, Polynomial(alpha=1.0, gamma=222.0, p=1.0), 1.0, 2, tuned=True),
        "tuned reshuffling bound needs K >= 3, got 2",
    ),
    "poly-tuned-rr-beta-floor": (
        lambda: bound_poly(
            _RR_HALF, Polynomial(alpha=1.0, gamma=222.0, p=1.0), 1.0, 512, tuned={"beta": 1.0}
        ),
        "tuned beta 1.0 below floor 16.0",
    ),
    "poly-tuned-rr-gamma-floor": (
        lambda: bound_poly(_RR_HALF, Polynomial(alpha=1.0, gamma=2.0, p=1.0), 1.0, 512, tuned=True),
        "gamma 2.0 below floor 221.8070977791825",
    ),
    "poly-tuned-rr-horizon": (
        lambda: bound_poly(
            _RR_HALF, Polynomial(alpha=1.0, gamma=400.0, p=1.0), 1.0, 512, tuned=True
        ),
        "horizon 512 below 2*gamma = 800.0",
    ),
}


@pytest.mark.parametrize("name", PRECONDITION_MESSAGES)
def test_precondition_messages_keep_their_text(name):
    evaluate, message = PRECONDITION_MESSAGES[name]
    with pytest.raises(PreconditionError) as info:
        evaluate()
    assert str(info.value) == message


# --- the limit rule: a power past the floats is inf, never a raw error --------

def test_floors_whose_divisor_underflows_are_inf_and_fail_their_precondition():
    # alpha^(1/rho) = 1e-300^(4/3) underflows to 0.0; each floor divided by
    # it and raised ZeroDivisionError
    mc = sgd_constants(theta=0.75, L=1.0, mu=1.0, A=0.5, sigma=1.0)
    assert exp_horizon_floor(mc, 1e-300, 1.0, 64) == math.inf
    assert poly_gamma_floor(mc.params, mc.derived, "a", 1e-300, 0.5) == math.inf
    with pytest.raises(PreconditionError, match="^gamma 4.0 below floor inf$"):
        bound_poly(mc, Polynomial(1e-300, 4.0, 0.5), 1.0, 64, case="a")


def test_bound_arguments_past_the_floats_are_rejected_by_name():
    mc = sgd_constants(theta=0.75, L=1.0, mu=1.0, A=0.5, sigma=1.0)
    message = "^K must be an integer from 1 to the largest float, got 1000"
    with pytest.raises(ValueError, match=message):
        bound_const(mc, Constant(0.1), 1.0, 10**400)
    message = "^horizon must be an integer from 1 to the largest float, got 1000"
    with pytest.raises(ValueError, match=message):
        Exponential(0.1, 1.0, 1.0, 10**400)
    with pytest.raises(ValueError, match="^alpha must be positive and finite, got -1.0$"):
        poly_gamma_floor(mc.params, mc.derived, "c", -1.0, 0.9)  # a complex floor


def real(*natural):
    """A natural value of the argument or an extreme float (inf included)."""
    return st.sampled_from([*natural, *oracles.EXTREME_FLOATS, math.inf])


# the fields of PLParams and of ClassicalParams, which the calls construct
THETA = real(0.5, 2.0 / 3.0, 0.75, 1.0)
PARAMS = st.tuples(real(0.0, 0.5), real(1.0), real(0.0, 1.0), real(2.0, 3.0), THETA)
CLASSICAL = st.tuples(
    *(real(*natural) for natural in [(0.5, 2.0), (1.0,), (0.5, 1.0), (1.0, 2.0), (1.0, 1e16)]),
    st.one_of(st.none(), real(0.5)),
)
FAMILIES = {
    "constant": lambda a, u, v, K: Constant(a),
    "polynomial": lambda a, u, v, K: Polynomial(a, u, v),
    "exponential": lambda a, u, v, K: Exponential(a, u, v, K),
    "cosine": lambda a, u, v, K: Cosine(a, v, K),
}


def coefficients_and_constants(method, L, mu, A, sigma, theta, delta):
    N = 2 if method == "rr" else None
    return derive_constants(descent_coefficients(method, L, mu, A, sigma, N, theta), delta)


def constants(params, delta):
    return derive_constants(PLParams(*params), delta)


def transform(params, delta, K, family, alpha, u, v):
    schedule = FAMILIES[family](alpha, u, v, K)
    return relaxed_recursion_transform(PLParams(*params), delta, schedule, K)


def steps(family, alpha, u, v, K):
    return step_sum(FAMILIES[family](alpha, u, v, K), K)


def bound(params, a0, k, variant):
    return classical_bound(ClassicalParams(*params), a0, k, variant)


def spec(params, horizon, decay):
    return classical_spec(ClassicalParams(*params), horizon, decay)


# the constants of sgd_constants and rr_constants (N = 2)
METHOD = st.tuples(
    st.sampled_from(["sgd", "rr"]), THETA, real(1.0), real(1.0), real(0.5), real(1.0)
)
HORIZON = st.one_of(st.integers(1, 64), st.sampled_from([10**6, 10**18, 10**400]))


def method_constants(method, theta, L, mu, A, sigma):
    if method == "sgd":
        return sgd_constants(theta, L, mu, A, sigma)
    return rr_constants(theta, L, mu, A, sigma, 2)


def evaluate(method, family, alpha, u, v, K, y0, tuned, case):
    """The family's bound evaluator; a tuned polynomial decays at rho."""
    mc = method_constants(*method)
    if family == "polynomial" and tuned:
        v, case = mc.derived.rho, "auto"
    schedule = FAMILIES[family](alpha, u, v, K)
    if family == "exponential":
        return bound_exp(mc, schedule, y0)
    if family == "cosine":
        return bound_cos(mc, schedule, y0, tuned=tuned)
    if family == "constant":
        return bound_const(mc, schedule, y0, K, tuned=tuned)
    return bound_poly(mc, schedule, y0, K, case=case, tuned=tuned)


def offset(params, alpha, K, gamma):
    return offset_admissible(PLParams(*params), alpha, K, gamma)


def least_offset(params, alpha, K):
    return smallest_offset(PLParams(*params), alpha, K)


def floors(method, alpha, p, K, level_case, offset_case):
    mc = method_constants(*method)
    exp_horizon_floor(mc, alpha, p, K)
    poly_alpha_floor(mc.params, mc.derived, level_case, p)
    poly_gamma_floor(mc.params, mc.derived, offset_case, alpha, p)


# each call with a strategy for its arguments
LIMIT_CALLS = [
    (coefficients_and_constants, st.tuples(
        st.sampled_from(["sgd", "rr"]), real(1.0), real(1.0), real(0.5), real(1.0), THETA,
        real(1.0),
    )),
    (constants, st.tuples(PARAMS, real(1.0))),
    (transform, st.tuples(
        PARAMS, real(1.0), st.integers(1, 64), st.sampled_from(sorted(FAMILIES)),
        real(0.01, 1e-110), real(0.5, 1.0), real(1.0),
    )),
    (make_power_family, st.tuples(THETA, real(1.0), real(1.0))),
    (noise_free_bound, st.tuples(THETA, real(1.0), real(1.0), real(0.0, 1.0))),
    (steps, st.tuples(
        st.sampled_from(sorted(FAMILIES)), real(0.01, 1e308), real(0.5, 1.0), real(0.5, 1.0),
        st.integers(1, 64),
    )),
    (bound, st.tuples(
        CLASSICAL, real(1.0), st.integers(0, 64), st.sampled_from(["standard", "sigma"])
    )),
    (spec, st.tuples(
        CLASSICAL, st.integers(1, 64), st.sampled_from(["direct", "integral"])
    )),
    (evaluate, st.tuples(
        METHOD, st.sampled_from(sorted(FAMILIES)), real(0.01, 1e-110), real(1.0, 4.0),
        real(0.5, 1.0, 2.0), HORIZON, real(1.0), st.booleans(), st.sampled_from("abcd"),
    )),
    (floors, st.tuples(
        METHOD, real(0.01, 1e-300), real(0.5, 1.0), HORIZON, st.sampled_from("bcd"),
        st.sampled_from("ac"),
    )),
    (offset, st.tuples(PARAMS, real(0.1, 100.0), HORIZON, real(10.0, 1e6))),
    (least_offset, st.tuples(PARAMS, real(0.1, 100.0), HORIZON)),
]


# no max_examples: CI fuzzes it under the fuzz profile; no explain phase,
# which takes minutes over twelve calls
@pytest.mark.fuzz
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])
@given(st.tuples(*(args for _, args in LIMIT_CALLS)))
def test_powers_past_the_floats_end_in_their_limit_or_a_named_error(cases):
    """Extreme floats in the arguments of the calls that build constants and
    specs from powers, of the bound evaluators and their floors, of the
    case-d offset test, of the noise-free descent envelope and of the step
    sums: each returns, or raises ValueError (PreconditionError included) or
    NumericFailure, and never a raw ArithmeticError."""
    for (call, _), args in zip(LIMIT_CALLS, cases):
        try:
            call(*args)
        except (ValueError, NumericFailure):
            pass


# The constant and polynomial rules as they were stated before the constant
# family became the exponential rule at g = 1, each in its own branch.
def separate_polynomial_step(alpha, gamma, p, k):
    try:
        return alpha / (k + gamma) ** p
    except OverflowError:  # (k + gamma)^p passes the floats
        return 0.0


def separate_lane_steps(columns, k, n, out):
    """schedules._lane_steps on constant and polynomial lanes, each rule apart."""
    for family, where, constants in columns:
        m = int(np.searchsorted(where, n))
        if not m:
            continue
        if family is Constant:
            steps = constants[0, :m]
        else:
            alpha, gamma, p = constants[:, :m]
            steps = k + gamma
            np.power(steps, p, out=steps)
            np.divide(alpha, steps, out=steps)
        out[:, where[:m]] = steps


def separate_constant_spec(params, delta, alpha, K):
    """relaxed_recursion_transform's flat-ratio spec of Constant(alpha)."""
    d = derive_constants(params, delta)
    plbounds._capped("largest step", alpha, d.alpha_cap)
    inv_rho, noise = 1.0 / d.rho, 2.0 * d.zeta * d.xi
    err_coef = 1.0 / noise if noise else math.inf
    scale = 2.0 * d.zeta * _power(alpha, d.q)
    return RecursionSpec(
        s=FunctionDescriptor(fn=lambda x: _power(alpha, -inv_rho) / d.xi),
        t=FunctionDescriptor(fn=lambda x: err_coef * _power(alpha, -params.tau)),
        b=float,
        interval=(0.0, float(K)),
        horizon=K,
        ratio=FunctionDescriptor(fn=lambda x: scale, derivative=lambda x: 0.0),
    )


def spec_outcome(build):
    """A spec's grid and lambda certificate as repr, or its ValueError."""
    try:
        spec = build()
    except ValueError as exc:
        return type(exc), str(exc)
    return repr(spec.grid), repr(find_lambda_constant(spec))


ANY_STEP = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-200, 1e-30, 0.5, 1.0, 3.0, 1e30, 1e200, 1.7e308]),
    st.floats(5e-324, 1.7e308),
)


FLAT_OR_POLYNOMIAL_LANES = st.lists(
    st.tuples(
        RECURSION_PARAMS,
        st.one_of(
            st.builds(Constant, st.one_of(ANY_STEP, STEP)),
            st.builds(Polynomial, STEP, st.floats(0.5, 16.0), POWER),
        ),
        st.sampled_from([0.0, 0.5, 1.0, 1e300]),
        st.integers(1, 48),
    ),
    min_size=1,
    max_size=6,
)


# no max_examples: CI fuzzes it under the fuzz profile
@pytest.mark.fuzz
@given(st.data())
def test_constant_and_polynomial_steps_keep_the_bits_of_their_separate_rules(data):
    """Every query of a constant or polynomial step, the lane batch and the
    constant transform give, bit for bit, what the rules stated apart give."""
    alpha = data.draw(ANY_STEP)
    constant = Constant(alpha)
    K = data.draw(st.integers(1, 2**12))
    assert step_values(constant, K) == [alpha] * K
    assert step_max(constant, K).hex() == alpha.hex()
    assert step_value(constant, data.draw(st.integers(0, 2**40))).hex() == alpha.hex()
    K_sum = data.draw(st.integers(1, 2**40))
    assert step_sum(constant, K_sum).hex() == (alpha * K_sum).hex()

    try:
        poly = Polynomial(alpha, data.draw(ANY_STEP), data.draw(ANY_STEP))
    except ValueError:  # alpha/gamma^p passes the floats
        poly = Polynomial(1.0, 1.0, 1.0)
    # an index past the floats raises OverflowError in k + gamma, as a power does
    k = data.draw(st.one_of(st.sampled_from([0, 2**40, 10**308, 10**400]), st.integers(0, 2**40)))
    expected = separate_polynomial_step(poly.alpha, poly.gamma, poly.p, k)
    assert step_value(poly, k).hex() == expected.hex()

    lanes = data.draw(FLAT_OR_POLYNOMIAL_LANES)
    batch = [a.tobytes() for a in simulate_pl_lanes(lanes)]
    with mock.patch.object(plbounds, "_lane_steps", separate_lane_steps):
        assert [a.tobytes() for a in simulate_pl_lanes(lanes)] == batch

    # alpha, or the cap where alpha exceeds it, so most transforms succeed
    params = data.draw(RECURSION_PARAMS)
    delta, K = data.draw(st.floats(0.1, 4.0)), data.draw(st.integers(1, 48))
    a = min(alpha, derive_constants(params, delta).alpha_cap)
    assert spec_outcome(
        lambda: relaxed_recursion_transform(params, delta, Constant(a), K)
    ) == spec_outcome(lambda: separate_constant_spec(params, delta, a, K))
