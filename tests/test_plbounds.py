"""Tests for derived constants, the progress recursion, and the rate bounds."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import steprates.plbounds as plbounds
from steprates.plbounds import (
    NumericFailure,
    PLParams,
    bound_const,
    bound_cos,
    bound_exp,
    bound_poly,
    derive_constants,
    descent_coefficients,
    frak_p,
    relaxed_recursion_transform,
    rr_constants,
    sgd_constants,
    simulate_pl_grid,
    simulate_pl_recursion,
)
from steprates.recursions import (
    PreconditionError,
    find_lambda_constant,
    general_bound,
)
from steprates.schedules import Constant, Cosine, Exponential, Polynomial


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


def test_simulate_validates_inputs():
    params = PLParams(l1=0.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5)
    with pytest.raises(ValueError):
        simulate_pl_recursion(params, Constant(alpha=0.1), -1.0, 4)
    with pytest.raises(ValueError):
        simulate_pl_recursion(params, Constant(alpha=0.1), 1.0, 0)


def grid_outcome(run):
    """The values of a grid as float hex, or its first error as (type, message, index)."""
    try:
        return [v.hex() for v in run()]
    except (NumericFailure, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


STEP = st.floats(0.01, 3.0)
POWER = st.floats(0.2, 2.0)
# one builder K -> schedule per lane; an exponential lane with beta >= K
# makes its builder raise partway through the grid, and a polynomial lane
# with gamma = K has no horizon yet differs from K to K
BUILDERS = st.one_of(
    st.builds(lambda a: lambda K: Constant(alpha=a), STEP),
    st.builds(lambda s: lambda K: s, st.builds(Polynomial, STEP, st.floats(0.5, 16.0), POWER)),
    st.builds(lambda a, p: lambda K: Polynomial(alpha=a, gamma=float(K), p=p), STEP, POWER),
    st.builds(
        lambda a, b, p: lambda K: Exponential(alpha=a, beta=b, p=p, horizon=K),
        STEP,
        st.floats(0.5, 4.0),
        POWER,
    ),
    st.builds(lambda a, p: lambda K: Cosine(alpha=a, p=p, horizon=K), STEP, POWER),
)


@settings(max_examples=300)
@given(
    st.builds(
        PLParams,
        l1=st.floats(0.0, 2.0),
        l2=st.floats(0.1, 2.0),
        l3=st.floats(0.0, 2.0),
        tau=st.sampled_from([2.0, 3.0, 2.5]),
        theta=st.sampled_from([0.5, 1.0, 0.75, 2.0 / 3.0]),
    ),
    st.lists(BUILDERS, min_size=1, max_size=4),
    st.sampled_from([0.0, 0.5, 1.0, 1e100, 1e290, 1e300]),
    st.lists(st.integers(1, 48), min_size=1, max_size=6),
)
# inf from step 10 on: fine at K = 4 and 8, not finite at K = 16 and 12
@example(
    PLParams(l1=1.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5),
    [lambda K: Polynomial(alpha=1.0, gamma=4.0, p=1.0), lambda K: Constant(alpha=3.0)],
    1e300,
    [4, 8, 16, 12, 4],
)
# y = 16 after one step and negative after two: K = 1 passes, K = 3 fails
@example(
    PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=1.0),
    [lambda K: Cosine(alpha=0.5, p=1.0, horizon=K), lambda K: Constant(alpha=3.0)],
    1.0,
    [1, 3, 2],
)
# inf from step 1 and -inf at step 7: K = 4 fails as not finite, K = 8 as
# negative, so the run to the largest K does not give the first error
@example(
    PLParams(l1=1.0, l2=3.0, l3=0.0, tau=2.0, theta=0.5),
    [lambda K: Polynomial(alpha=40.0, gamma=10.0, p=1.0)],
    1e308,
    [4, 8],
)
# the constant lane fails only at K = 16, after the exponential lane's
# builder fails at K = 4
@example(
    PLParams(l1=1.0, l2=1.0, l3=0.0, tau=2.0, theta=0.5),
    [
        lambda K: Constant(alpha=3.0),
        lambda K: Exponential(alpha=0.5, beta=8.0, p=1.0, horizon=K),
    ],
    1e300,
    [4, 16],
)
# K = 0 fails after good cells, in the builder of the cosine lane
@example(
    PLParams(l1=0.0, l2=1.0, l3=1.0, tau=2.0, theta=0.75),
    [
        lambda K: Cosine(alpha=0.5, p=1.0, horizon=K),
        lambda K: Polynomial(alpha=0.5, gamma=1.0, p=0.5),
    ],
    1.0,
    [8, 0, 4],
)
def test_grid_equals_the_per_cell_runs(params, builders, y0, k_grid):
    """Values bitwise, or the same first error: type, message and index.

    Large y0 and steps drive lanes negative, past the range of doubles or to
    NaN partway through a grid that is unsorted and repeats K.
    """
    reference = grid_outcome(
        lambda: oracles.recursion_grid_per_cell(
            simulate_pl_recursion, params, builders, y0, k_grid
        )
    )
    assert grid_outcome(lambda: simulate_pl_grid(params, builders, y0, k_grid)) == reference


def test_grid_runs_each_horizon_free_lane_once(monkeypatch):
    calls = []

    def counted(params, schedule, y0, K):
        calls.append((type(schedule).__name__, K))
        return simulate_pl_recursion(params, schedule, y0, K)

    monkeypatch.setattr(plbounds, "simulate_pl_recursion", counted)
    params = PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=0.75)
    builders = [
        lambda K: Constant(alpha=0.1),
        lambda K: Polynomial(alpha=1.0, gamma=4.0, p=1.0),
        lambda K: Exponential(alpha=0.5, beta=1.0, p=1.0, horizon=K),
        lambda K: Cosine(alpha=0.2, p=1.0, horizon=K),
    ]
    k_grid = [64, 8, 32, 8, 16]
    finals = simulate_pl_grid(params, builders, 1.0, k_grid)
    assert len(finals) == len(k_grid) * len(builders)
    per_K = [(name, K) for K in k_grid for name in ("Exponential", "Cosine")]
    assert sorted(calls) == sorted([("Constant", 64), ("Polynomial", 64)] + per_K)


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
