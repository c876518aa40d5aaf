"""Tests for the damped-recursion bounds and their supporting checks."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from steprates import recursions, verify
from steprates.plbounds import relaxed_recursion_transform, rr_constants, sgd_constants
from steprates.recursions import (
    CertifiedLambda,
    ClassicalParams,
    FunctionDescriptor,
    PreconditionError,
    RecursionSpec,
    classical_bound,
    classical_lambda,
    classical_spec,
    expansion_bound,
    extend_bound,
    find_lambda_constant,
    forgetting_bound,
    forgetting_factor,
    general_bound,
    iterate_recursion_exact,
)
from steprates.schedules import Constant, Cosine, Exponential, Polynomial
from steprates.verify import recursion_convexity, tech_inequality_suite


def dyadic_spec(K: int = 16) -> RecursionSpec:
    return RecursionSpec(
        s=FunctionDescriptor(fn=lambda x: 2.0, label="s=2"),
        t=FunctionDescriptor(fn=lambda x: 4.0, label="t=4"),
        b=float,
        interval=(0.0, float(K)),
        horizon=K,
        ratio=FunctionDescriptor(fn=lambda x: 0.5, derivative=lambda x: 0.0, label="1/2"),
    )


def test_exact_iterates_dyadic():
    assert iterate_recursion_exact(dyadic_spec(), 1.0, 3) == [1.0, 0.75, 0.625, 0.5625]


def test_expansion_matches_double_loop_oracle():
    spec = dyadic_spec()
    assert expansion_bound(spec, 1.0, 2) == pytest.approx(0.625, rel=1e-15)
    assert expansion_bound(spec, 0.0, 2) == pytest.approx(0.375, rel=1e-15)


def test_expansion_equals_iteration_on_random_specs():
    rng = np.random.default_rng(11)
    for _ in range(25):
        c = float(rng.uniform(0.5, 2.5))
        gamma = c + float(rng.uniform(0.5, 5.0))
        params = ClassicalParams(
            c=c, d=float(rng.uniform(0.2, 4.0)), nu=1.0,
            q=c * float(rng.uniform(0.1, 0.8)), gamma=gamma,
        )
        K = int(rng.integers(2, 200))
        spec = classical_spec(params, K)
        a0 = float(rng.uniform(0.0, 3.0))
        assert expansion_bound(spec, a0, K) == pytest.approx(
            iterate_recursion_exact(spec, a0, K)[K], rel=1e-10
        )


def test_lambda_certificate_dyadic():
    spec = dyadic_spec(K=32)
    cert = find_lambda_constant(spec)
    assert cert.lam == 1.0
    assert cert.certified_horizon == 32
    assert cert.condition_margin == 0.0


def test_lambda_certificate_of_no_step():
    # the slope term (b_1 - b_0) r'(b_0) t = -10 * 4 fails at k = 0, with or without a target
    ratio = FunctionDescriptor(fn=lambda x: 0.5, derivative=lambda x: -10.0, label="falling")
    spec = dataclasses.replace(dyadic_spec(), ratio=ratio)
    assert find_lambda_constant(spec) == CertifiedLambda(math.inf, 0, -math.inf)
    assert find_lambda_constant(spec, 1.0) == CertifiedLambda(1.0, 0, -math.inf)


def test_a_spec_needs_its_ratio():
    with pytest.raises(TypeError, match="ratio"):
        RecursionSpec(
            s=FunctionDescriptor(fn=lambda x: 2.0),
            t=FunctionDescriptor(fn=lambda x: 4.0),
            b=float,
            interval=(0.0, 4.0),
            horizon=4,
        )
    with pytest.raises(TypeError, match="RecursionSpec needs ratio"):
        dataclasses.replace(dyadic_spec(), ratio=None)


def test_a_certificate_needs_the_ratios_analytic_derivative():
    ratio = FunctionDescriptor(fn=lambda x: 0.5, label="1/2")
    spec = dataclasses.replace(dyadic_spec(), ratio=ratio)
    assert recursion_convexity(spec).passed  # r alone serves every other evaluator
    for target in (None, 2.0):
        with pytest.raises(ValueError, match="function '1/2' has no analytic derivative"):
            find_lambda_constant(spec, target)


@pytest.mark.parametrize("slack, certified", [(-0.9, 32), (-1.1, 0)])
def test_a_target_lambda_is_certified_to_the_one_tolerance(slack, certified):
    # slope term 1 * r' * 4 = slack * SLOPE_TOL against the threshold 0 of lambda = 1
    derivative = slack * recursions.SLOPE_TOL / 4.0
    ratio = FunctionDescriptor(fn=lambda x: 0.5, derivative=lambda x: derivative)
    spec = dataclasses.replace(dyadic_spec(K=32), ratio=ratio)
    assert find_lambda_constant(spec, 1.0).certified_horizon == certified


def test_a_nan_slope_term_ends_the_certified_run():
    # r' is NaN from b_5 on; with a target, the NaN gaps were certified and
    # the margin passed over them
    ratio = FunctionDescriptor(fn=lambda x: 0.5, derivative=lambda x: math.nan if x >= 5 else 0.0)
    spec = dataclasses.replace(dyadic_spec(), ratio=ratio)
    assert find_lambda_constant(spec) == CertifiedLambda(1.0, 5, 0.0)
    assert find_lambda_constant(spec, 2.0) == CertifiedLambda(2.0, 5, 0.5)


def test_general_bound_dyadic_values_and_tightness():
    spec = dyadic_spec()
    cert = find_lambda_constant(spec)
    assert general_bound(spec, cert, 1.0, 0) == pytest.approx(0.75, rel=1e-15)
    assert general_bound(spec, cert, 1.0, 1) == pytest.approx(0.625, rel=1e-15)
    exact = iterate_recursion_exact(spec, 1.0, 16)
    for k in range(16):
        assert general_bound(spec, cert, 1.0, k) == pytest.approx(
            exact[k + 1], rel=1e-12
        )


def test_general_bound_second_term_vanishes_at_fixed_point():
    spec = dyadic_spec()
    cert = find_lambda_constant(spec)
    a0 = cert.lam * spec.r(spec.b(0))
    for k in (0, 3, 9):
        assert general_bound(spec, cert, a0, k) == cert.lam * spec.r(spec.b(k + 1))


def test_general_bound_rejects_uncertified_index():
    spec = dyadic_spec(K=8)
    cert = find_lambda_constant(spec)
    with pytest.raises(PreconditionError):
        general_bound(spec, cert, 1.0, 8)


def test_classical_lambda_values():
    assert classical_lambda(
        ClassicalParams(c=1.0, d=1.0, nu=0.5, q=0.25, gamma=4.0)
    ) == pytest.approx(8.0 / 7.0, rel=1e-15)
    assert classical_lambda(
        ClassicalParams(c=2.0, d=1.0, nu=1.0, q=1.0, gamma=2.0)
    ) == pytest.approx(2.0, rel=1e-15)
    with pytest.raises(PreconditionError):
        classical_lambda(ClassicalParams(c=1.0, d=1.0, nu=1.0, q=1.5, gamma=3.0))


def test_classical_bound_nu1_examples():
    params = ClassicalParams(c=2.0, d=1.0, nu=1.0, q=1.0, gamma=2.0)
    assert classical_bound(params, 0.0, 0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert classical_bound(params, 2.0, 0) == pytest.approx(1.0, rel=1e-15)


def test_classical_bound_nu_below_one_oracle():
    params = ClassicalParams(c=1.0, d=1.0, nu=0.5, q=0.25, gamma=4.0)
    assert classical_bound(params, 2.0, 3) == pytest.approx(
        0.90688340360344081, rel=1e-15
    )


def test_classical_bound_sigma_variant_oracle():
    params = ClassicalParams(c=1.0, d=1.0, nu=0.5, q=0.25, gamma=4.0, varsigma=1.0)
    assert classical_bound(params, 2.0, 3, variant="sigma") == pytest.approx(
        1.478972593541593, rel=1e-14
    )


def test_classical_bound_invariant_violations():
    with pytest.raises(PreconditionError):
        # gamma below c^(1/nu)
        classical_bound(ClassicalParams(c=2.0, d=1.0, nu=0.5, q=0.25, gamma=1.0), 1.0, 0)
    with pytest.raises(PreconditionError):
        # nu = 1 needs c > q
        classical_bound(ClassicalParams(c=1.0, d=1.0, nu=1.0, q=1.5, gamma=3.0), 1.0, 0)
    with pytest.raises(PreconditionError):
        # sigma variant is for nu < 1 only
        classical_bound(
            ClassicalParams(c=2.0, d=1.0, nu=1.0, q=1.0, gamma=2.0, varsigma=1.0),
            1.0, 0, variant="sigma",
        )


@pytest.mark.parametrize(
    "params, variant",
    [
        (ClassicalParams(c=0.5, d=1.0, nu=0.5, q=2.0, gamma=1e155), "standard"),
        (ClassicalParams(c=0.5, d=1.0, nu=0.5, q=2.0, gamma=1e155, varsigma=1.0), "sigma"),
        (ClassicalParams(c=3.0, d=1.0, nu=1.0, q=2.0, gamma=1e155), "standard"),
    ],
    ids=["nu-below-one", "sigma", "nu-one"],
)
def test_classical_bound_start_term_past_the_floats_is_its_limit(params, variant):
    """gamma^q overflows at gamma = 1e155, q = 2: float ** raised OverflowError."""
    bound = classical_bound(params, 1.0, 8, variant=variant)
    assert bound == 1.0
    below = dataclasses.replace(params, gamma=1e154)
    assert bound == classical_bound(below, 1.0, 8, variant=variant)


@pytest.mark.parametrize(
    "params, variant",
    [
        (ClassicalParams(c=2.0, d=1.0, nu=1e-300, q=1.0, gamma=3.0), "standard"),
        (ClassicalParams(c=0.5, d=1.0, nu=0.999999, q=0.6, gamma=3.0), "standard"),
        (ClassicalParams(c=0.5, d=1.0, nu=0.999999, q=0.6, gamma=3.0, varsigma=1.0), "sigma"),
        (ClassicalParams(c=1.0, d=1.0, nu=0.5, q=1000.0, gamma=3.0), "spec"),
    ],
    ids=["c^(1|nu)", "(q|c)^(1|(1-nu))", "sigma-floor", "spec-t"],
)
def test_classical_powers_past_the_floats_are_inf(params, variant):
    """float ** raised OverflowError: a floor on gamma past the floats now
    fails its precondition as inf, and a t past them gives the error term 0."""
    if variant == "spec":
        grid = classical_spec(params, 4).grid
        assert grid.t == (math.inf,) * 5 and grid.error == (0.0,) * 5
    else:
        with pytest.raises(PreconditionError, match=r"got 3\.0 <=? inf$"):
            classical_bound(params, 1.0, 3, variant=variant)


def test_classical_integral_factor_that_rounds_to_one_gives_s_its_limit():
    """At gamma = 1e16 the integral-test factor rounds to 1.0 at every grid
    point, where s = 1/(1 - factor) raised ZeroDivisionError; s is now inf."""
    params = ClassicalParams(c=1.0, d=1.0, nu=0.5, q=1.0, gamma=1e16)
    grid = classical_spec(params, 4, decay="integral").grid
    assert grid.s == (math.inf,) * 5 and grid.contraction == (1.0,) * 5


def test_classical_sigma_coefficient_that_divides_by_zero_names_its_constants():
    params = ClassicalParams(c=0.5, d=1.0, nu=0.5, q=1.0, gamma=8.0, varsigma=5e-324)
    message = r"^varsigma\*c underflows to 0\.0 for varsigma = 5e-324, c = 0\.5$"
    with pytest.raises(ValueError, match=message):
        classical_bound(params, 1.0, 3, variant="sigma")


def test_classical_general_bounds_agree_at_line_example():
    """Both routes give d/(c-q)(k+1+gamma)^(-q) = 1/3 when a0 = 0."""
    params = ClassicalParams(c=2.0, d=1.0, nu=1.0, q=1.0, gamma=2.0)
    spec = classical_spec(params, 8)
    cert = find_lambda_constant(spec, lambda_target=classical_lambda(params))
    assert cert.certified_horizon == 8
    assert general_bound(spec, cert, 0.0, 0) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert iterate_recursion_exact(spec, 0.0, 1)[1] == pytest.approx(0.25, rel=1e-14)


def test_certified_lambda_never_reports_a_negative_margin():
    """lam = max 1/(1+h) and min(h + 1 - 1/lam) round apart: a spec read
    a margin of -1.1e-16 on a certificate covering all 64 steps."""
    spec = classical_spec(ClassicalParams(c=1.5, d=2.0, nu=0.7, q=0.6, gamma=6.0), 64)
    cert = find_lambda_constant(spec)
    assert cert.certified_horizon == 64
    assert cert.condition_margin == 0.0
    rng = np.random.default_rng(3)
    for _ in range(40):
        spec = classical_spec(_classical_draw(rng), int(rng.integers(2, 80)))
        cert = find_lambda_constant(spec)
        if cert.certified_horizon:
            assert cert.condition_margin >= 0.0


def _classical_draw(rng) -> ClassicalParams:
    if rng.uniform() < 0.4:
        c = float(rng.uniform(0.5, 2.5))
        return ClassicalParams(
            c=c, d=float(rng.uniform(0.2, 4.0)), nu=1.0,
            q=c * float(rng.uniform(0.1, 0.8)), gamma=c + float(rng.uniform(0.1, 6.0)),
        )
    nu = float(rng.uniform(0.3, 0.95))
    c = float(rng.uniform(0.5, 2.5))
    q = float(rng.uniform(0.2, 1.5))
    gamma = max(c ** (1.0 / nu), (q / c) ** (1.0 / (1.0 - nu))) * (
        1.0 + float(rng.uniform(0.05, 2.0))
    )
    return ClassicalParams(c=c, d=float(rng.uniform(0.2, 4.0)), nu=nu, q=q, gamma=gamma)


def test_classical_bound_equals_general_bound_on_integral_spec():
    """The closed form and the certified product route agree to 1e-10."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        params = _classical_draw(rng)
        K = int(rng.integers(3, 60))
        lam = classical_lambda(params)
        spec = classical_spec(params, K, decay="integral")
        cert = find_lambda_constant(spec, lambda_target=lam)
        assert cert.certified_horizon == K
        a0 = lam * spec.r(spec.b(0)) * (1.0 + float(rng.uniform(0.0, 2.0)))
        for k in range(K):
            lhs = general_bound(spec, cert, a0, k)
            rhs = classical_bound(params, a0, k)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_classical_bound_dominates_direct_spec_chain():
    """closed form >= certified bound >= exact iterate, per draw and index."""
    rng = np.random.default_rng(7)
    for _ in range(40):
        params = _classical_draw(rng)
        K = int(rng.integers(3, 60))
        lam = classical_lambda(params)
        spec = classical_spec(params, K)
        cert = find_lambda_constant(spec, lambda_target=lam)
        assert cert.certified_horizon == K
        a0 = float(rng.uniform(0.0, 3.0))
        exact = iterate_recursion_exact(spec, a0, K)
        for k in range(K):
            mid = general_bound(spec, cert, a0, k)
            assert mid >= exact[k + 1] * (1 - 1e-10) - 1e-14
            assert classical_bound(params, a0, k) >= mid * (1 - 1e-10) - 1e-14


def test_extend_bound_examples():
    spec = dyadic_spec()
    assert extend_bound(spec, 0.5, 0.5, 0, 0, 3) == pytest.approx(0.5625, rel=1e-15)
    assert extend_bound(spec, 0.5, 0.0, 0, 2, 9) == 0.5
    # K_bar = K-1 leaves the bound unchanged
    base = 0.5 + 0.5 * 0.5**4
    assert extend_bound(spec, 0.5, 0.5, 0, 3, 4) == pytest.approx(base, rel=1e-15)


def test_extend_bound_rejects_small_B():
    spec = dyadic_spec()
    with pytest.raises(PreconditionError):
        extend_bound(spec, 0.4, 0.5, 0, 0, 3)  # r = 0.5 > B on the tail


def test_extend_bound_dominates_forward_iteration():
    rng = np.random.default_rng(13)
    for _ in range(20):
        params = _classical_draw(rng)
        K = int(rng.integers(6, 50))
        lam = classical_lambda(params)
        spec = classical_spec(params, K)
        cert = find_lambda_constant(spec, lambda_target=lam)
        a0 = float(rng.uniform(0.0, 3.0))
        exact = iterate_recursion_exact(spec, a0, K)
        mid = K // 2
        B = lam * spec.r(spec.b(mid + 1))
        C = a0 - lam * spec.r(spec.b(0))
        assert extend_bound(spec, B, C, 0, mid, K) >= exact[K] * (1 - 1e-10) - 1e-14


def test_forgetting_factor_values():
    spec = dyadic_spec()
    assert forgetting_factor(spec, 1.0, 2) == pytest.approx(0.125, rel=1e-15)
    assert forgetting_factor(spec, 1.0, -1) == 1.0
    assert forgetting_factor(spec, 1e12, 5) == pytest.approx(1.0, rel=1e-9)


def test_forgetting_factor_names_the_s_that_divides_by_zero():
    # s - 1 + 1/lam = 0 at s(b_2) = 1 for lam = inf; the factor is defined up to k = 1
    spec = dataclasses.replace(dyadic_spec(4), s=FunctionDescriptor(fn=lambda x: 1.0 + (x != 2)))
    assert forgetting_factor(spec, math.inf, 1) == 1.0
    message = "s(b_2) - 1 + 1/lam is 0 for s(b_2) = 1.0, lam = inf"
    for k in (2, 3):
        with pytest.raises(ValueError) as info:
            forgetting_factor(spec, math.inf, k)
        assert str(info.value) == message


def test_forgetting_bound_dominates_general_bound():
    rng = np.random.default_rng(17)
    for _ in range(20):
        params = _classical_draw(rng)
        K = int(rng.integers(3, 40))
        spec = classical_spec(params, K)
        cert = find_lambda_constant(spec, lambda_target=classical_lambda(params))
        a0 = float(rng.uniform(0.0, 3.0))
        for k in range(K):
            fb = forgetting_bound(spec, cert, a0, k)
            gb = general_bound(spec, cert, a0, k)
            assert fb >= gb * (1 - 1e-10) - 1e-14


def ratio_spec(fn, lo: float, hi: float, K: int = 128) -> RecursionSpec:
    """A spec whose ratio is fn, on K equal steps from lo to hi."""
    return RecursionSpec(
        s=FunctionDescriptor(fn=lambda x: 2.0),
        t=FunctionDescriptor(fn=lambda x: 4.0),
        b=lambda k: lo + (hi - lo) * k / K,
        interval=(lo, hi),
        horizon=K,
        ratio=FunctionDescriptor(fn=fn),
    )


def test_recursion_convexity_affine_and_power():
    for result in (
        recursion_convexity(ratio_spec(lambda x: 3.0 * x - 1.0, 0.0, 10.0)),
        recursion_convexity(ratio_spec(lambda x: 2.0 * x**-0.5, 1.0, 500.0)),
    ):
        assert result.check == "ratio-convex"
        assert result.passed and result.margin >= -1e-9
        assert result.witness_index is None


def test_recursion_convexity_cosine_witness_in_concave_half():
    K = 10.0
    result = recursion_convexity(ratio_spec(lambda x: 1.0 + math.cos(x * math.pi / K), 0.0, K))
    assert not result.passed
    # the bump is concave on [0, K/2]; the witness is the first failing point
    assert 0.0 < result.witness_value <= K / 2.0
    assert result.witness_value == K / 1024.0
    assert result.margin < -1e-9


def test_recursion_convexity_concave_ratio_fails_at_its_first_point():
    spec = ratio_spec(math.sqrt, 1.0, 9.0, K=8)
    result = recursion_convexity(spec)
    assert not result.passed
    assert (result.witness_index, result.witness_value) == ("x=1.125", 1.125)
    # the margin is the least relative chord slack over the refined points
    xs = [1.0 + j / 8.0 for j in range(65)]
    slacks = [
        ((math.sqrt(a) + math.sqrt(c)) / 2.0 - math.sqrt(b)) / math.sqrt(c)
        for a, b, c in zip(xs, xs[1:], xs[2:])
    ]
    assert result.margin == pytest.approx(min(slacks), rel=1e-6)


def test_recursion_convexity_holds_a_tiny_ratio_to_its_own_scale():
    # the slack of 1e-20*sqrt(x) is 1e-20 times that of sqrt(x): far below an
    # absolute floor of 1e-9, but the same fraction of the ratio's size
    tiny = recursion_convexity(ratio_spec(lambda x: 1e-20 * math.sqrt(x), 1.0, 9.0, K=8))
    unit = recursion_convexity(ratio_spec(math.sqrt, 1.0, 9.0, K=8))
    assert not tiny.passed
    assert (tiny.witness_index, tiny.witness_value) == ("x=1.125", 1.125)
    assert tiny.margin == pytest.approx(unit.margin, rel=1e-12)
    assert recursion_convexity(ratio_spec(lambda x: 0.0, 1.0, 9.0, K=8)).margin == 0.0


def test_recursion_convexity_fails_a_ratio_nan_between_grid_points():
    # 1/2 at every b_k, so the spec builds; NaN at every refined point
    spec = ratio_spec(lambda x: 0.5 if float(x).is_integer() else math.nan, 0.0, 16.0, K=16)
    result = recursion_convexity(spec)
    assert not result.passed
    assert math.isnan(result.margin)
    assert (result.witness_index, result.witness_value) == (None, None)


def test_recursion_convexity_on_specs():
    assert recursion_convexity(dyadic_spec()).passed
    params = ClassicalParams(c=1.0, d=1.0, nu=0.5, q=0.25, gamma=4.0)
    assert recursion_convexity(classical_spec(params, 32)).passed


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-3.0, 3.0),
    st.floats(0.1, 2.0),
    st.floats(0.0, 1e-6),
    st.integers(2, 40),
)
def test_recursion_convexity_decides_as_the_chord_test(power, scale, wobble, K):
    """Pass or fail as the plain rule r - chord > 1e-9*max|r| at some point."""
    spec = ratio_spec(lambda x: scale * x**power + wobble * math.sin(40.0 * x), 1.0, 4.0, K=K)
    assert recursion_convexity(spec).passed == (oracles.convexity_violation(spec) is None)


def test_tech_inequality_suite_passes_exactly():
    report = tech_inequality_suite(512, [0.25, 0.5, 1.0, 1.5, 2.0, 3.0])
    assert report.passed
    names = {c.check for c in report.checks}
    assert "cosine-power-sum" in names
    assert "integral-sandwich" in names
    assert len(report.checks) == 9


def test_certified_lambda_is_plain_data():
    cert = CertifiedLambda(lam=2.0, certified_horizon=5, condition_margin=0.1)
    assert cert.lam == 2.0
    assert cert.certified_horizon == 5


# --- the cached spec grid and the streamed checks against their oracles -----


def bits(values):
    """Floats as hex strings, so that == compares them bit for bit."""
    if isinstance(values, float):
        return values.hex()
    return [bits(v) for v in values]


def bits_of_checks(checks):
    """CheckResult fields as tuples, floats as hex strings."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in check) for check in checks]


unit = st.floats(0.0, 1.0)


@st.composite
def flat_specs(draw, K):
    s0 = draw(st.floats(1.0, 50.0))
    t0 = draw(st.floats(0.01, 50.0))
    return RecursionSpec(
        s=FunctionDescriptor(fn=lambda x: s0),
        t=FunctionDescriptor(fn=lambda x: t0),
        b=float,
        interval=(0.0, float(K)),
        horizon=K,
        ratio=FunctionDescriptor(fn=lambda x: s0 / t0, derivative=lambda x: 0.0),
    )


@st.composite
def classical_specs(draw, K):
    c = 0.5 + 2.0 * draw(unit)
    d = 0.2 + 3.8 * draw(unit)
    if draw(st.booleans()):
        params = ClassicalParams(
            c=c, d=d, nu=1.0, q=c * (0.1 + 0.7 * draw(unit)), gamma=c + 0.1 + 6.0 * draw(unit)
        )
    else:
        nu = 0.3 + 0.65 * draw(unit)
        q = 0.2 + 1.3 * draw(unit)
        gamma = max(c ** (1.0 / nu), (q / c) ** (1.0 / (1.0 - nu))) * (1.05 + 2.0 * draw(unit))
        params = ClassicalParams(c=c, d=d, nu=nu, q=q, gamma=gamma)
    return classical_spec(params, K, decay=draw(st.sampled_from(["direct", "integral"])))


@st.composite
def relaxed_specs(draw, K):
    theta = 0.5 + 0.5 * draw(unit)
    mu = 0.3 + 0.7 * draw(unit)
    sigma = 0.1 + 0.9 * draw(unit)
    if draw(st.booleans()):
        mc, delta = sgd_constants(theta=theta, L=1.0, mu=mu, A=0.0, sigma=sigma), 1.0
    else:
        N = draw(st.integers(1, 5))
        mc = rr_constants(theta=theta, L=1.0, mu=mu, A=0.0, sigma=sigma, N=N)
        delta = N ** (-1.0 / (2.0 * theta))
    level = mc.derived.alpha_cap * (0.1 + 0.8 * draw(unit))
    schedule = draw(
        st.sampled_from(
            [
                Constant(alpha=level),
                Exponential(alpha=level, beta=min(1.0, K / 2.0), p=1.0, horizon=K),
                Polynomial(alpha=level, gamma=1.0 + 7.0 * draw(unit), p=0.3 + 0.7 * draw(unit)),
                Cosine(alpha=level, p=0.5 + 1.5 * draw(unit), horizon=K),
            ]
        )
    )
    return relaxed_recursion_transform(mc.params, delta, schedule, K)


@st.composite
def specs(draw):
    K = draw(st.integers(1, 300))
    family = draw(st.sampled_from([flat_specs, classical_specs, relaxed_specs]))
    return draw(family(K))


@settings(max_examples=60)
@given(specs(), st.data())
def test_spec_grid_matches_per_call_evaluation(spec, data):
    K = spec.horizon
    grid = spec.grid
    assert bits(grid.b) == bits([spec.b(k) for k in range(K + 1)])
    assert bits(grid.s) == bits([spec.s(x) for x in grid.b])
    assert bits(grid.t) == bits([spec.t(x) for x in grid.b])
    assert bits(grid.r) == bits([spec.r(x) for x in grid.b])
    pairs = [oracles.coefficients(spec, k) for k in range(K + 1)]
    assert bits(grid.contraction) == bits([c for c, _ in pairs])
    assert bits(grid.error) == bits([e for _, e in pairs])
    assert bits(recursions._slope_terms(spec)) == bits(oracles.recursion_slope_terms(spec))

    a0 = data.draw(st.floats(0.0, 10.0))
    for n in {1, data.draw(st.integers(1, K)), K}:
        assert bits(iterate_recursion_exact(spec, a0, n)) == bits(
            oracles.recursion_iterates(spec, a0, n)
        )
        assert bits(expansion_bound(spec, a0, n)) == bits(oracles.recursion_expansion(spec, a0, n))


@settings(max_examples=60)
@given(specs(), st.data())
def test_bounds_match_per_call_evaluation_at_every_k(spec, data):
    K = spec.horizon
    lam = data.draw(st.floats(1.0, 4.0))
    a0 = data.draw(st.floats(0.0, 10.0))
    cert = CertifiedLambda(lam=lam, certified_horizon=K, condition_margin=0.0)
    general = [general_bound(spec, cert, a0, k) for k in range(K)]
    assert bits(general) == bits(
        [oracles.recursion_general_bound(spec, lam, a0, k) for k in range(K)]
    )
    forgetting = [forgetting_bound(spec, cert, a0, k) for k in range(K)]
    assert bits(forgetting) == bits(
        [oracles.recursion_forgetting_bound(spec, lam, a0, k) for k in range(K)]
    )
    factors = [forgetting_factor(spec, lam, k) for k in range(-2, K)]
    assert bits(factors) == bits(
        [oracles.recursion_forgetting_factor(spec, lam, k) for k in range(-2, K)]
    )

    k0 = data.draw(st.integers(0, K))
    K_end = data.draw(st.integers(k0, K))
    K_certified = data.draw(st.integers(0, K))
    B = max(spec.grid.r) * data.draw(st.sampled_from([0.9, 1.0, 1.5]))
    expected = oracles.recursion_extension(spec, B, 0.7, k0, K_certified, K_end)
    if isinstance(expected, int):
        with pytest.raises(PreconditionError, match=rf"r\(b_{expected}\)"):
            extend_bound(spec, B, 0.7, k0, K_certified, K_end)
    else:
        assert bits(extend_bound(spec, B, 0.7, k0, K_certified, K_end)) == bits(expected)


def outcome(fn, *args):
    """fn's value as bits() gives it, or the message of the ValueError it raises."""
    try:
        return bits(fn(*args))
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80)
@given(
    st.lists(
        st.one_of(st.sampled_from([1.0, math.inf]), st.floats(1.0, 1e6)), min_size=2, max_size=60
    ),
    st.lists(
        st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-320, math.inf])),
        min_size=2,
        max_size=5,
    ),
    st.data(),
)
def test_forgetting_factor_equals_the_loop_at_every_k(s_values, lams, data):
    # s is infinite or exactly 1 at some grid points; a spec keeps the prefix
    # of its last lambda, and each lambda, in turn and again, is queried at
    # every k in a drawn order. 1/lam = 0 at s = 1 divides by zero: both
    # raise the same ValueError from that k on
    K = len(s_values) - 1
    spec = RecursionSpec(
        s=FunctionDescriptor(fn=lambda x: s_values[int(x)]),
        t=FunctionDescriptor(fn=lambda x: 2.0),
        b=float,
        interval=(0.0, float(K)),
        horizon=K,
        ratio=FunctionDescriptor(fn=lambda x: 0.5, derivative=lambda x: 0.0),
    )
    for lam in lams + lams[::-1]:
        ks = data.draw(st.permutations(range(-2, K)))
        got = [outcome(forgetting_factor, spec, lam, k) for k in ks]
        expected = [outcome(oracles.recursion_forgetting_factor, spec, lam, k) for k in ks]
        assert got == expected


def _counted(fn, counts, name):
    def wrapper(x):
        counts[name] += 1
        return fn(x)

    return wrapper


def test_coefficients_are_evaluated_once_at_construction():
    K = 40
    counts = dict.fromkeys(("s", "t", "b", "ratio", "derivative"), 0)
    ratio = FunctionDescriptor(
        fn=_counted(lambda x: 0.5 * (1.0 + x) ** -0.5, counts, "ratio"),
        derivative=_counted(lambda x: -0.25 * (1.0 + x) ** -1.5, counts, "derivative"),
    )
    spec = RecursionSpec(
        s=FunctionDescriptor(fn=_counted(lambda x: 1.0 + x, counts, "s")),
        t=FunctionDescriptor(fn=_counted(lambda x: 2.0 * (1.0 + x) ** 1.5, counts, "t")),
        b=_counted(float, counts, "b"),
        interval=(0.0, float(K)),
        horizon=K,
        ratio=ratio,
    )
    once = dict(s=K + 1, t=K + 1, b=K + 1, ratio=K + 1, derivative=0)
    assert counts == once

    cert = find_lambda_constant(spec)
    assert cert.certified_horizon == K
    find_lambda_constant(spec, lambda_target=cert.lam)
    assert counts.pop("derivative") == 2 * K
    once.pop("derivative")
    cert = CertifiedLambda(lam=1.5, certified_horizon=K, condition_margin=0.0)
    for k in range(K):
        general_bound(spec, cert, 1.0, k)
        forgetting_bound(spec, cert, 1.0, k)
        forgetting_factor(spec, 2.0, k)
    for n in range(1, K + 1):
        iterate_recursion_exact(spec, 1.0, n)
        expansion_bound(spec, 1.0, n)
    extend_bound(spec, max(spec.grid.r), 0.5, 3, 10, K)
    assert counts == once


def test_grid_is_read_only_and_kept_out_of_equality():
    spec = dyadic_spec(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.grid = None
    assert isinstance(spec.grid.r, tuple)
    assert spec.grid.decay == (1.0, 0.5, 0.25, 0.125, 0.0625)
    assert "grid" not in repr(spec)
    assert spec == dataclasses.replace(spec)


def test_extend_bound_rejects_negative_certified_horizon():
    with pytest.raises(ValueError, match="K_certified"):
        extend_bound(dyadic_spec(), 0.5, 0.5, 0, -1, 3)


CERTIFIED = CertifiedLambda(1.0, 16, 0.0)
CLASSICAL = ClassicalParams(c=1.0, d=1.0, nu=0.5, q=0.25, gamma=4.0)
# each callable that takes a start value a0, or extend_bound's B or C, as a
# function of that value, and the name its error starts with
START_CALLS = {
    "iterate_recursion_exact": (lambda v: iterate_recursion_exact(dyadic_spec(), v, 4), "a0"),
    "expansion_bound": (lambda v: expansion_bound(dyadic_spec(), v, 4), "a0"),
    "general_bound": (lambda v: general_bound(dyadic_spec(), CERTIFIED, v, 2), "a0"),
    "forgetting_bound": (lambda v: forgetting_bound(dyadic_spec(), CERTIFIED, v, 2), "a0"),
    "classical_bound": (lambda v: classical_bound(CLASSICAL, v, 2), "a0"),
    "extend_bound-B": (lambda v: extend_bound(dyadic_spec(), v, 0.5, 0, 0, 3), "B"),
    "extend_bound-C": (lambda v: extend_bound(dyadic_spec(), 0.5, v, 0, 0, 3), "C"),
    # both returned NaN: inf - inf, and inf times the product 0.5^1500 = 0.0
    "extend_bound-B-against-C": (
        lambda v: extend_bound(dyadic_spec(2000), v, -math.inf, 0, 0, 10),
        "B",
    ),
    "extend_bound-C-product-0": (
        lambda v: extend_bound(dyadic_spec(2000), 0.5, v, 0, 0, 1500),
        "C",
    ),
}
# a0 must be a nonnegative finite float; B and C any finite number
BAD_VALUES = {
    "a0": (math.nan, -1.0, -math.inf, math.inf),
    "B": (math.nan, math.inf, -math.inf),
    "C": (math.nan, math.inf, -math.inf),
}


@pytest.mark.parametrize(
    "name, value", [(name, v) for name, (_, f) in START_CALLS.items() for v in BAD_VALUES[f]]
)
def test_a_start_value_that_is_not_a_nonnegative_float_raises_naming_it(name, value):
    """a0 = NaN returned NaN, and so did a0 = inf wherever the start term was
    inf * 0.0; a negative a0 passed general_bound and forgetting_bound."""
    call, field = START_CALLS[name]
    with pytest.raises(ValueError, match=f"^{field} must be"):
        call(value)


class PerturbedMath:
    """The math module with some of its functions replaced."""

    def __init__(self, **replacements):
        self.__dict__.update(replacements)

    def __getattr__(self, name):
        return getattr(math, name)


PERTURBATIONS = {
    "cos-wobble": dict(cos=lambda x: math.cos(x) + 1e-3 * math.sin(3.0 * x)),
    "cos-low": dict(cos=lambda x: max(math.cos(x) - 1e-2, -1.0)),
    "cos-bent": dict(cos=lambda x: max(math.cos(x) - 0.1 * x * x, -1.0)),
    # row K = 3 of the shifted check starts with a NaN and holds its only negative margin
    "cos-nan-row-head": dict(
        cos=lambda x: (
            math.nan if x == math.pi / 3 else (-1.0 if x == 2 * math.pi / 3 else math.cos(x))
        )
    ),
    "cos-nan-tail": dict(cos=lambda x: math.nan if x > 3.0 else max(math.cos(x) - 1e-2, -1.0)),
    "cos-nan-mid-row": dict(cos=lambda x: math.nan if x == math.pi / 2 else math.cos(x)),
    "cos-high": dict(cos=lambda x: math.cos(x) + 1e-3),
    "log1p-high": dict(log1p=lambda x: math.log1p(x) + 1e-2 * abs(x)),
    "exp-low": dict(exp=lambda x: 0.5 * math.exp(x)),
    "exp-at-zero": dict(exp=lambda x: math.exp(x) - (1e-12 if x == 0.0 else 0.0)),
    "log-scaled": dict(log=lambda x: 1.2 * math.log(x)),
    "fsum-low": dict(fsum=lambda xs: 0.9 * math.fsum(xs)),
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_failing_checks_report_the_oracle_witness(name, monkeypatch):
    shim = PerturbedMath(**PERTURBATIONS[name])
    monkeypatch.setattr(verify, "math", shim)
    monkeypatch.setattr(oracles, "math", shim)
    r_grid = [0.25, 1.0, 3.0]
    for k_max in (2, 33):
        report = tech_inequality_suite(k_max, r_grid)
        got = [dataclasses.astuple(c) for c in report.checks]
        expected = oracles.inequality_suite(k_max, r_grid)
        assert bits_of_checks(got) == bits_of_checks(expected)
    assert not report.passed


@pytest.mark.parametrize("k_max", [2, 5, 64, 130])
def test_passing_checks_equal_the_oracle(k_max):
    r_grid = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
    got = [dataclasses.astuple(c) for c in tech_inequality_suite(k_max, r_grid).checks]
    assert bits_of_checks(got) == bits_of_checks(oracles.inequality_suite(k_max, r_grid))


def test_nan_margins_fail_without_a_witness(monkeypatch):
    monkeypatch.setattr(verify, "math", PerturbedMath(cos=lambda x: math.nan))
    checks = {c.check: c for c in tech_inequality_suite(8, [1.0]).checks}
    for name in ("cosine-lower-bracket", "cosine-shifted-lower", "cosine-power-sum"):
        assert not checks[name].passed
        assert math.isnan(checks[name].margin)
        assert checks[name].witness_index is None
    assert checks["log-upper-bound"].passed


def test_a_nan_mid_row_fails_without_a_witness(monkeypatch):
    # cos(pi/2) is NaN: mid-row in the brackets at K = 2, 4, 6, 8, a whole
    # later row of the increment and power-sum checks; every first row is finite
    cos = lambda x: math.nan if x == math.pi / 2 else math.cos(x)
    monkeypatch.setattr(verify, "math", PerturbedMath(cos=cos))
    checks = {c.check: c for c in tech_inequality_suite(8, [1.0]).checks}
    for name in (
        "cosine-lower-bracket",
        "cosine-upper-bracket",
        "cosine-increment-lower",
        "cosine-power-sum",
    ):
        assert not checks[name].passed, name
        assert math.isnan(checks[name].margin)
        assert (checks[name].witness_index, checks[name].witness_value) == (None, None)
    assert checks["log-upper-bound"].passed


def test_classical_spec_rejects_an_offset_that_absorbs_the_horizon():
    params = ClassicalParams(c=1.0, d=1.0, nu=0.5, q=0.5, gamma=1e18)
    with pytest.raises(ValueError, match="gamma \\+ horizon rounds to gamma in double precision"):
        classical_spec(params, 32)
    # 1e17 + 32 is still above 1e17
    assert classical_spec(dataclasses.replace(params, gamma=1e17), 32).interval[1] > 1e17
