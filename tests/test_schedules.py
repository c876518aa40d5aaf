"""Tests for the step-size families: values, aggregates, and cap checks."""
from __future__ import annotations

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from steprates.plbounds import _FINALS_BLOCK
from steprates.schedules import (
    Constant,
    Cosine,
    Exponential,
    Polynomial,
    _SHORT,
    _SUM_BLOCK,
    _lane_columns,
    _lane_steps,
    _steps,
    step_max,
    step_sum,
    step_value,
    step_values,
)


def test_constant_value_everywhere():
    sched = Constant(alpha=0.1)
    assert step_value(sched, 5) == 0.1
    assert step_value(sched, 0) == 0.1


def test_cosine_starts_at_alpha():
    assert step_value(Cosine(alpha=0.2, p=1.0, horizon=10), 0) == 0.2


def test_exponential_terminal_value_is_alpha_beta_over_K():
    sched = Exponential(alpha=1.0, beta=1.0, p=1.0, horizon=100)
    assert step_value(sched, 100) == pytest.approx(0.01, rel=1e-12)


def test_exponential_first_decayed_step():
    # (1/100)^(1/100) evaluated at 40 digits
    sched = Exponential(alpha=1.0, beta=1.0, p=1.0, horizon=100)
    assert step_value(sched, 1) == pytest.approx(0.95499258602143595, rel=1e-15)


def test_cosine_terminal_value_is_exact_zero():
    assert step_value(Cosine(alpha=0.7, p=1.3, horizon=17), 17) == 0.0


def test_step_max_examples():
    assert step_max(Polynomial(alpha=2.0, gamma=4.0, p=0.5), 50) == 1.0
    assert step_max(Constant(alpha=0.3), 10) == 0.3
    assert step_max(Exponential(alpha=0.7, beta=1.0, p=1.0, horizon=100), 100) == 0.7


def test_step_sum_constant():
    assert step_sum(Constant(alpha=0.5), 10) == 5.0


def test_step_sum_exponential_without_decay_is_flat():
    # g^k rounds to 1 (log g = -0.0), where the geometric sum would read 0/0
    assert step_sum(Exponential(alpha=1.0, beta=1.0, p=5e-324, horizon=2), 2) == 2.0


def test_step_sums_past_the_floats_are_inf():
    # fsum of the polynomial's steps raises OverflowError (intermediate overflow)
    for schedule in (
        Polynomial(alpha=1e308, gamma=1.0, p=0.5),
        Constant(alpha=1e308),
        Exponential(alpha=1e308, beta=1.0, p=1.0, horizon=8),
        Cosine(alpha=1.79e308, p=1.0, horizon=8),
    ):
        assert step_sum(schedule, 8) == math.inf


def test_step_sum_cosine_half_horizon_plus_half():
    assert step_sum(Cosine(alpha=1.0, p=1.0, horizon=10), 10) == pytest.approx(
        5.5, rel=1e-14
    )


def test_step_sum_exponential_matches_direct_loop():
    sched = Exponential(alpha=1.0, beta=1.0, p=1.0, horizon=100)
    direct = math.fsum(step_value(sched, k) for k in range(100))
    assert step_sum(sched, 100) == pytest.approx(direct, rel=1e-14)
    assert direct == pytest.approx(21.996375985332399, rel=1e-15)


def test_step_sum_closed_form_agrees_at_large_horizon():
    """Closed form vs compensated direct summation at K = 10^6."""
    K = 10**6
    exp = Exponential(alpha=0.9, beta=2.5, p=1.4, horizon=K)
    assert step_sum(exp, K) == pytest.approx(
        math.fsum(step_values(exp, K)), rel=1e-12
    )
    cos = Cosine(alpha=0.7, p=1.0, horizon=K)
    assert step_sum(cos, K) == pytest.approx(
        math.fsum(step_values(cos, K)), rel=1e-12
    )


@settings(max_examples=200)
@given(
    alpha=st.floats(1e-3, 10.0),
    p=st.one_of(st.just(1.0), st.floats(0.1, 3.0)),
    gamma=st.floats(0.1, 100.0),
    horizon=st.integers(1, 300),
    data=st.data(),
)
def test_step_sum_equals_the_per_step_fsum(alpha, p, gamma, horizon, data):
    """Bitwise, for the families summed term by term: polynomial, and cosine
    off its p = 1 full-horizon closed form, up to K = horizon + 1, whose last
    term is exactly 0.0."""
    K = data.draw(st.one_of(st.just(horizon + 1), st.integers(1, horizon + 1)))
    assume(not (p == 1.0 and K == horizon))
    for schedule in (
        Polynomial(alpha=alpha, gamma=gamma, p=p),
        Cosine(alpha=alpha, p=p, horizon=horizon),
    ):
        expected = oracles.step_sum_per_k(step_value, schedule, K)
        assert step_sum(schedule, K).hex() == expected.hex()
    if K == horizon + 1:
        assert step_value(schedule, horizon) == 0.0
        assert step_values(schedule, K)[-1] == 0.0


# each family's closed form as written before step_value and step_values
# shared one statement of it
CLOSED_FORMS = {
    Constant: lambda s, k: s.alpha,
    Polynomial: lambda s, k: s.alpha / (k + s.gamma) ** s.p,
    Exponential: lambda s, k: s.alpha * math.exp(k * s.log_decay),
    Cosine: lambda s, k: s.alpha * ((1.0 + math.cos(cosine_angle(k, s.horizon))) / 2.0) ** s.p,
}


def cosine_angle(k, K):
    """k*pi/K, or (k/K)*pi where k*pi passes the floats (an int k above 5.7e307)."""
    return k * math.pi / K if k * math.pi < math.inf else k / K * math.pi


def test_cosine_steps_near_the_largest_float_are_finite_and_end_at_zero():
    """k*pi passed the floats, and cos(inf) raised a bare math domain error."""
    schedule = Cosine(1.0, 1.0, 10**308)
    assert step_value(schedule, 10**308) == 0.0
    middle = step_value(schedule, 6 * 10**307)
    assert math.isfinite(middle) and middle == (1.0 + math.cos(0.6 * math.pi)) / 2.0
    assert step_values(Cosine(1.0, 1.0, 10**308), 3) == [1.0, 1.0, 1.0]


def test_step_values_matches_step_value_bitwise():
    cosine = Cosine(alpha=0.4, p=2.0, horizon=64)
    for sched in (
        Constant(alpha=0.3),
        Polynomial(alpha=1.5, gamma=3.0, p=0.8),
        Exponential(alpha=1.0, beta=2.0, p=1.1, horizon=64),
        cosine,
    ):
        for K in (1, 2, 64):
            values = step_values(sched, K)
            assert values == [step_value(sched, k) for k in range(K)]
            for k in (0, K - 1):
                assert values[k] == step_value(sched, k) == CLOSED_FORMS[type(sched)](sched, k)
    # K = horizon + 1 reaches k = K, where cos(K*pi/K) is exactly -1.0
    values = step_values(cosine, 65)
    assert values == [step_value(cosine, k) for k in range(65)]
    assert values[-1] == step_value(cosine, 64) == 0.0


@given(
    alpha=st.floats(0.01, 10.0),
    gamma=st.floats(0.1, 100.0),
    p=st.floats(0.05, 3.0),
    k=st.integers(0, 10_000),
)
def test_polynomial_steps_decrease(alpha, gamma, p, k):
    sched = Polynomial(alpha=alpha, gamma=gamma, p=p)
    assert step_value(sched, k + 1) <= step_value(sched, k)


@given(
    alpha=st.floats(0.01, 10.0),
    beta=st.floats(0.1, 30.0),
    p=st.floats(0.05, 3.0),
    K=st.integers(2, 4096),
    data=st.data(),
)
def test_exponential_steps_decrease_and_end_exactly(alpha, beta, p, K, data):
    if beta >= K:
        K = int(beta) + 2
    sched = Exponential(alpha=alpha, beta=beta, p=p, horizon=K)
    k = data.draw(st.integers(0, K - 1))
    assert step_value(sched, k + 1) <= step_value(sched, k) * (1 + 1e-12)
    assert step_value(sched, K) == pytest.approx(alpha * (beta / K) ** p, rel=1e-12)


@given(
    alpha=st.floats(0.01, 10.0),
    p=st.floats(0.05, 3.0),
    K=st.integers(2, 4096),
    data=st.data(),
)
def test_cosine_steps_decrease(alpha, p, K, data):
    sched = Cosine(alpha=alpha, p=p, horizon=K)
    k = data.draw(st.integers(0, K - 1))
    assert step_value(sched, k + 1) <= step_value(sched, k)


@settings(max_examples=25)
@given(r=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 3.0]), K=st.integers(2, 512))
def test_cosine_sum_floor(r, K):
    """The cosine power sum never falls below K/2^max(1, r)."""
    total = math.fsum(step_values(Cosine(alpha=1.0, p=r, horizon=K), K))
    assert total >= K / 2 ** max(1.0, r) * (1 - 1e-12)


@settings(max_examples=25)
@given(
    alpha=st.floats(0.05, 2.0),
    beta=st.floats(0.5, 8.0),
    p=st.floats(0.2, 2.0),
    K=st.integers(16, 2048),
)
def test_exponential_sum_floor(alpha, beta, p, K):
    if beta >= K / 2:
        K = int(2 * beta) + 2
    total = step_sum(Exponential(alpha=alpha, beta=beta, p=p, horizon=K), K)
    floor = alpha * (1 - (beta / K) ** p) / p * K / math.log(K / beta)
    assert total >= floor * (1 - 1e-12)


def test_invalid_parameters_are_unconstructible():
    with pytest.raises(ValueError):
        Constant(alpha=0.0)
    with pytest.raises(ValueError):
        Polynomial(alpha=1.0, gamma=-1.0, p=1.0)
    with pytest.raises(ValueError):
        Exponential(alpha=1.0, beta=10.0, p=1.0, horizon=10)  # needs K > beta
    with pytest.raises(ValueError):
        Cosine(alpha=1.0, p=0.0, horizon=10)


@pytest.mark.parametrize(
    "alpha, gamma, p",
    # gamma^p underflows to 0.0, or alpha/gamma^p overflows to inf
    [(0.5, 0.5, 2000.0), (0.5, 0.5, 1e30), (0.5, 1e-300, 2.0), (1e10, 1e-300, 1.0)],
)
def test_polynomial_with_an_infinite_first_step_is_unconstructible(alpha, gamma, p):
    with pytest.raises(ValueError, match=re.escape(f"gamma={gamma!r}, p={p!r}")):
        Polynomial(alpha=alpha, gamma=gamma, p=p)


def test_polynomial_steps_past_the_floats_are_their_limit_zero():
    # (k + 1)^300 passes the floats from k = 10 on: 11^300 is about 2.6e312
    sched = Polynomial(alpha=1.0, gamma=1.0, p=300.0)
    steps = step_values(sched, 16)
    assert steps[:10] == [1.0 / (k + 1.0) ** 300.0 for k in range(10)]
    assert steps[10:] == [0.0] * 6
    assert step_value(sched, 12) == 0.0
    assert step_sum(sched, 16) == math.fsum(steps[:10])
    # gamma^p itself passes them: every step is 0.0
    assert step_values(Polynomial(alpha=1.0, gamma=4.0, p=1e30), 8) == [0.0] * 8


def test_out_of_range_index_rejected():
    with pytest.raises(ValueError):
        step_value(Cosine(alpha=1.0, p=1.0, horizon=10), 11)
    with pytest.raises(ValueError):
        step_value(Exponential(alpha=1.0, beta=1.0, p=1.0, horizon=10), -1)


EXTREME_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-310, 1e-200, 1e-30, 0.999999, 1.0, 2.0, 1e30, 1e200, 1.7e308]),
    st.floats(1e-300, 1e300),
)


@given(data=st.data())
def test_step_max_is_the_first_step_bitwise(data):
    """step_max reads alpha itself outside the polynomial family; that is the
    first step of the closed form to the bit, at extreme parameters too."""
    alpha, p = data.draw(EXTREME_POSITIVE), data.draw(EXTREME_POSITIVE)
    horizon = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 10**6)))
    family = data.draw(st.sampled_from(["constant", "polynomial", "exponential", "cosine"]))
    try:
        if family == "constant":
            sched = Constant(alpha=alpha)
        elif family == "polynomial":
            sched = Polynomial(alpha=alpha, gamma=data.draw(EXTREME_POSITIVE), p=p)
        elif family == "exponential":
            sched = Exponential(alpha=alpha, beta=data.draw(EXTREME_POSITIVE), p=p, horizon=horizon)
        else:
            sched = Cosine(alpha=alpha, p=p, horizon=horizon)
    except ValueError:
        return
    K = data.draw(st.integers(1, getattr(sched, "horizon", 2**20)))
    first = step_values(sched, 1)[0]
    assert step_max(sched, K).hex() == step_value(sched, 0).hex() == first.hex()
    assert not math.isnan(first)


def per_k_steps(schedule, ks):
    """Each step by its family's float formula, one k at a time, as
    CLOSED_FORMS states it; a polynomial step is 0.0 from the first k where
    (k + gamma)^p, or k + gamma itself, passes the floats."""
    if not isinstance(schedule, Polynomial):
        return [CLOSED_FORMS[type(schedule)](schedule, k) for k in ks]
    steps = []
    for k in ks:
        try:
            steps.append(CLOSED_FORMS[Polynomial](schedule, k))
        except OverflowError:
            return steps + [0.0] * (len(ks) - len(steps))
    return steps


def outcome(call):
    """The hex of each float call returns, or the type of what it raises."""
    try:
        value = call()
    except (OverflowError, ValueError) as error:  # math.cos(inf) raises ValueError
        return type(error)
    return [v.hex() for v in value] if isinstance(value, list) else value.hex()


# the edges of schedules._bases (numpy over float k from _SHORT steps up to
# 2^53, the ints below _SHORT steps and past 2^53) and of the step blocks
# that step_sum and the walk read
STEP_COUNTS = st.one_of(
    st.sampled_from([1, 2, _SHORT - 1, _SHORT, _SHORT + 1]),
    st.sampled_from([_FINALS_BLOCK - 1, _FINALS_BLOCK + 1, _SUM_BLOCK, _SUM_BLOCK + 1]),
    st.integers(1, 300),
)
# the first int that k + gamma cannot convert to a float: float max plus half an ulp
INT_PAST_THE_FLOATS = int(sys.float_info.max) + 2**970
STARTS = st.one_of(
    st.just(0),
    st.integers(-_SHORT - 2, 2).map(lambda j: 2**53 + j),
    st.integers(-3, 2).map(lambda j: INT_PAST_THE_FLOATS + j),
    st.integers(-3, 1).map(lambda j: int(sys.float_info.max) + j),
    st.integers(0, 2**60),
)


# no max_examples: CI fuzzes it under the fuzz profile
@pytest.mark.fuzz
@given(data=st.data())
def test_step_queries_keep_the_bits_of_the_per_k_formulas(data):
    """step_values, step_value, step_max and step_sum of every family, and
    steps read from any start (exact float k below 2^53, ints from there and
    near the largest float), equal the per-k formulas bit for bit, or raise
    as they do."""
    family = data.draw(st.sampled_from([Constant, Polynomial, Exponential, Cosine]))
    alpha, p = data.draw(EXTREME_POSITIVE), data.draw(st.one_of(EXTREME_POSITIVE, st.just(1.0)))
    count, start = data.draw(STEP_COUNTS), data.draw(STARTS)
    if family is not Polynomial:  # a horizon, and so every k, is at most the largest float
        start = min(start, int(sys.float_info.max) - count + 1)
    horizon = max(start + count - 1, data.draw(st.integers(1, 2 * _SUM_BLOCK)))
    try:
        if family is Constant:
            schedule = Constant(alpha)
        elif family is Polynomial:
            schedule = Polynomial(alpha, data.draw(EXTREME_POSITIVE), p)
        elif family is Exponential:
            beta = data.draw(st.floats(1e-3, 0.999)) * horizon
            schedule = Exponential(alpha, beta, min(p, 4.0), horizon)
        else:
            schedule = Cosine(alpha, p, horizon)
    except ValueError:  # the family cannot hold these constants
        return
    ks = range(start, start + count)
    expected = outcome(lambda: per_k_steps(schedule, ks))
    assert outcome(lambda: _steps(schedule, ks)) == expected
    k = data.draw(st.sampled_from(ks))
    single = expected if isinstance(expected, type) else expected[k - start]
    assert outcome(lambda: step_value(schedule, k)) == single

    K = min(count, getattr(schedule, "horizon", count) + 1)
    steps = per_k_steps(schedule, range(K))
    assert outcome(lambda: step_values(schedule, K)) == [v.hex() for v in steps]
    assert step_max(schedule, K).hex() == steps[0].hex()
    summed = isinstance(schedule, Polynomial) or (
        isinstance(schedule, Cosine) and not (schedule.p == 1.0 and K == schedule.horizon)
    )
    if summed:  # the other sums are closed forms
        try:
            expected_sum = math.fsum(steps)
        except OverflowError:
            expected_sum = math.inf
        assert step_sum(schedule, K).hex() == expected_sum.hex()


def test_step_sum_holds_one_block_of_steps_not_K():
    """step_sum reads _SUM_BLOCK steps at a time: 2^16 steps listed at once
    took about 2.7 MB of traced memory."""
    tracemalloc.start()
    try:
        total = step_sum(Polynomial(4.0, 4.0, 1.0), 2**16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == math.fsum(4.0 / (k + 4.0) for k in range(2**16))
    assert peak < 1 << 20, peak


def test_exponential_whose_log_factor_passes_the_floats_is_unconstructible():
    # (p/K)*log(beta/K) is -inf, so alpha_0 = alpha*exp(0*-inf) would be NaN
    with pytest.raises(ValueError, match=re.escape("log g passes the floats for beta=1e-300")):
        Exponential(alpha=1.0, beta=1e-300, p=1e308, horizon=2)


# The lane rule's tolerance, relative to the largest step: alpha, or
# alpha/gamma^p for a polynomial schedule with gamma < 1. Both arithmetics
# form the same arguments; numpy's exp, cos and pow may differ from the
# math module's by an ulp. Most steps carry that ulp, but the cosine step
# ((1 + cos)/2)^p cancels near k = K, where a cos off by an ulp of 1 is
# amplified by p*x^(p-1) at x >= sin^2(pi/2K) ~ 1.5e-7 (K = 2^12): at most
# 1.3e3 for p >= 1/2, so under 1e-13 of alpha, a tenth of the tolerance.
LANE_STEP_TOL = 1e-12


@st.composite
def lane_schedules(draw, K):
    """A schedule of any family whose steps are defined for k < K."""
    alpha = draw(st.floats(1e-3, 1e3))
    p = draw(st.floats(0.5, 4.0))
    horizon = draw(st.integers(K, 2 * K))
    return draw(st.sampled_from([
        Constant(alpha),
        Polynomial(alpha, draw(st.floats(1e-2, 1e6)), p),
        Exponential(alpha, draw(st.floats(0.01, 0.99)) * horizon, p, horizon),
        Cosine(alpha, p, horizon),
    ]))


@settings(max_examples=60)
@given(st.integers(1, 2**12).flatmap(lambda K: st.tuples(
    st.just(K), st.lists(lane_schedules(K), min_size=1, max_size=6), st.data()
)))
def test_lane_steps_hold_to_the_closed_forms(case):
    """The numpy rule of each family (_lane_steps) against the math one
    (_steps), on drawn schedules up to K = 2^12; lanes from n on are left
    as they were."""
    K, schedules, data = case
    n = data.draw(st.integers(1, len(schedules)))
    out = np.full((K, len(schedules)), np.nan)
    _lane_steps(_lane_columns(schedules), np.arange(K, dtype=float)[:, None], n, out)
    for i, schedule in enumerate(schedules[:n]):
        error = np.abs(out[:, i] - _steps(schedule, range(K))).max()
        assert error <= LANE_STEP_TOL * step_max(schedule, K)
    assert np.isnan(out[:, n:]).all()
