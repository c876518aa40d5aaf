"""Tests for the optimizer runs, problem factories, and certificate checks."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import point_problem, rr_one_seed, sgd_one_seed
from steprates.optimizers import (
    NoiseModel,
    Problem,
    Trajectory,
    _compensated_sum,
    epoch_permutations,
    gd_run,
    keyed_generators,
    make_power_family,
    make_quadratic,
    noise_free_bound,
    rr_run,
    sgd_run,
    verify_pl,
    verify_variance,
)
from steprates.plbounds import NumericFailure
from steprates.recursions import PreconditionError
from steprates.schedules import Constant, Polynomial, step_values


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 2**64, 2**128 - 1])
def test_keyed_generators_are_philox_keyed_by_the_seed(seed):
    ours, ref = keyed_generators([seed])[0], np.random.Generator(np.random.Philox(key=seed))
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)
    assert np.array_equal(ours.standard_normal(257), ref.standard_normal(257))
    assert np.array_equal(epoch_permutations(ours, 5, 9), epoch_permutations(ref, 5, 9))
    words = [g.integers(0, 2**64, 33, dtype=np.uint64) for g in (ours, ref)]
    assert np.array_equal(*words)
    assert repr(ours.bit_generator.state) == repr(ref.bit_generator.state)


@pytest.mark.parametrize("seed", [-1, 2**128])
def test_keyed_generators_reject_seeds_outside_128_bits(seed):
    with pytest.raises(ValueError):
        np.random.Philox(key=seed)
    with pytest.raises(ValueError):
        keyed_generators([0, seed])


def test_keyed_generators_key_each_stream_by_its_own_seed():
    seeds = [7, 2**64 + 7, 0, 7]
    for ours, seed in zip(keyed_generators(seeds), seeds):
        ref = np.random.Generator(np.random.Philox(key=seed))
        assert np.array_equal(ours.standard_normal(9), ref.standard_normal(9))


def test_gd_monotone_on_quadratic():
    problem = make_quadratic(0.5, 2.0, 3)
    traj = gd_run(problem, Constant(alpha=0.4), [1.0, -2.0, 0.5], 40)
    assert traj.gaps.shape == (1, 41)
    assert traj.seeds == ()
    diffs = np.diff(traj.gaps[0])
    assert np.all(diffs <= 1e-15)
    assert traj.gaps[0, -1] < 1e-6


def test_gd_dominated_by_noise_free_bound():
    problem = make_quadratic(1.0, 1.0, 1)
    sched = Polynomial(alpha=0.9, gamma=2.0, p=0.8)
    K = 64
    traj = gd_run(problem, sched, [3.0], K)
    alphas = step_values(sched, K)
    partial = 0.0
    gap0 = traj.gaps[0, 0]
    for k in range(K + 1):
        bound = noise_free_bound(problem.pl_theta, problem.pl_mu, gap0, partial)
        assert traj.gaps[0, k] <= bound * (1 + 1e-12)
        if k < K:
            partial += alphas[k]


def test_gd_rejects_steps_beyond_descent_cap():
    problem = make_quadratic(1.0, 4.0, 2)
    with pytest.raises(PreconditionError):
        gd_run(problem, Constant(alpha=0.3), [1.0, 1.0], 10)


def test_sgd_without_noise_equals_gd_bitwise():
    problem = make_quadratic(0.5, 1.5, 2)
    sched = Polynomial(alpha=0.6, gamma=1.0, p=0.6)
    ref = gd_run(problem, sched, [1.0, -1.0], 25)
    traj = sgd_run(problem, NoiseModel("none"), sched, [1.0, -1.0], 25, seeds=[7])
    assert np.array_equal(traj.gaps[0], ref.gaps[0])


def test_sgd_vectorized_matches_per_seed_path_bitwise():
    problem = make_quadratic(1.0, 1.0, 1)
    noise = NoiseModel("additive_gaussian", sigma=0.7)
    traj = sgd_run(problem, noise, Constant(alpha=0.3), [2.0], 30, seeds=[3, 11, 2, 19])
    assert traj.seeds == (2, 3, 11, 19)
    objective, gradient, _ = point_problem(problem.meta)
    for row, seed in zip(traj.gaps, traj.seeds):
        ref, _ = sgd_one_seed(objective, gradient, 0.0, 10.0, [0.3] * 30, [2.0], seed, sigma=0.7)
        assert np.array_equal(row, ref)


def test_sgd_reproducible_and_seed_order_invariant():
    problem = make_quadratic(1.0, 1.0, 1)
    noise = NoiseModel("additive_gaussian", sigma=1.0)
    sched = Constant(alpha=0.25)
    a = sgd_run(problem, noise, sched, [1.0], 15, seeds=[5, 1, 9])
    b = sgd_run(problem, noise, sched, [1.0], 15, seeds=[9, 5, 1])
    assert a.seeds == b.seeds == (1, 5, 9)
    assert np.array_equal(a.gaps, b.gaps)
    assert np.array_equal(a.mean, b.mean)


def test_sgd_mean_obeys_descent_recursion():
    """Averaged over seeds, one step contracts by (1-mu*a) up to noise a^2*L*sigma^2/2."""
    problem = make_quadratic(1.0, 1.0, 1)
    sigma = 1.0
    noise = NoiseModel("additive_gaussian", sigma=sigma)
    alpha, K = 0.1, 50
    traj = sgd_run(problem, noise, Constant(alpha=alpha), [2.0], K, seeds=list(range(300)))
    for k in range(K):
        rhs = (1 - alpha) * traj.mean[k] + alpha**2 * sigma**2 / 2.0
        slack = 5.0 * (traj.stderr[k + 1] + traj.stderr[k])
        assert traj.mean[k + 1] <= rhs + slack


def test_trajectory_mean_and_stderr_definitions():
    problem = make_quadratic(1.0, 1.0, 1)
    noise = NoiseModel("additive_gaussian", sigma=0.5)
    traj = sgd_run(problem, noise, Constant(alpha=0.2), [1.0], 8, seeds=[0, 1, 2, 3])
    col = traj.gaps[:, 5]
    assert traj.mean[5] == pytest.approx(float(col.mean()), rel=1e-15)
    expected = float(col.std(ddof=1)) / math.sqrt(len(col))
    assert traj.stderr[5] == pytest.approx(expected, rel=1e-12)


def test_epoch_permutations_are_uniform():
    rng = np.random.Generator(np.random.Philox(key=123))
    counts: dict[tuple[int, ...], int] = {}
    draws = 18000
    for row in epoch_permutations(rng, 3, draws):
        perm = tuple(int(v) for v in row)
        counts[perm] = counts.get(perm, 0) + 1
    assert len(counts) == 6
    result = stats.chisquare(list(counts.values()))
    assert result.pvalue > 1e-3


def test_rr_single_component_equals_gd_bitwise():
    problem = make_quadratic(2.0, 2.0, 1, N=1)
    plain = make_quadratic(2.0, 2.0, 1, radius=problem.domain_radius)
    sched = Constant(alpha=0.2)
    rr = rr_run(problem, sched, [1.5], 30, seeds=[4])
    gd = gd_run(plain, sched, [1.5], 30)
    assert np.array_equal(rr.gaps[0], gd.gaps[0])


def test_rr_requires_finite_sum_and_tighter_cap():
    plain = make_quadratic(1.0, 1.0, 1)
    with pytest.raises(PreconditionError):
        rr_run(plain, Constant(alpha=0.1), [1.0], 5, seeds=[0])
    finite = make_quadratic(1.0, 1.0, 1, N=2)
    with pytest.raises(PreconditionError):
        # 1/(2L) = 0.5 for L = 1
        rr_run(finite, Constant(alpha=0.6), [1.0], 5, seeds=[0])
    traj = rr_run(finite, Constant(alpha=0.4), [1.0], 40, seeds=[0, 1])
    assert traj.gaps.shape == (2, 41)
    assert traj.gaps[:, -1].max() < traj.gaps[:, 0].min()


@pytest.mark.parametrize("N", [1, 2, 3, 7])
def test_epoch_permutations_match_one_draw_per_epoch(N):
    block_rng = np.random.Generator(np.random.Philox(key=N))
    step_rng = np.random.Generator(np.random.Philox(key=N))
    block = epoch_permutations(block_rng, N, 50)
    assert np.array_equal(block, [step_rng.permutation(N) for _ in range(50)])
    assert block_rng.random() == step_rng.random()  # both streams left in one state


def test_left_domain_flag_set_when_iterates_escape():
    problem = make_quadratic(1.0, 1.0, 1, radius=1e-6)
    traj = gd_run(problem, Constant(alpha=0.1), [1.0], 3)
    assert traj.left_domain == (True,)
    roomy = make_quadratic(1.0, 1.0, 1)
    assert gd_run(roomy, Constant(alpha=0.1), [1.0], 3).left_domain == (False,)


def test_trajectory_rejects_negative_gaps():
    gaps = np.array([[1.0, -1e-6]])
    with pytest.raises(ValueError):
        Trajectory(
            gaps=gaps, seeds=(), mean=gaps[0], stderr=np.zeros(2), left_domain=(False,)
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_trajectory_rejects_non_finite_gaps(bad):
    gaps = np.array([[1.0, 0.5, 0.25, 0.1], [1.0, 0.5, bad, math.nan]])
    with pytest.raises(NumericFailure, match="seed 7 at step 2") as info:
        Trajectory(
            gaps=gaps,
            seeds=(3, 7),
            mean=gaps[0],
            stderr=np.zeros(4),
            left_domain=(False, False),
        )
    assert info.value.index == 2
    with pytest.raises(NumericFailure, match="deterministic run at step 1"):
        Trajectory(
            gaps=gaps[1:, 1:], seeds=(), mean=gaps[0], stderr=gaps[0], left_domain=(False,)
        )


def test_make_quadratic_validation():
    with pytest.raises(ValueError):
        make_quadratic(2.0, 1.0, 1)
    with pytest.raises(ValueError):
        make_quadratic(1.0, 2.0, 2, N=2)
    with pytest.raises(ValueError):
        make_quadratic(1.0, 2.0, 1, N=2, curvatures=(2.0, 1.0), shifts=(0.0,))
    with pytest.raises(ValueError):
        # mean curvature must equal mu
        make_quadratic(1.0, 2.0, 1, N=2, curvatures=(2.0, 1.0), shifts=(0.0, 0.0))
    with pytest.raises(ValueError):
        # largest curvature must equal L
        make_quadratic(1.0, 2.0, 1, N=2, curvatures=(1.5, 0.5), shifts=(0.0, 0.0))


def test_finite_sum_default_construction():
    problem = make_quadratic(1.0, 1.0, 1, N=2)
    x = np.array([0.7])
    assert problem.objective(x) == pytest.approx((0.7**2 + 1.0) / 2.0, rel=1e-15)
    assert problem.f_star == pytest.approx(0.5, rel=1e-15)
    assert problem.meta["dispersion_sigma"] == pytest.approx(1.0, rel=1e-12)
    assert problem.meta["dispersion_A"] == 0.0
    assert problem.component_count == 2


def test_heterogeneous_finite_sum_certificate():
    """Unit dispersion with distinct curvatures, used by the rate experiments."""
    problem = make_quadratic(
        1.0,
        1.9,
        1,
        N=2,
        curvatures=(1.9, 0.1),
        shifts=(0.55 / 1.9, -0.55 / 0.1),
        radius=0.5,
    )
    assert problem.pl_mu == pytest.approx(1.0, rel=1e-12)
    assert problem.smoothness_L == pytest.approx(1.9, rel=1e-12)
    assert problem.meta["dispersion_sigma"] == pytest.approx(1.0, rel=1e-9)
    checks = verify_variance(
        problem, NoiseModel("additive_gaussian", sigma=1.0), 200, 100, seed=1
    )
    assert all(c.passed for c in checks)
    names = {c.check for c in checks}
    assert "component-dispersion" in names


def test_make_power_family_constants():
    problem = make_power_family(0.5, 0.5, radius=2.0)
    assert problem.pl_mu == pytest.approx(1.0, rel=1e-15)
    assert problem.smoothness_L == pytest.approx(1.0, rel=1e-15)  # 2*c
    steep = make_power_family(2.0 / 3.0, 1.0, radius=2.0)
    assert steep.pl_mu == pytest.approx(4.5, rel=1e-12)
    with pytest.raises(ValueError):
        make_power_family(1.0, 1.0, radius=1.0)
    with pytest.raises(ValueError):
        make_power_family(0.4, 1.0, radius=1.0)


def test_verify_pl_passes_on_honest_instances():
    for problem in (
        make_quadratic(1.0, 1.0, 1),
        make_quadratic(0.5, 2.0, 3),
        make_power_family(2.0 / 3.0, 1.0, radius=2.0),
    ):
        result = verify_pl(problem, 500, seed=0)
        assert result.passed
        assert result.margin >= -1e-9


def test_verify_pl_equality_instance_has_zero_margin():
    problem = make_power_family(0.75, 1.0, radius=1.5)
    result = verify_pl(problem, 400, seed=1)
    assert result.passed
    assert abs(result.margin) < 1e-9


def test_verify_pl_detects_inflated_certificate():
    problem = make_quadratic(1.0, 1.0, 2)
    fake = dataclasses.replace(problem, pl_mu=8.0)
    result = verify_pl(fake, 500, seed=2)
    assert not result.passed
    assert result.margin < 0
    assert result.witness_index is not None
    assert result.witness_value is not None


def test_verify_variance_oracle_and_dispersion():
    problem = make_quadratic(1.0, 2.0, 2)
    checks = verify_variance(
        problem, NoiseModel("additive_gaussian", sigma=0.8, A=0.5), 50, 200, seed=3
    )
    assert [c.check for c in checks] == ["noise-mean-zero", "noise-variance"]
    assert all(c.passed for c in checks)
    trivial = verify_variance(problem, NoiseModel("none"), 10, 100, seed=3)
    assert len(trivial) == 1 and trivial[0].passed and trivial[0].margin == 0.0


def test_verify_variance_detects_understated_sigma():
    problem = make_quadratic(1.0, 1.0, 1, N=2)
    checks = verify_variance(
        problem, NoiseModel("additive_gaussian", sigma=0.5), 100, 50, seed=4
    )
    disp = [c for c in checks if c.check == "component-dispersion"][0]
    assert not disp.passed
    assert disp.witness_index is not None


def test_noise_free_bound_values_and_validation():
    assert noise_free_bound(0.5, 2.0, 3.0, 1.5) == pytest.approx(
        3.0 * math.exp(-3.0), rel=1e-15
    )
    assert noise_free_bound(1.0, 1.0, 1.0, 9.0) == pytest.approx(0.1, rel=1e-15)
    assert noise_free_bound(0.75, 1.0, 0.0, 5.0) == 0.0
    with pytest.raises(ValueError):
        noise_free_bound(0.4, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        noise_free_bound(0.5, -1.0, 1.0, 1.0)


def test_problem_rejects_bad_start():
    problem = make_quadratic(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        gd_run(problem, Constant(alpha=0.5), [1.0], 5)


# --- the seed-batched engine against the per-seed loops in tests/oracles.py ---
#
# The engine must reproduce the per-seed loops bit for bit wherever its
# arithmetic is theirs: diagonal quadratics (np.vecdot makes np.dot's BLAS
# call per row) and finite sums of at most two components (a compensated sum
# of two terms is exactly rounded, as math.fsum is). Two places differ:
# - finite sums of N >= 3 components, where the engine's Neumaier sum over
#   components may round once differently from math.fsum;
# - the power family, where numpy's vectorized pow may differ from the
#   scalar pow by one ulp.
# There each step adds at most a few ulps of the objective's scale and steps
# within 1/L do not amplify them, so the gaps must agree within
# TOLERANCE_ULPS * K ulps of the largest reference gap.
TOLERANCE_ULPS = 64
EPS = 2.0**-52


quadratics = st.builds(
    lambda d, mu, ratio: make_quadratic(mu, mu * ratio, d, radius=2.0),
    st.integers(1, 4),
    st.floats(0.1, 2.0),
    st.floats(1.0, 4.0),
)
finite_sums = (
    st.integers(1, 5)
    .flatmap(
        lambda N: st.tuples(
            st.lists(st.floats(0.2, 3.0), min_size=N, max_size=N),
            st.lists(st.floats(-1.0, 1.0), min_size=N, max_size=N),
        )
    )
    .map(
        lambda kc: make_quadratic(
            min(math.fsum(kc[0]) / len(kc[0]), max(kc[0])),
            max(kc[0]),
            1,
            N=len(kc[0]),
            curvatures=tuple(kc[0]),
            shifts=tuple(kc[1]),
            radius=2.0,
        )
    )
)
powers = st.builds(
    lambda theta, c: make_power_family(theta, c, 2.0),
    st.floats(0.5, 0.8),
    st.floats(0.2, 2.0),
)


def _exact(problem: Problem) -> bool:
    kind = problem.meta["kind"]
    return kind == "diag_quadratic" or (
        kind == "finite_sum_quadratic" and problem.component_count <= 2
    )


def _assert_matches(traj, problem, K, reference):
    refs = [reference(seed) for seed in traj.seeds]
    ref_gaps = np.array([gaps for gaps, _ in refs])
    if _exact(problem):
        assert np.array_equal(traj.gaps, ref_gaps)
    else:
        atol = TOLERANCE_ULPS * K * EPS * float(np.max(ref_gaps))
        np.testing.assert_allclose(traj.gaps, ref_gaps, rtol=0, atol=atol)
    assert traj.left_domain == tuple(left for _, left in refs)


seed_lists = st.lists(st.integers(0, 2**40), min_size=1, max_size=4, unique=True)


@settings(max_examples=80, deadline=None)
@given(
    problem=st.one_of(quadratics, finite_sums, powers),
    start=st.floats(-0.9, 0.9),
    frac=st.floats(0.05, 1.0),
    K=st.integers(1, 40),
    seeds=seed_lists,
    sigma=st.one_of(st.none(), st.floats(0.0, 1.0)),
    A=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
def test_sgd_engine_matches_per_seed_reference(problem, start, frac, K, seeds, sigma, A):
    x0 = [start * (1.0 + 0.5 * i) for i in range(problem.dimension)]
    alpha = frac / problem.smoothness_L
    noise = NoiseModel("none") if sigma is None else NoiseModel("additive_gaussian", sigma, A)
    objective, gradient, _ = point_problem(problem.meta)
    traj = sgd_run(problem, noise, Constant(alpha=alpha), x0, K, seeds)
    _assert_matches(
        traj,
        problem,
        K,
        lambda seed: sgd_one_seed(
            objective, gradient, problem.f_star, 2.0, [alpha] * K, x0, seed, sigma, A
        ),
    )


@settings(max_examples=60, deadline=None)
@given(
    problem=finite_sums,
    start=st.floats(-1.5, 1.5),
    frac=st.floats(0.05, 1.0),
    K=st.integers(1, 40),
    seeds=seed_lists,
)
def test_rr_engine_matches_per_seed_reference(problem, start, frac, K, seeds):
    alpha = frac / (2.0 * problem.smoothness_L)
    objective, _, components = point_problem(problem.meta)
    traj = rr_run(problem, Constant(alpha=alpha), [start], K, seeds)
    _assert_matches(
        traj,
        problem,
        K,
        lambda seed: rr_one_seed(
            objective, components, problem.f_star, 2.0, [alpha] * K, [start], seed
        ),
    )


def test_compensated_sum_within_two_ulps_of_fsum():
    """Ill-conditioned columns: large terms of both signs cancel to a small sum.

    Bound: two ulps of math.fsum's exactly rounded sum plus the second-order
    term g^2 * sum|x| with g = (n-1)u/(1-(n-1)u), u = 2^-53 (Ogita, Rump and
    Oishi 2005, Prop. 4.5, plus fsum's own half-ulp rounding).
    """
    rng = np.random.default_rng(11)
    n, m = 400, 300
    rows = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-3, 6, size=(n, m))
    # each column cancels to a sum near 10^-e: condition numbers up to ~10^14
    for j in range(m):
        rows[-1, j] = -math.fsum(rows[:-1, j]) + 10.0 ** -rng.uniform(0, 6)
    got = _compensated_sum(rows)
    u = 2.0**-53
    g = (n - 1) * u / (1 - (n - 1) * u)
    for j in range(m):
        want = math.fsum(rows[:, j])
        bound = 2 * np.spacing(abs(want)) + g * g * math.fsum(np.abs(rows[:, j]))
        assert abs(got[j] - want) <= bound, (j, got[j], want)
    assert np.array_equal(_compensated_sum(rows[:2]), rows[0] + rows[1])
