"""Tests for the optimizer runs, problem factories, and certificate checks."""
from __future__ import annotations

import dataclasses
import math
import statistics
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import compensated_row_sum, point_problem, rr_one_seed, sgd_one_seed
from steprates import optimizers
from steprates.optimizers import (
    NoiseModel,
    Problem,
    Trajectory,
    _aggregate,
    _block_rows,
    _compensated_sum,
    epoch_permutations,
    gd_run,
    keyed_generators,
    make_power_family,
    make_quadratic,
    noise_free_bound,
    rr_run,
    sgd_run,
)
from steprates.plbounds import NumericFailure, smoothness_cap
from steprates.recursions import PreconditionError
from steprates.schedules import Constant, Cosine, Polynomial, step_values
from steprates.verify import verify_pl, verify_variance


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
    seeds = [7, 2**64 + 7, 0, 2**128 - 1]
    for ours, seed in zip(keyed_generators(seeds), seeds):
        ref = np.random.Generator(np.random.Philox(key=seed))
        assert np.array_equal(ours.standard_normal(9), ref.standard_normal(9))


def test_a_repeated_seed_is_rejected_by_name():
    # before, sgd_run and rr_run gave it two identical rows, both counted
    # in the mean and the stderr; the seeds are checked before the step
    # cap, which a step of 5.0 exceeds
    problem = make_quadratic(1.0, 1.0, 1, N=2)
    message = "^seeds must be distinct, got seed 1 twice$"
    with pytest.raises(ValueError, match=message):
        keyed_generators([1, 2, 1])
    for kind in ("additive_gaussian", "none"):
        with pytest.raises(ValueError, match=message):
            sgd_run(problem, NoiseModel(kind, sigma=1.0), Constant(5.0), [1.0], 8, [1, 2, 1])
    with pytest.raises(ValueError, match=message):
        rr_run(problem, Constant(5.0), [1.0], 8, [1, 1])


@pytest.mark.parametrize("seed", [True, False])
def test_a_bool_seed_is_rejected_by_name(seed):
    # operator.index took True as seed 1 and False as seed 0
    problem = make_quadratic(1.0, 1.0, 1, N=2)
    message = f"^seed {seed} must be an integer, not a bool$"
    with pytest.raises(ValueError, match=message):
        keyed_generators([2, seed])
    noise = NoiseModel("additive_gaussian", sigma=1.0)
    with pytest.raises(ValueError, match=message):
        sgd_run(problem, noise, Constant(0.1), [1.0], 8, [seed])
    with pytest.raises(ValueError, match=message):
        rr_run(problem, Constant(0.1), [1.0], 8, [seed])


@pytest.mark.parametrize("seed", [1.5, np.float64(3.9)])
def test_runs_reject_non_integer_seeds(seed):
    problem = make_quadratic(1.0, 1.0, 1, N=2)
    noise = NoiseModel("additive_gaussian", sigma=1.0)
    with pytest.raises(TypeError):
        sgd_run(problem, noise, Constant(alpha=0.1), [1.0], 4, [seed])
    with pytest.raises(TypeError):
        rr_run(problem, Constant(alpha=0.1), [1.0], 4, [seed])


def test_noise_free_sgd_builds_no_generators(monkeypatch):
    def no_generators(seeds):
        raise AssertionError("a run that draws nothing needs no generators")

    # nor does it take a spare one: the spare's place and state stay as they are
    spare = keyed_generators([2**100])[0]
    spare.standard_normal(3)
    state = repr(spare.bit_generator.state)
    monkeypatch.setattr(optimizers, "keyed_generators", no_generators)
    monkeypatch.setattr(optimizers, "_spare", [spare])
    problem = make_quadratic(0.5, 1.5, 2)
    sched = Polynomial(alpha=0.6, gamma=1.0, p=0.6)
    ref = gd_run(problem, sched, [1.0, -1.0], 16)
    traj = sgd_run(problem, NoiseModel("none"), sched, [1.0, -1.0], 16, seeds=list(range(3000)))
    assert traj.seeds == tuple(range(3000))
    assert all(np.array_equal(row, ref.gaps[0]) for row in traj.gaps)
    with pytest.raises(ValueError, match="seed -1"):
        sgd_run(problem, NoiseModel("none"), sched, [1.0, -1.0], 16, seeds=[0, -1])
    assert len(optimizers._spare) == 1 and optimizers._spare[0] is spare
    assert repr(spare.bit_generator.state) == state


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


def test_a_gap_below_zero_by_a_rounding_of_f_star_is_kept():
    # f* is about 2.26e13, and one gap is -0.00390625, 1 ulp of it: the run
    # exited 2 through an absolute -1e-12 floor in Trajectory, while verify_pl
    # held gaps to -1e-12*max(1, |f*|)
    problem = make_quadratic(
        1.0, 1.3, 1, N=3, shifts=(123456.789, -9876543.21, 5555555.5),
        curvatures=(0.7, 1.0, 1.3), radius=1e9,
    )
    traj = gd_run(problem, Constant(0.5), [-1453124.0], 200)
    assert traj.gaps.min() == -0.00390625
    assert -1e-12 * problem.f_star < traj.gaps.min() < -1e-12
    assert verify_pl(problem, 50, 0).passed
    gaps = np.array([[1.0, -1e-6]])
    Trajectory(gaps, (), gaps[0], np.zeros(2), (False,), f_star=1e7)
    with pytest.raises(ValueError, match="^negative objective gap -1e-06 in trajectory$"):
        Trajectory(gaps, (), gaps[0], np.zeros(2), (False,), f_star=1e5)


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
    for N in (None, 2):  # linspace to inf warns, and L would be nan
        with pytest.raises(ValueError, match="^L must be positive and finite, got inf$"):
            make_quadratic(1.0, math.inf, 2 if N is None else 1, N=N)
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


@pytest.mark.parametrize(
    "L, curvatures, shifts, radius",
    [
        (1e308, None, None, 10.0),  # the mean curvature's fsum
        (1.5, (1.5, 0.5), (1e308, 1e308), 10.0),  # the minimizer's fsum
        (1.5, (1.5, 0.5), (0.0, 1e300), 10.0),  # the squares of the minimum's value
        (1.5, (1.5, 0.5), None, 1e200),  # the dispersion's squares on the radius
    ],
)
def test_finite_sum_constants_past_the_floats_name_the_curvatures(L, curvatures, shifts, radius):
    # math.fsum raised OverflowError here, and numpy overflowed to inf
    with pytest.raises(ValueError, match=r"curvatures \[.*leaves the floats"):
        make_quadratic(1.0, L, 1, N=2, curvatures=curvatures, shifts=shifts, radius=radius)


def test_finite_sum_default_construction():
    problem = make_quadratic(1.0, 1.0, 1, N=2)
    x = np.array([0.7])
    assert problem.objective(x) == pytest.approx((0.7**2 + 1.0) / 2.0, rel=1e-15)
    assert problem.f_star == pytest.approx(0.5, rel=1e-15)
    assert problem.meta["dispersion_sigma"] == pytest.approx(1.0, rel=1e-12)
    assert problem.meta["dispersion_A"] == 0.0
    assert problem.component_count == 2


@pytest.mark.parametrize("N", [1, 2, 3, 5])
def test_finite_sum_treats_a_point_as_a_batch_row(N):
    curvatures = tuple(1.0 + 0.5 * i for i in range(N))
    problem = make_quadratic(
        sum(curvatures) / N, max(curvatures), 1, N=N, curvatures=curvatures, radius=2.0
    )
    X = np.linspace(-1.5, 1.5, 12).reshape(3, 4, 1)
    gaps, grads = problem.objective(X), problem.gradient(X)
    assert gaps.shape == (3, 4) and grads.shape == (3, 4, 1)
    for i, j in np.ndindex(3, 4):
        assert problem.objective(X[i, j]) == gaps[i, j]
        assert np.array_equal(problem.gradient(X[i, j]), grads[i, j])


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


def test_gd_run_takes_a_first_step_of_exactly_one_over_L():
    problem = make_quadratic(1.0, 4.0, 2)
    cap = 1.0 / problem.smoothness_L
    run = gd_run(problem, Polynomial(alpha=cap, gamma=1.0, p=1.0), [1.0, 1.0], 8)
    assert run.gaps.shape[-1] == 9 and np.all(np.isfinite(run.gaps))
    above = math.nextafter(cap, math.inf)
    with pytest.raises(PreconditionError, match=f"largest step {above} exceeds the descent cap"):
        gd_run(problem, Constant(alpha=above), [1.0, 1.0], 8)
    flat = dataclasses.replace(problem, smoothness_L=math.inf)
    with pytest.raises(ValueError, match="^L must be positive and finite, got inf$"):
        gd_run(flat, Constant(alpha=0.1), [1.0, 1.0], 8)


@pytest.mark.parametrize("L", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("algorithm", ["gd", "sgd", "rr"])
def test_runs_reject_a_smoothness_constant_that_is_not_positive(algorithm, L):
    problem = dataclasses.replace(make_quadratic(1.0, 1.0, 1, N=2), smoothness_L=L)
    run = {
        "gd": lambda: gd_run(problem, Constant(0.1), [1.0], 4),
        "sgd": lambda: sgd_run(problem, NoiseModel("none"), Constant(0.1), [1.0], 4, seeds=[0]),
        "rr": lambda: rr_run(problem, Constant(0.1), [1.0], 4, seeds=[0]),
    }[algorithm]
    with pytest.raises(ValueError, match=f"^L must be positive and finite, got {L!r}$"):
        run()


def test_smoothness_caps_past_the_floats():
    # 1/(2L) as 0.5/L: bitwise the same where 2L is finite, and positive past it
    assert smoothness_cap("rr", 3.0) == 1.0 / (2.0 * 3.0)
    assert smoothness_cap("rr", 1e308) == 5e-309
    finite = dataclasses.replace(make_quadratic(1.0, 1.0, 1, N=2), smoothness_L=1e308)
    with pytest.raises(PreconditionError, match="largest step 0.1 exceeds the reshuffling cap 5e-309"):
        rr_run(finite, Constant(0.1), [1.0], 4, seeds=[0])
    # 1/L overflows for a subnormal L: an infinite cap does not bind
    flat = dataclasses.replace(make_quadratic(1.0, 1.0, 1), smoothness_L=5e-324)
    assert smoothness_cap("sgd", 5e-324) == math.inf
    gd = gd_run(flat, Constant(0.1), [1.0], 4)
    sgd = sgd_run(flat, NoiseModel("none"), Constant(0.1), [1.0], 4, seeds=[0])
    assert np.array_equal(gd.gaps, sgd.gaps) and np.all(np.isfinite(gd.gaps))


@pytest.mark.parametrize(
    "theta, radius, name", [(0.9, 1e40, "L = inf"), (0.9999, 0.5, "L = 0.0")]
)
def test_make_power_family_rejects_constants_past_the_floats(theta, radius, name):
    with pytest.raises(ValueError, match=f"^{name} is not a positive finite float"):
        make_power_family(theta, 1.0, radius)


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


def test_verify_pl_fails_a_gap_below_zero():
    # f_star lies above f everywhere: the first sample's gap is negative
    problem = dataclasses.replace(make_quadratic(1.0, 1.0, 1), f_star=1e6)
    result = verify_pl(problem, 50, seed=0)
    assert not result.passed
    assert result.witness_index == "sample 0"
    assert result.margin == result.witness_value < -1e5


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


def nan_gradient(X):
    return np.full(np.shape(X), np.nan)


def test_verify_pl_fails_a_nan_gradient():
    problem = dataclasses.replace(make_quadratic(1.0, 1.0, 2), gradient=nan_gradient)
    result = verify_pl(problem, 50, seed=2)
    assert not result.passed
    assert math.isnan(result.margin)
    assert (result.witness_index, result.witness_value) == (None, None)


def test_verify_variance_fails_nan_moments():
    problem = make_quadratic(1.0, 1.0, 1, N=2)
    for kind in ("additive_gaussian", "none"):
        # NoiseModel rejects a NaN sigma; the check must fail on one set past it
        noise = NoiseModel(kind)
        object.__setattr__(noise, "sigma", math.nan)
        checks = verify_variance(problem, noise, 20, 50, seed=4)
        assert [c.passed for c in checks] == [False] * len(checks), noise
        assert all(c.witness_index is None and c.witness_value is None for c in checks)
    # honest moments, NaN component gradients: only the dispersion check fails
    broken = dataclasses.replace(problem, component_gradient=lambda X, idx: nan_gradient(X))
    checks = verify_variance(broken, NoiseModel("additive_gaussian", sigma=1.0), 20, 50, seed=4)
    assert [(c.check, c.passed) for c in checks] == [
        ("noise-mean-zero", True),
        ("noise-variance", True),
        ("component-dispersion", False),
    ]
    assert checks[-1].witness_index is None and math.isnan(checks[-1].margin)


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
    for theta in (0.5, 0.75):
        for name, args in (
            ("gap0", (1.0, math.nan, 1.0)),
            ("alpha_sum", (1.0, 1.0, math.nan)),
            ("mu", (math.inf, 1.0, 0.0)),
        ):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                noise_free_bound(theta, *args)


def test_noise_free_bound_powers_past_the_floats_are_their_limits():
    # float ** raises OverflowError for 5e-324 ** -1 and ZeroDivisionError for 0.0 ** -1
    assert noise_free_bound(1.0, 5e-324, 5e-324, 0.0) == 5e-324
    assert noise_free_bound(1.0, 5e-324, math.inf, 0.0) == math.inf
    assert noise_free_bound(1.0, 0.5, math.inf, 4.0) == 0.5  # the limit as gap0 grows
    assert noise_free_bound(0.5, 1.0, math.inf, 1e300) == math.inf
    # p*mu underflows to 0.0, and 0.0 * inf was NaN; the limit is 0.0
    assert noise_free_bound(0.75, 5e-324, 1.0, math.inf) == 0.0
    # ordinary inputs keep the bits of the float ** formula
    for theta, mu, gap0, alpha_sum in ((0.75, 0.3, 2.5, 7.0), (2.0 / 3.0, 1.0, 1e-3, 1e3)):
        power = 2.0 * theta - 1.0
        expected = (gap0**-power + power * mu * alpha_sum) ** (-1.0 / power)
        assert noise_free_bound(theta, mu, gap0, alpha_sum) == expected


@pytest.mark.parametrize("name", ["sigma", "A"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_noise_model_rejects_a_constant_that_is_not_nonnegative_and_finite(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be nonnegative and finite, got {value!r}$"):
        NoiseModel("additive_gaussian", **{name: value})


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


# --- the engine across many blocks of steps and chunks of seed rows ---
#
# With _BLOCK at a few thousand numbers or fewer a run spans many blocks of
# steps, the last one short, and 150 seeds make three chunks of seed rows
# (64, 64, 22) in the gap and norm evaluation. Every output must keep the
# bits of the run in one block and match the per-seed loops bit for bit.


def _across_blocks(monkeypatch, run, block):
    whole = run()
    monkeypatch.setattr(optimizers, "_BLOCK", block)
    traj = run()
    for name in ("gaps", "mean", "stderr"):
        assert np.array_equal(getattr(traj, name), getattr(whole, name)), name
    assert (traj.seeds, traj.left_domain) == (whole.seeds, whole.left_domain)
    return traj


@pytest.mark.parametrize(
    "dim, sigma, A, block",
    [
        (3, 2.0, 0.0, 1800),  # draws as wide as the iterate: the iterates overwrite them
        (2, 0.8, 1.5, 700),  # state-scaled noise reads the objective inside the step
        (2, None, 0.0, 1000),  # no draws: the iterates alone fill the block
        (1, 1.2, 0.0, 5),  # fewer numbers than seeds: one step per block
    ],
)
def test_sgd_engine_across_blocks_matches_per_seed_reference(monkeypatch, dim, sigma, A, block):
    problem = make_quadratic(0.5, 2.0, dim, radius=2.0)
    x0 = [1.2 + 0.1 * i for i in range(dim)]
    alphas = [0.3] * 23
    noise = NoiseModel("none") if sigma is None else NoiseModel("additive_gaussian", sigma, A)
    seeds = list(range(1000, 1150))
    traj = _across_blocks(
        monkeypatch, lambda: sgd_run(problem, noise, Constant(0.3), x0, 23, seeds), block
    )
    objective, gradient, _ = point_problem(problem.meta)
    _assert_matches(
        traj,
        problem,
        23,
        lambda seed: sgd_one_seed(objective, gradient, 0.0, 2.0, alphas, x0, seed, sigma, A),
    )
    if sigma is not None:
        assert any(traj.left_domain) and not all(traj.left_domain)


@pytest.mark.parametrize("N, block", [(1, 1000), (2, 1400), (2, 7)])
def test_rr_engine_across_blocks_matches_per_seed_reference(monkeypatch, N, block):
    # epoch orders are integers, so they keep a path of their own in the block
    curvatures = (2.0,) if N == 1 else (2.0, 1.0)
    problem = make_quadratic(sum(curvatures) / N, 2.0, 1, N=N, curvatures=curvatures, radius=2.0)
    seeds = list(range(150))
    traj = _across_blocks(
        monkeypatch, lambda: rr_run(problem, Constant(0.2), [1.9], 19, seeds), block
    )
    objective, _, components = point_problem(problem.meta)
    alphas, f_star = [0.2] * 19, problem.f_star
    _assert_matches(
        traj,
        problem,
        19,
        lambda seed: rr_one_seed(objective, components, f_star, 2.0, alphas, [1.9], seed),
    )


# --- spare generators: a run re-keys those that earlier runs left ---
#
# Each call runs twice: with the spare list emptied, so every generator is
# new, and with one spare list shared by the whole sequence of calls. The
# two must agree bit for bit, a run that raises NumericFailure included.

REUSE_QUADRATIC = make_quadratic(0.5, 2.0, 2, radius=2.0)
REUSE_FINITE_SUM = make_quadratic(1.5, 2.0, 1, N=2, curvatures=(2.0, 1.0), radius=2.0)
REUSE_NOISE = {
    "sgd": NoiseModel("additive_gaussian", sigma=0.8),
    "scaled": NoiseModel("additive_gaussian", sigma=0.8, A=1.5),
    "failing": NoiseModel("additive_gaussian", sigma=1e200),  # its gaps overflow
}


def _reuse_outcome(kind, seeds, K):
    """A call's bits, or the NumericFailure it raises."""
    try:
        if kind == "rr":
            traj = rr_run(REUSE_FINITE_SUM, Constant(0.2), [1.9], K, seeds)
        else:
            noise = REUSE_NOISE[kind]
            traj = sgd_run(REUSE_QUADRATIC, noise, Constant(0.3), [1.2, -0.4], K, seeds)
    except NumericFailure as failure:
        return str(failure)
    arrays = (traj.gaps, traj.mean, traj.stderr)
    return traj.seeds, traj.left_domain, *(a.tobytes() for a in arrays)


def _spares_are_distinct_and_capped():
    spare = optimizers._spare
    assert len(spare) <= optimizers._SPARE_CAP
    assert len({id(rng) for rng in spare}) == len(spare)


reuse_seeds = st.one_of(
    st.lists(st.integers(0, 15), min_size=1, max_size=12, unique=True),  # overlapping
    st.lists(st.integers(2**64, 2**128 - 1), min_size=1, max_size=6, unique=True),  # disjoint
)


# no max_examples: CI fuzzes it under the fuzz profile
@pytest.mark.fuzz
@settings(deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from(["sgd", "scaled", "rr", "failing"]), reuse_seeds, st.integers(1, 24)
        ),
        min_size=2,
        max_size=6,
    ),
    cap=st.integers(1, 8),
    block=st.sampled_from([60, 400, optimizers._BLOCK]),
)
def test_reusing_spare_generators_changes_no_bit(calls, cap, block):
    """Runs with overlapping and disjoint seeds, over one block of steps or
    several, with more seeds than the cap allows spares or fewer, in any
    order: each gives the bits of the same call with new generators."""
    shared: list = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizers, "_SPARE_CAP", cap)
        patch.setattr(optimizers, "_BLOCK", block)
        for kind, seeds, K in calls:
            patch.setattr(optimizers, "_spare", [])
            fresh = _reuse_outcome(kind, seeds, K)
            patch.setattr(optimizers, "_spare", shared)
            assert _reuse_outcome(kind, seeds, K) == fresh
            assert (kind == "failing") == isinstance(fresh, str)
            _spares_are_distinct_and_capped()


def test_a_run_re_keys_the_spares_and_builds_generators_for_the_rest(monkeypatch):
    built = []

    def recording(seeds):
        seeds = list(seeds)
        built.append(seeds)
        return keyed_generators(seeds)

    spares = keyed_generators([10, 11])
    for rng in spares:
        rng.standard_normal(5)  # mid-buffer: the re-key sets the whole state
    monkeypatch.setattr(optimizers, "_spare", list(spares))
    monkeypatch.setattr(optimizers, "_SPARE_CAP", 4)
    monkeypatch.setattr(optimizers, "keyed_generators", recording)
    fresh = _reuse_outcome("sgd", [3, 1, 2, 0, 4], 9)
    # the two spares take the two smallest seeds; the last three are built
    assert built == [[2, 3, 4]]
    assert optimizers._spare[:2] == spares[::-1]  # extend keeps the run's order
    assert len(optimizers._spare) == 4
    _spares_are_distinct_and_capped()
    monkeypatch.setattr(optimizers, "_spare", [])
    assert _reuse_outcome("sgd", [3, 1, 2, 0, 4], 9) == fresh


def test_concurrent_runs_share_no_generator():
    # threads that switch every microsecond run overlapping seed sets at once;
    # a generator handed to two runs would mix their streams
    jobs = [("sgd", list(range(i, i + 6)), 12) for i in range(4)]
    jobs += [("rr", list(range(i, i + 5)), 10) for i in range(4)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(optimizers, "_spare", [])
        expected = [_reuse_outcome(*job) for job in jobs]
        patch.setattr(optimizers, "_SPARE_CAP", 16)
        results = [[] for _ in jobs]

        def worker(i):
            for _ in range(5):
                results[i].append(_reuse_outcome(*jobs[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[outcome] * 5 for outcome in expected]
        _spares_are_distinct_and_capped()


def test_gd_engine_splits_a_long_row_into_chunks_of_steps():
    # one seed row of 3 * 11000 numbers is more than a chunk: its steps are
    # evaluated in two chunks, the second of 78 steps
    problem = make_quadratic(0.01, 1.0, 3, radius=2.0)
    traj = gd_run(problem, Constant(0.5), [1.0, -1.0, 0.5], 11000)
    objective, gradient, _ = point_problem(problem.meta)
    ref, left = sgd_one_seed(objective, gradient, 0.0, 2.0, [0.5] * 11000, [1.0, -1.0, 0.5], 0)
    assert np.array_equal(traj.gaps[0], ref)
    assert traj.left_domain == (left,)


@pytest.mark.parametrize("S, K", [(3000, 1024), (256, 2048)])
def test_sgd_run_holds_one_block_beyond_its_gap_array(S, K):
    # tracemalloc sees numpy's buffers: beyond the gap array a run may hold
    # one block of _BLOCK doubles, about 1 KiB per seed (its generator, its
    # iterate, its running peak) and 1 MiB of small temporaries
    problem = make_quadratic(1.0, 1.0, 1)
    noise = NoiseModel("additive_gaussian", sigma=1.0)
    seeds = list(range(S))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        traj = sgd_run(problem, noise, Constant(alpha=0.01), [0.0], K, seeds)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= traj.gaps.nbytes + 8 * optimizers._BLOCK + 1024 * S + (1 << 20)


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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_two_row_sum_is_the_compensated_loop_bitwise(S, seed):
    """Two rows alone are summed as a + b: bitwise the compensated row loop
    and the lane path (a first block of one row and one later block), on
    terms of both signs over twelve decades."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((2, S)) * 10.0 ** rng.uniform(-6, 6, size=(2, S))
    rows[1, ::3] = -rows[0, ::3] * (1.0 + rng.uniform(-1e-9, 1e-9, size=rows[1, ::3].shape))
    got = _compensated_sum(rows)
    assert np.array_equal(got, compensated_row_sum(rows))
    assert np.array_equal(got, _compensated_sum(rows[:1], [rows[1:]]))


# --- the lane-strided sum over blocks of seed rows ---------------------------
#
# _aggregate feeds its sums blocks of B = _block_rows(K) rows. With S <= B
# rows there is one block and the sum is the row loop of tests/oracles.py,
# bit for bit. Beyond that the summation order changes, and the sum must
# stay within the row loop's bound: two ulps of math.fsum plus g^2 * sum|x|
# with g = (S-1)u/(1-(S-1)u), u = 2^-53.
U = 2.0**-53


def _blocked_sum(rows):
    step = _block_rows(rows.shape[1])
    rest = (rows[i : i + step] for i in range(step, len(rows), step))
    return _compensated_sum(rows[:step], rest)


def _cancelling(rng, S, K):
    """Columns of large terms of both signs that cancel to a sum near 10^-e."""
    rows = rng.standard_normal((S, K)) * 10.0 ** rng.uniform(-3, 6, size=(S, K))
    for j in range(K):
        rows[-1, j] = -math.fsum(rows[:-1, j]) + 10.0 ** -rng.uniform(0, 6)
    return rows


def _assert_within_row_loop_bound(got, rows, scale=1.0):
    S = len(rows)
    g = (S - 1) * U / (1 - (S - 1) * U)
    for j in range(rows.shape[1]):
        want = math.fsum(rows[:, j]) / scale
        bound = 2 * np.spacing(abs(want)) + g * g * math.fsum(np.abs(rows[:, j])) / scale
        assert abs(got[j] - want) <= bound, (S, j, got[j], want)


@settings(max_examples=60, deadline=None)
@given(
    K=st.sampled_from([1, 2, 17, 513, 1025, 2049, 4096]),
    where=st.sampled_from(["one", "B", "B+1", "below B"]),
    data=st.data(),
)
def test_lane_sum_is_the_row_loop_on_one_block(K, where, data):
    B = _block_rows(K)
    S = {"one": 1, "B": B, "B+1": B + 1}.get(where) or data.draw(st.integers(1, B))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = _cancelling(rng, S, K) if S > 1 else rng.standard_normal((1, K))
    got = _blocked_sum(rows)
    if S <= B:
        assert np.array_equal(got, compensated_row_sum(rows))
    else:
        _assert_within_row_loop_bound(got, rows)


@pytest.mark.parametrize(
    "S, K", [(3, 5), (65, 17), (400, 300), (3000, 17), (1000, 1025), (256, 2049)]
)
def test_lane_sum_within_the_row_loop_bound(S, K):
    rows = _cancelling(np.random.default_rng(S * K), S, K)
    _assert_within_row_loop_bound(_blocked_sum(rows), rows)


@pytest.mark.parametrize("S, K", [(3000, 17), (256, 2049)])
def test_aggregate_mean_and_stderr_against_fsum_and_statistics(S, K):
    """Gap-like columns spanning twelve decades. The mean is the sum's bound
    scaled by 1/S; the standard error is checked against math.fsum of the
    same squared deviations (four ulps: the sum's two, the two divisions',
    halved by the square root) and against statistics.stdev, which sums
    exactly, at a relative 1e-13 for the rounding of the deviations."""
    rng = np.random.default_rng(S + K)
    gaps = np.abs(rng.standard_normal((S, K))) * 10.0 ** rng.uniform(-6, 6, size=(S, K))
    traj = _aggregate(gaps, tuple(range(S)), np.zeros(S, dtype=bool))
    _assert_within_row_loop_bound(traj.mean, gaps, scale=S)
    for j in range(K):
        column = gaps[:, j]
        squares = (column - traj.mean[j]) ** 2
        want = math.sqrt(math.fsum(squares) / (S - 1) / S)
        assert abs(traj.stderr[j] - want) <= 4 * np.spacing(want), (j, traj.stderr[j], want)
        exact = statistics.stdev(column.tolist()) / math.sqrt(S)
        assert traj.stderr[j] == pytest.approx(exact, rel=1e-13, abs=0)


def test_aggregate_raises_on_a_non_finite_gap_without_warning():
    gaps = np.ones((200, 9))
    gaps[150, 4] = math.inf
    gaps[170, 2] = math.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericFailure, match="seed 150 at step 4") as info:
            _aggregate(gaps, tuple(range(200)), np.zeros(200, dtype=bool))
    assert info.value.index == 4


def test_aggregate_raises_where_the_mean_or_stderr_is_not_finite_without_warning():
    """Finite gaps whose sum or squared deviations pass the floats raise
    NumericFailure at the first such step, not a mean or stderr of inf or nan."""
    huge = np.array([[1.0, 1e308], [1.0, 1e308]])
    apart = np.array([[1.0, 0.0, 1e200], [1.0, 1e200, 0.0], [1.0, 0.0, 0.0]])
    # the noise grows with the gap, so the seeds' gaps drift apart past 1e154
    noise = NoiseModel("additive_gaussian", sigma=1.0, A=1e30)
    schedule = Cosine(alpha=0.02, p=1.0, horizon=8)
    cases = (
        (lambda: _aggregate(huge, (0, 1), np.zeros(2, dtype=bool)), "mean inf", 1),
        (lambda: _aggregate(apart, (0, 1, 2), np.zeros(3, dtype=bool)), "standard error nan", 1),
        (lambda: sgd_run(make_quadratic(1.0, 1.0, 1), noise, schedule, [2.0], 8, [0, 1, 2, 3]),
         "standard error nan", 7),
    )
    for run, value, index in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            message = f"^{value} is not finite at step {index}$"
            with pytest.raises(NumericFailure, match=message) as info:
                run()
        assert info.value.index == index
