"""Gradient methods on synthetic problems with controlled noise.

Provides noise-free gradient descent, stochastic gradient descent with an
additive (optionally state-scaled) Gaussian oracle, and random reshuffling
over finite sums, together with problem builders whose curvature, gradient-
domination, and noise certificates are known in closed form. Empirical
verification helpers sample those certificates so that runs feeding the
bound checks are backed by checked assumptions rather than trust.

All three methods run on one engine that steps every seed together as an
(S, d) array, one row per seed in ascending seed order; gradient descent is
the single-row case. Problems evaluate objective and gradient on whole
arrays of points with the same arithmetic per point as for a single one.

Each seed draws from its own counter-based Philox stream keyed by the seed
alone (keyed_generators reads no OS entropy). The engine takes a seed's
Gaussian noise, or its epoch orders for reshuffling, in blocks of
consecutive steps, and a block leaves the stream exactly as step-by-step
draws do. A seed's trajectory is therefore the same whichever seeds run
beside it.

Across seeds, the mean and standard error of the gaps are Neumaier
compensated sums taken row by row in ascending seed order and vectorized
over steps, so no temporary the size of the gap array is made. Each sum is
within one ulp of the exactly rounded sum (math.fsum) up to a second-order
term. Gaps must be finite: a NaN or an infinity raises NumericFailure naming
the first seed and step where it appears.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .plbounds import NumericFailure
from .recursions import CheckResult, PreconditionError
from .schedules import StepSchedule, step_values, validate_cap

# Numbers per block of steps the engine holds at once, over all seeds: the
# block's iterates, and its draws, are 4 MiB of doubles each at most.
_BLOCK = 1 << 19
_WORD = (1 << 64) - 1


def keyed_generators(seeds: Iterable[int]) -> list[np.random.Generator]:
    """One generator per seed, each bitwise that of np.random.Philox(key=seed).

    Philox(key=seed) first seeds a SeedSequence from OS entropy and then
    discards it. Here one seed sequence, shared by the generators of a call,
    hands each new Philox the 128-bit key of the next seed, low word first,
    as Philox(key=seed) sets it; nothing reads OS entropy, and no generator
    keeps an object of its own for its key. Seeds must be integers in
    [0, 2^128).
    """
    seeds = [operator.index(seed) for seed in seeds]
    for seed in seeds:
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"seed {seed} must be an integer in [0, 2**128)")
    keys = _seed_keys()(seeds)
    return [np.random.Generator(np.random.Philox(keys)) for _ in seeds]


@functools.cache
def _seed_keys() -> type:
    # made on first use: importing numpy.random along with steprates raises
    # the peak memory of runs that need it only later
    class SeedKeys(np.random.bit_generator.ISeedSequence):
        """Each generate_state call returns the key of the next seed."""

        def __init__(self, seeds: list[int]) -> None:
            self.seeds = iter(seeds)

        def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
            seed = next(self.seeds)
            return np.array([seed & _WORD, seed >> 64], dtype=np.uint64)

    return SeedKeys


@dataclass(frozen=True)
class Problem:
    """A differentiable objective with certified curvature and PL constants.

    objective and gradient take points along the last axis: one point of
    shape (d,), a batch of shape (S, d), or more leading axes, and treat
    every point as they treat a single one. The
    certificates (pl_mu, smoothness_L) are valid on the centered box of
    half-width domain_radius. Finite-sum problems carry component_count and
    component_gradient(X, idx), whose row i is the gradient of component
    idx[i] at X[i]. meta holds builder internals (spectra, shifts) used by
    tests.
    """

    dimension: int
    objective: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    f_star: float
    pl_theta: float
    pl_mu: float
    smoothness_L: float
    domain_radius: float
    component_count: int | None = None
    component_gradient: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NoiseModel:
    """Additive gradient noise: mean zero, variance at most A*(f-f*) + sigma^2."""

    kind: str
    sigma: float = 0.0
    A: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "additive_gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.sigma < 0 or self.A < 0:
            raise ValueError("sigma and A must be nonnegative")


@dataclass(frozen=True)
class Trajectory:
    """Objective-gap series per seed plus their mean and standard error.

    gaps has one row per seed (a single row with empty seeds for the
    deterministic method). left_domain flags seeds whose iterates exited the
    certified region; such rows are excluded from bound checks downstream.
    A gap that is not finite raises NumericFailure; a negative one, ValueError.
    """

    gaps: np.ndarray
    seeds: tuple[int, ...]
    mean: np.ndarray
    stderr: np.ndarray
    left_domain: tuple[bool, ...]

    def __post_init__(self) -> None:
        _check_finite(self.gaps, self.seeds)
        if float(self.gaps.min()) < -1e-12:
            raise ValueError(f"negative objective gap {self.gaps.min()} in trajectory")


def _check_finite(gaps: np.ndarray, seeds: tuple[int, ...]) -> None:
    # min and max propagate NaN and show infinities without a temporary array
    if math.isfinite(gaps.min()) and math.isfinite(gaps.max()):
        return
    row, step = (int(v) for v in np.argwhere(~np.isfinite(gaps))[0])
    who = f"seed {seeds[row]}" if seeds else "the deterministic run"
    raise NumericFailure(
        f"objective gap {gaps[row, step]} is not finite for {who} at step {step}", index=step
    )


def _compensated_sum(rows: Iterable[np.ndarray]) -> np.ndarray:
    """Neumaier's compensated sum of equal-shape arrays, one row at a time.

    Elementwise, the error is at most u*|s| + g^2*sum|x_i| with u = 2^-53
    and g = (n-1)u/(1-(n-1)u) (Ogita, Rump and Oishi 2005, Prop. 4.5): one
    ulp of the exact sum s up to a second-order term. Two rows are summed
    exactly rounded, as math.fsum does. Each rounding error is found with
    Knuth's branch-free TwoSum, which gives the same bits as Neumaier's
    |a| >= |b| branch, in buffers reused across rows.
    """
    rows = iter(rows)
    total = np.array(next(rows), dtype=float)
    comp = np.zeros(total.shape)
    nxt, kept, lost = (np.empty(total.shape) for _ in range(3))
    for row in rows:
        np.add(total, row, out=nxt)
        np.subtract(nxt, total, out=kept)  # the part of row that the sum kept
        np.subtract(nxt, kept, out=lost)
        np.subtract(total, lost, out=lost)  # what total lost in the rounding
        np.subtract(row, kept, out=kept)  # what row lost
        lost += kept
        comp += lost
        total, nxt = nxt, total
    return total + comp


def _rowdot(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """np.dot of each row of U with V, bitwise: vecdot makes the same BLAS
    call per row, and a one-column row is its single product."""
    if U.shape[-1] == 1:
        return (U * V)[..., 0]
    return np.vecdot(U, V)


def _aggregate(gaps: np.ndarray, seeds: tuple[int, ...], left: np.ndarray) -> Trajectory:
    _check_finite(gaps, seeds)  # before summing, so NaN and inf raise instead of warning
    n = gaps.shape[0]
    mean = _compensated_sum(gaps) / n
    if n > 1:
        squares = ((row - mean) ** 2 for row in gaps)
        stderr = np.sqrt(_compensated_sum(squares) / (n - 1) / n)
    else:
        stderr = np.zeros_like(mean)
    return Trajectory(
        gaps=gaps,
        seeds=seeds,
        mean=mean,
        stderr=stderr,
        left_domain=tuple(bool(v) for v in left),
    )


def _check_cap(schedule: StepSchedule, cap: float, K: int, what: str) -> None:
    report = validate_cap(schedule, cap, K)
    if not report.passed:
        raise PreconditionError(
            f"largest step {report.step_max} exceeds the {what} cap {cap}"
        )


def _start(problem: Problem, x0) -> np.ndarray:
    x = np.asarray(x0, dtype=float).reshape(-1).copy()
    if x.shape != (problem.dimension,):
        raise ValueError(f"x0 must have dimension {problem.dimension}, got shape {x.shape}")
    return x


def _descend(
    problem: Problem,
    alphas: list[float],
    x0: np.ndarray,
    seeds: tuple[int, ...],
    step: Callable[[np.ndarray, float, np.ndarray | None], np.ndarray],
    draw: Callable[[np.random.Generator, np.ndarray], None] | None = None,
    width: int = 1,
    dtype: type = float,
) -> Trajectory:
    """Run every seed's iterate together, one row per seed (one row if none).

    step(X, a, drawn) maps the iterates, the step size and this step's draws
    to the next iterates. draw(rng, out) fills one seed's draws for
    consecutive steps, shape (steps, width), from its own stream. The engine
    works in blocks of steps that hold at most _BLOCK numbers over all seeds:
    it draws a block's randomness ahead, keeps its iterates, and evaluates
    their gaps and norms in one call per block.
    """
    K = len(alphas)
    S = max(len(seeds), 1)
    dim = problem.dimension
    rngs = keyed_generators(seeds)
    objective, f_star = problem.objective, problem.f_star
    X = np.tile(x0, (S, 1))
    gaps = np.empty((S, K + 1))
    # largest squared norm after any step: sqrt is monotone, so a row left the
    # domain at some step exactly when the square root of its peak exceeds it
    # (fmax skips NaN, as the comparison does)
    peak = np.zeros(S)
    span = max(1, _BLOCK // (S * max(width, dim)))
    block = None
    # overflow shows up as a gap that is not finite, which _aggregate raises
    # as NumericFailure; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        gaps[:, 0] = objective(X) - f_star
        for start in range(0, K, span):
            n = min(span, K - start)
            if draw is not None:
                block = np.empty((S, n, width), dtype=dtype)
                for rng, out in zip(rngs, block):
                    draw(rng, out)
            path = np.empty((S, n, dim))
            for j in range(n):
                X = step(X, alphas[start + j], None if block is None else block[:, j])
                path[:, j] = X
            gaps[:, start + 1 : start + n + 1] = objective(path) - f_star
            peak = np.fmax(peak, np.fmax.reduce(_rowdot(path, path), axis=1))
    return _aggregate(gaps, seeds, np.sqrt(peak) > problem.domain_radius)


def _sgd_step(problem: Problem, noise: NoiseModel):
    """The SGD update of every row; without noise, the gradient step."""
    gaussian = noise.kind == "additive_gaussian"
    dim = problem.dimension
    flat = noise.sigma / math.sqrt(dim)

    def step(X, a, Z):
        G = problem.gradient(X)
        if gaussian:
            if noise.A == 0.0:
                G = G + Z * flat
            else:
                gap = problem.objective(X) - problem.f_star
                scale = np.sqrt((noise.A * np.maximum(gap, 0.0) + noise.sigma**2) / dim)
                G = G + Z * scale[:, None]
        return X - a * G

    return step


def gd_run(problem: Problem, schedule: StepSchedule, x0, K: int) -> Trajectory:
    """Deterministic gradient descent; steps must stay within 1/L."""
    _check_cap(schedule, 1.0 / problem.smoothness_L, K, "descent")
    step = _sgd_step(problem, NoiseModel("none"))
    return _descend(problem, step_values(schedule, K), _start(problem, x0), (), step)


def sgd_run(
    problem: Problem,
    noise: NoiseModel,
    schedule: StepSchedule,
    x0,
    K: int,
    seeds: list[int],
) -> Trajectory:
    """Stochastic gradient descent with one oracle draw per step.

    With noise kind "none" the result equals gd_run bitwise.
    """
    if not seeds:
        raise ValueError("sgd_run needs at least one seed")
    _check_cap(schedule, 1.0 / problem.smoothness_L, K, "descent")
    draw = None
    if noise.kind == "additive_gaussian":
        def draw(rng: np.random.Generator, out: np.ndarray) -> None:
            rng.standard_normal(out=out)

    return _descend(
        problem,
        step_values(schedule, K),
        _start(problem, x0),
        tuple(sorted(int(s) for s in seeds)),
        _sgd_step(problem, noise),
        draw,
        width=problem.dimension,
    )


def epoch_permutations(rng: np.random.Generator, n: int, epochs: int) -> np.ndarray:
    """Uniform component orders for consecutive epochs, one row each.

    One call draws the same orders, and leaves rng in the same state, as one
    rng.permutation(n) call per epoch.
    """
    return rng.permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)


def rr_run(
    problem: Problem,
    schedule: StepSchedule,
    x0,
    K: int,
    seeds: list[int],
) -> Trajectory:
    """Random reshuffling: K epochs, each a fresh uniform pass over components.

    The epoch step a_k is split as a_k/N across the N inner updates; steps
    must stay within 1/(2L).
    """
    component = problem.component_gradient
    if component is None:
        raise PreconditionError("random reshuffling needs a finite-sum problem")
    if not seeds:
        raise ValueError("rr_run needs at least one seed")
    _check_cap(schedule, 1.0 / (2.0 * problem.smoothness_L), K, "reshuffling")
    N = problem.component_count

    def epoch(X, a, orders):
        inner = a / N
        for j in range(N):
            X = X - inner * component(X, orders[:, j])
        return X

    def draw(rng: np.random.Generator, out: np.ndarray) -> None:
        out[...] = epoch_permutations(rng, N, len(out))

    return _descend(
        problem,
        step_values(schedule, K),
        _start(problem, x0),
        tuple(sorted(int(s) for s in seeds)),
        epoch,
        draw,
        width=N,
        dtype=np.intp,
    )


def make_quadratic(
    mu: float,
    L: float,
    dim: int,
    N: int | None = None,
    shifts: tuple[float, ...] | None = None,
    curvatures: tuple[float, ...] | None = None,
    radius: float = 10.0,
) -> Problem:
    """Diagonal quadratic with spectrum spanning [mu, L]; optional finite sum.

    The finite-sum variant is one-dimensional: component i is
    kappa_i*(x - c_i)^2/2 and the average has curvature mean(kappa), exact
    minimizer, and state-independent gradient dispersion certified on the
    given radius (the dispersion bound then holds with A = 0).
    """
    if not 0 < mu <= L:
        raise ValueError(f"need 0 < mu <= L, got mu={mu}, L={L}")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    if not radius > 0:
        raise ValueError("radius must be positive")
    if N is None:
        spectrum = np.linspace(mu, L, dim)

        def objective(X: np.ndarray) -> np.ndarray:
            return 0.5 * _rowdot(X * X, spectrum)

        def gradient(X: np.ndarray) -> np.ndarray:
            return spectrum * X

        return Problem(
            dimension=dim,
            objective=objective,
            gradient=gradient,
            f_star=0.0,
            pl_theta=0.5,
            pl_mu=mu,
            smoothness_L=float(spectrum.max()),
            domain_radius=radius,
            meta={"kind": "diag_quadratic", "spectrum": tuple(spectrum)},
        )

    if dim != 1:
        raise ValueError("finite-sum quadratics are one-dimensional")
    if N < 1:
        raise ValueError("N must be a positive integer")
    if shifts is None:
        shifts = (0.0,) if N == 1 else tuple(np.linspace(-1.0, 1.0, N))
    if curvatures is None:
        curvatures = (L,) * N
    if len(shifts) != N or len(curvatures) != N:
        raise ValueError("shifts and curvatures must have length N")
    kap = np.asarray(curvatures, dtype=float)
    cen = np.asarray(shifts, dtype=float)
    if not np.all(kap > 0):
        raise ValueError("curvatures must be positive")
    mean_kap = math.fsum(kap) / N
    if abs(mean_kap - mu) > 1e-9 * max(1.0, mu):
        raise ValueError(f"mean curvature {mean_kap} must equal mu = {mu}")
    if abs(float(kap.max()) - L) > 1e-9 * max(1.0, L):
        raise ValueError(f"largest curvature {kap.max()} must equal L = {L}")
    x_star = math.fsum(kap * cen) / math.fsum(kap)
    f_star = math.fsum(kap * (x_star - cen) ** 2) / (2.0 * N)

    # component terms fill the last axis, summed over it in order
    def objective(X: np.ndarray) -> np.ndarray:
        dev = X[..., :1] - cen
        terms = kap * (dev * dev)
        return _compensated_sum(terms[..., i] for i in range(N)) / (2.0 * N)

    def gradient(X: np.ndarray) -> np.ndarray:
        terms = kap * (X[..., :1] - cen)
        return (_compensated_sum(terms[..., i] for i in range(N)) / N)[..., None]

    def component_gradient(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return kap[idx, None] * (X - cen[idx, None])

    # dispersion (1/N) sum (grad_i - grad)^2 is quadratic and convex in x,
    # so its sup over [-R, R] sits at an endpoint
    mean_kc = math.fsum(kap * cen) / N

    def dispersion(v: float) -> float:
        devs = (kap - mean_kap) * v - (kap * cen - mean_kc)
        return math.fsum(devs**2) / N

    sigma_sq = max(dispersion(-radius), dispersion(radius))
    return Problem(
        dimension=1,
        objective=objective,
        gradient=gradient,
        f_star=f_star,
        pl_theta=0.5,
        pl_mu=mean_kap,
        smoothness_L=float(kap.max()),
        domain_radius=radius,
        component_count=N,
        component_gradient=component_gradient,
        meta={
            "kind": "finite_sum_quadratic",
            "curvatures": tuple(kap),
            "shifts": tuple(cen),
            "x_star": x_star,
            "dispersion_A": 0.0,
            "dispersion_sigma": math.sqrt(sigma_sq),
        },
    )


def make_power_family(theta: float, c: float, radius: float) -> Problem:
    """Scalar f(x) = c*|x|^(1/(1-theta)), the equality instance of the
    gradient-domination inequality for theta in [1/2, 1).

    Smoothness is certified only on [-radius, radius]; runs flag iterates
    that leave it.
    """
    if not 0.5 <= theta < 1.0:
        raise ValueError(f"theta must lie in [1/2, 1), got {theta}")
    if not c > 0:
        raise ValueError("c must be positive")
    if not radius > 0:
        raise ValueError("radius must be positive")
    growth = 1.0 / (1.0 - theta)
    mu = growth**2 * c ** (2.0 * (1.0 - theta)) / 2.0
    L = growth * (growth - 1.0) * c * radius ** (growth - 2.0)

    def objective(X: np.ndarray) -> np.ndarray:
        return c * np.abs(X[..., 0]) ** growth

    def gradient(X: np.ndarray) -> np.ndarray:
        v = X[..., :1]
        return c * growth * np.abs(v) ** (growth - 1.0) * np.sign(v)

    return Problem(
        dimension=1,
        objective=objective,
        gradient=gradient,
        f_star=0.0,
        pl_theta=theta,
        pl_mu=mu,
        smoothness_L=L,
        domain_radius=radius,
        meta={"kind": "power", "growth": growth, "scale": c},
    )


def verify_pl(problem: Problem, sample_count: int, seed: int) -> CheckResult:
    """Sample the gradient-domination inequality inside the certified box."""
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = keyed_generators([seed])[0]
    radius = problem.domain_radius
    root = math.sqrt(2.0 * problem.pl_mu)
    theta = problem.pl_theta
    worst = math.inf
    violation = None
    for i in range(sample_count):
        x = rng.uniform(-radius, radius, size=problem.dimension)
        gap = float(problem.objective(x)) - problem.f_star
        if gap < -1e-12 * max(1.0, abs(problem.f_star)):
            return CheckResult(
                check="pl-inequality",
                passed=False,
                margin=gap,
                witness_index=f"sample {i}",
                witness_value=gap,
            )
        rhs = root * max(gap, 0.0) ** theta
        margin = float(np.linalg.norm(problem.gradient(x))) - rhs
        worst = min(worst, margin)
        if margin < -1e-9 * max(1.0, rhs) and violation is None:
            violation = (i, margin)
    if violation is not None:
        return CheckResult(
            check="pl-inequality",
            passed=False,
            margin=worst,
            witness_index=f"sample {violation[0]}",
            witness_value=violation[1],
        )
    return CheckResult(check="pl-inequality", passed=True, margin=worst)


def verify_variance(
    problem: Problem, noise: NoiseModel, sample_count: int, draws: int, seed: int
) -> list[CheckResult]:
    """Check the noise-oracle and component-dispersion variance certificates.

    The stochastic oracle check is Monte Carlo with a three-standard-error
    slack; the finite-sum dispersion check is exact up to floating point.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be positive")
    rng = keyed_generators([seed])[0]
    radius = problem.domain_radius
    dim = problem.dimension
    results: list[CheckResult] = []

    if noise.kind == "additive_gaussian":
        if draws < 30:
            raise ValueError("need at least 30 draws for the stochastic check")
        worst_mean = math.inf
        worst_var = math.inf
        mean_witness = var_witness = None
        for i in range(sample_count):
            x = rng.uniform(-radius, radius, size=dim)
            gap = max(float(problem.objective(x)) - problem.f_star, 0.0)
            bound = noise.A * gap + noise.sigma**2
            scale = math.sqrt(bound / dim)
            sample = rng.standard_normal((draws, dim)) * scale
            sq = np.einsum("ij,ij->i", sample, sample)
            mean_vec = sample.mean(axis=0)
            mean_slack = 3.0 * math.sqrt(bound / draws) - float(np.linalg.norm(mean_vec))
            var_hat = float(sq.mean())
            se = float(sq.std(ddof=1)) / math.sqrt(draws)
            var_slack = bound + 3.0 * se - var_hat
            if mean_slack < worst_mean:
                worst_mean, mean_witness = mean_slack, i
            if var_slack < worst_var:
                worst_var, var_witness = var_slack, i
        results.append(
            CheckResult(
                check="noise-mean-zero",
                passed=worst_mean >= 0.0,
                margin=worst_mean,
                witness_index=None if worst_mean >= 0.0 else f"state {mean_witness}",
                witness_value=None if worst_mean >= 0.0 else worst_mean,
            )
        )
        results.append(
            CheckResult(
                check="noise-variance",
                passed=worst_var >= 0.0,
                margin=worst_var,
                witness_index=None if worst_var >= 0.0 else f"state {var_witness}",
                witness_value=None if worst_var >= 0.0 else worst_var,
            )
        )
    else:
        results.append(
            CheckResult(check="noise-variance", passed=True, margin=noise.sigma**2)
        )

    if problem.component_gradient is not None:
        N = problem.component_count
        every = np.arange(N)
        worst = math.inf
        witness = None
        for i in range(sample_count):
            x = rng.uniform(-radius, radius, size=dim)
            devs = problem.component_gradient(np.tile(x, (N, 1)), every) - problem.gradient(x)
            disp = math.fsum(float(v) ** 2 for v in np.sqrt(_rowdot(devs, devs))) / N
            gap = max(float(problem.objective(x)) - problem.f_star, 0.0)
            bound = noise.A * gap + noise.sigma**2
            slack = bound - disp + 1e-12 * max(1.0, bound)
            if slack < worst:
                worst, witness = slack, i
        results.append(
            CheckResult(
                check="component-dispersion",
                passed=worst >= 0.0,
                margin=worst,
                witness_index=None if worst >= 0.0 else f"state {witness}",
                witness_value=None if worst >= 0.0 else worst,
            )
        )
    return results


def noise_free_bound(theta: float, mu: float, gap0: float, alpha_sum: float) -> float:
    """Closed-form gap bound for noise-free gradient descent."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    if gap0 < 0 or mu <= 0 or alpha_sum < 0:
        raise ValueError("need gap0 >= 0, mu > 0, alpha_sum >= 0")
    if theta == 0.5:
        return gap0 * math.exp(-mu * alpha_sum)
    if gap0 == 0.0:
        return 0.0
    power = 2.0 * theta - 1.0
    return (gap0**-power + power * mu * alpha_sum) ** (-1.0 / power)
