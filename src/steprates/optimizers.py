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
alone (keyed_generators reads no OS entropy), in blocks of consecutive
steps that leave the stream exactly as step-by-step draws do, so a seed's
trajectory is the same whichever seeds run beside it. A run holds its gap
array, a few numbers per seed, one generator per seed of a run that draws,
and one block of at most 2^19 numbers: a block's draws and iterates. A
finished run leaves its generators in a spare list of at most 2^13 (about
the 4 MiB of one block), and a later run re-keys spares to its own seeds
before it builds new generators; a re-keyed generator's whole state is that
of a new one, so reuse changes no draw.

Across seeds, the mean and standard error of the gaps are compensated sums
over blocks of seed rows in ascending seed order, one lane per row of a
block and vectorized over steps, so no temporary the size of the gap array
is made. Each sum is within one ulp of the exactly rounded sum (math.fsum)
up to a second-order term. Gaps must be finite: a NaN or an infinity raises
NumericFailure naming the first seed and step where it appears.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import InitVar, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .plbounds import NumericFailure, smoothness_cap
from .recursions import CheckResult, PreconditionError, WorstMargin, _power
from .schedules import StepSchedule, step_max, step_values

# Numbers the engine holds at once beyond the gap array and the seeds' own:
# one block of steps over all seeds, its draws and iterates (4 MiB at most).
_BLOCK = 1 << 19
_WORD = (1 << 64) - 1


def keyed_generators(seeds: Iterable[int]) -> list[np.random.Generator]:
    """One generator per seed, each bitwise that of np.random.Philox(key=seed).

    Philox(key=seed) first seeds a SeedSequence from OS entropy and then
    discards it. Here one seed sequence, shared by the generators of a call,
    hands each new Philox the 128-bit key of the next seed, low word first,
    as Philox(key=seed) sets it; nothing reads OS entropy, and no generator
    keeps an object of its own for its key. Seeds must be distinct integers
    in [0, 2^128).
    """
    seeds = _checked_seeds(seeds)
    keys = _seed_keys()(seeds)
    return [np.random.Generator(np.random.Philox(keys)) for _ in seeds]


def _checked_seeds(seeds: Iterable[int]) -> list[int]:
    seeds = list(seeds)
    for seed in seeds:
        if isinstance(seed, bool):  # operator.index would take True as seed 1
            raise ValueError(f"seed {seed!r} must be an integer, not a bool")
    seeds = [operator.index(seed) for seed in seeds]
    seen: set[int] = set()
    for seed in seeds:
        if not 0 <= seed < 1 << 128:
            raise ValueError(f"seed {seed} must be an integer in [0, 2**128)")
        if seed in seen:  # a repeated seed's row would count twice in the mean
            raise ValueError(f"seeds must be distinct, got seed {seed} twice")
        seen.add(seed)
    return seeds


# Generators of finished runs, for later runs to re-key: at most as many as
# take about the memory of one block (some 650 bytes each). Runs take them
# by list.pop and return them by extend, so no two runs hold the same one.
_SPARE_CAP = _BLOCK // 64
_spare: list[np.random.Generator] = []


def _run_generators(seeds: tuple[int, ...]) -> list[np.random.Generator]:
    """keyed_generators(seeds) for a run of checked seeds, re-keying spares
    first: each gets the whole state of a new Philox(key=seed) (counter,
    key, buffer, buffer_pos and the buffered 32-bit word) from a state dict
    of this call's own. Generators are built only for the seeds left over."""
    taken: list[np.random.Generator] = []
    try:
        for _ in seeds:
            taken.append(_spare.pop())
    except IndexError:  # the spares ran out
        pass
    key = np.zeros(2, dtype=np.uint64)
    state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64), "key": key},
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    for rng, seed in zip(taken, seeds):
        key[0], key[1] = seed & _WORD, seed >> 64
        rng.bit_generator.state = state
    return taken + keyed_generators(seeds[len(taken) :])


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
        for name in ("sigma", "A"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be a nonnegative finite float, got {value}")


@dataclass(frozen=True)
class Trajectory:
    """Objective-gap series per seed plus their mean and standard error.

    gaps has one row per seed (a single row with empty seeds for the
    deterministic method). left_domain flags seeds whose iterates exited the
    certified region; such rows are excluded from bound checks downstream.
    A gap that is not finite raises NumericFailure; a negative one beyond the
    rounding of the problem's f_star (_gap_floor), ValueError.
    """

    gaps: np.ndarray
    seeds: tuple[int, ...]
    mean: np.ndarray
    stderr: np.ndarray
    left_domain: tuple[bool, ...]
    f_star: InitVar[float] = 0.0

    def __post_init__(self, f_star: float) -> None:
        # one min and one max: both propagate NaN and show infinities
        low, high = float(self.gaps.min()), float(self.gaps.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            row, step = (int(v) for v in np.argwhere(~np.isfinite(self.gaps))[0])
            who = f"seed {self.seeds[row]}" if self.seeds else "the deterministic run"
            raise NumericFailure(
                f"objective gap {self.gaps[row, step]} is not finite for {who} at step {step}",
                index=step,
            )
        if low < _gap_floor(f_star):
            raise ValueError(f"negative objective gap {low} in trajectory")


def _gap_floor(f_star: float) -> float:
    """The least gap f(x) - f_star taken as rounding, not as a point below the
    minimum: -1e-12 relative to f_star, and at least 1e-12 absolute."""
    return -1e-12 * max(1.0, abs(f_star))


def _compensated_sum(first: np.ndarray, rest: Iterable[np.ndarray] = ()) -> np.ndarray:
    """Compensated sum over axis 0 of the block first and of each block in rest.

    The rows of first set B lanes, and each later block of up to B rows adds
    its row i to lane i: Knuth's branch-free TwoSum, which gives the same
    bits as Neumaier's |a| >= |b| branch, finds each rounding error, and the
    lane's compensation collects it. Then Neumaier's row loop sums the B
    lane totals in order, with a compensation that starts from the sum of
    the lane compensations. With no later block this is the row loop over
    first alone, and two rows are summed exactly rounded, as math.fsum does,
    so two rows alone are returned as first[0] + first[1]: the loop's bits
    wherever the sum is finite and not -0.0 (the loop turns an infinite sum
    into NaN and -0.0 + -0.0 into +0.0). Buffers are the size of first and
    reused across blocks.

    This is Ogita, Rump and Oishi's Sum2 (2005, Prop. 4.5) applied per lane
    and then across lanes. Elementwise, over S rows, the error is at most
    u*|s| + g(m)*g(c)*sum|x_i|, with u = 2^-53, g(n) = n*u/(1 - n*u), s the
    exact sum, m = ceil(S/B) + B - 2 the roundings of running totals that a
    term takes part in, and c = m + B - 2 those of the compensation that a
    rounding error takes part in. The row loop over all S rows has the same
    first-order term, one ulp of s, with m = S - 1 and c = S - 2. As
    ceil(S/B) + B - 2 <= S - 1 for every S > B, and c <= S - 2 once
    S >= 2B + 2, the second-order term is then no weaker than the row
    loop's; for B < S < 2B + 2 it is at most twice it.
    """
    lanes = np.asarray(first, dtype=float)
    lane_comp = None
    for block in rest:
        if lane_comp is None:  # a second block: sum by lanes
            lanes, lane_comp = lanes.copy(), np.zeros(lanes.shape)
            nxt, kept, lost = (np.empty(lanes.shape) for _ in range(3))
        b = len(block)
        t, s, k, e = lanes[:b], nxt[:b], kept[:b], lost[:b]
        np.add(t, block, out=s)
        np.subtract(s, t, out=k)  # the part of block that the sum kept
        np.subtract(s, k, out=e)
        np.subtract(t, e, out=e)  # what the lane total lost in the rounding
        np.subtract(block, k, out=k)  # what block lost
        e += k
        lane_comp[:b] += e
        if b == len(lanes):
            lanes, nxt = nxt, lanes
        else:
            t[...] = s
    if lane_comp is None and len(lanes) == 2:
        return lanes[0] + lanes[1]
    comp = np.zeros(lanes.shape[1:]) if lane_comp is None else lane_comp.sum(axis=0)
    total = np.array(lanes[0], dtype=float)
    nxt, kept, lost = (np.empty(total.shape) for _ in range(3))
    for row in lanes[1:]:
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


def _block_rows(width: int) -> int:
    """Seed rows per block of the ensemble sums: at most 64, and at most
    2^15 numbers (256 KiB) per block of rows of width numbers."""
    return max(1, min(64, (1 << 15) // width))


def _aggregate(
    gaps: np.ndarray, seeds: tuple[int, ...], left: np.ndarray, f_star: float = 0.0
) -> Trajectory:
    n = gaps.shape[0]
    step = _block_rows(gaps.shape[1])
    starts = range(0, n, step)
    # gaps not finite, or far apart (their squares overflow), make TwoSum subtract
    # infinities; Trajectory and the checks below raise NumericFailure for both
    with np.errstate(over="ignore", invalid="ignore"):
        mean = _compensated_sum(gaps[:step], (gaps[i : i + step] for i in starts[1:])) / n
        if n > 1:
            devs = (gaps[i : i + step] - mean for i in starts)
            squares = (np.square(dev, out=dev) for dev in devs)
            stderr = np.sqrt(_compensated_sum(next(squares), squares) / (n - 1) / n)
        else:
            stderr = np.zeros_like(mean)
    trajectory = Trajectory(
        gaps=gaps,
        seeds=seeds,
        mean=mean,
        stderr=stderr,
        left_domain=tuple(bool(v) for v in left),
        f_star=f_star,
    )
    for what, column in (("mean", mean), ("standard error", stderr)):
        if not np.isfinite(column).all():
            k = int(np.argmin(np.isfinite(column)))
            raise NumericFailure(f"{what} {column[k]} is not finite at step {k}", index=k)
    return trajectory


def _check_cap(schedule: StepSchedule, cap: float, K: int, what: str) -> None:
    biggest = step_max(schedule, K)
    if not biggest <= cap:
        raise PreconditionError(f"largest step {biggest} exceeds the {what} cap {cap}")


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
    consecutive steps, shape (steps, width), from its own stream. Beyond the
    gap array and, if it draws, one generator per seed, a run holds one block
    of at most _BLOCK numbers, the draws and iterates of steps of all seeds,
    freed before the next: float draws as wide as the iterate become the
    iterates in place (step j reads Z_j, then stores X_{j+1} over it). A run
    that draws re-keys spare generators of earlier runs before it builds any,
    and leaves its own in the spare list, up to _SPARE_CAP of them.
    """
    K = len(alphas)
    S = max(len(seeds), 1)
    dim = problem.dimension
    rngs = None if draw is None else _run_generators(seeds)
    X = np.tile(x0, (S, 1))
    gaps = np.empty((S, K + 1))
    # largest squared norm after any step: sqrt is monotone, so a row left the
    # domain at some step exactly when the square root of its peak exceeds it
    # (fmax skips NaN, as the comparison does)
    peak = np.zeros(S)
    in_place = draw is not None and dtype is float and width == dim
    span = max(1, _BLOCK // (S * (dim + (0 if in_place or draw is None else width))))
    # overflow shows up as a gap that is not finite, which _aggregate raises
    # as NumericFailure; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        gaps[:, 0] = problem.objective(X) - problem.f_star
        for start in range(0, K, span):
            n = min(span, K - start)
            drawn = None if draw is None else np.empty((S, n, width), dtype=dtype)
            for i in range(0 if draw is None else S):  # by index: no row view outlives it
                draw(rngs[i], drawn[i])
            path = drawn if in_place else np.empty((S, n, dim))
            for j in range(n):
                X = step(X, alphas[start + j], None if drawn is None else drawn[:, j])
                path[:, j] = X
            _evaluate(problem, path, gaps[:, start + 1 : start + n + 1], peak)
            drawn = path = None  # freed before the next block is made
    if rngs:
        _spare.extend(rngs[:_SPARE_CAP])
        del _spare[_SPARE_CAP:]
    return _aggregate(gaps, seeds, np.sqrt(peak) > problem.domain_radius, problem.f_star)


def _evaluate(problem: Problem, path: np.ndarray, gaps: np.ndarray, peak: np.ndarray) -> None:
    """Write path's gaps into gaps and fold its squared norms into peak, in
    chunks of at most 2^15 numbers (or one point)."""
    rows = _block_rows(path[0].size)
    cols = max(1, (1 << 15) // (rows * path.shape[2]))
    for i, j in itertools.product(range(0, len(path), rows), range(0, path.shape[1], cols)):
        part, top = path[i : i + rows, j : j + cols], peak[i : i + rows]
        np.subtract(problem.objective(part), problem.f_star, out=gaps[i : i + rows, j : j + cols])
        np.fmax(top, np.fmax.reduce(_rowdot(part, part), axis=1), out=top)


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
    _check_cap(schedule, smoothness_cap("sgd", problem.smoothness_L), K, "descent")
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
    seeds = tuple(sorted(_checked_seeds(seeds)))
    _check_cap(schedule, smoothness_cap("sgd", problem.smoothness_L), K, "descent")
    draw = None
    if noise.kind == "additive_gaussian":
        def draw(rng: np.random.Generator, out: np.ndarray) -> None:
            rng.standard_normal(out=out)

    return _descend(
        problem,
        step_values(schedule, K),
        _start(problem, x0),
        seeds,
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
    seeds = tuple(sorted(_checked_seeds(seeds)))
    _check_cap(schedule, smoothness_cap("rr", problem.smoothness_L), K, "reshuffling")
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
        seeds,
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
    if not L < math.inf:
        raise ValueError(f"L must be finite, got {L}")
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
    # dispersion (1/N) sum (grad_i - grad)^2 is quadratic and convex in x,
    # so its sup over [-R, R] sits at an endpoint
    def dispersion(v: float) -> float:
        devs = (kap - mean_kap) * v - (kap * cen - mean_kc)
        return math.fsum(devs**2) / N

    try:  # a sum past the floats: fsum raises OverflowError, numpy FloatingPointError
        with np.errstate(over="raise", invalid="raise"):
            mean_kap = math.fsum(kap) / N
            x_star = math.fsum(kap * cen) / math.fsum(kap)
            f_star = math.fsum(kap * (x_star - cen) ** 2) / (2.0 * N)
            mean_kc = math.fsum(kap * cen) / N
            sigma_sq = max(dispersion(-radius), dispersion(radius))
    except ArithmeticError:
        sums = f"curvatures {kap.tolist()}, shifts {cen.tolist()}, radius {radius}"
        raise ValueError(f"{sums}: a mean, minimizer or dispersion leaves the floats") from None
    if abs(mean_kap - mu) > 1e-9 * max(1.0, mu):
        raise ValueError(f"mean curvature {mean_kap} must equal mu = {mu}")
    if abs(float(kap.max()) - L) > 1e-9 * max(1.0, L):
        raise ValueError(f"largest curvature {kap.max()} must equal L = {L}")

    # component terms fill a new first axis, one block of N rows summed in order
    def components(X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        shape = (N,) + (1,) * (X.ndim - 1)
        return X[..., 0], kap.reshape(shape), cen.reshape(shape)

    def objective(X: np.ndarray) -> np.ndarray:
        x, k, c = components(X)
        dev = x - c
        return _compensated_sum(k * (dev * dev)) / (2.0 * N)

    def gradient(X: np.ndarray) -> np.ndarray:
        x, k, c = components(X)
        return (_compensated_sum(k * (x - c)) / N)[..., None]

    def component_gradient(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return kap[idx, None] * (X - cen[idx, None])

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
    L = growth * (growth - 1.0) * c * _power(radius, growth - 2.0)
    for name, value in (("mu", mu), ("L", L)):
        if not (math.isfinite(value) and value > 0.0):
            problem = f"theta {theta}, c {c}, radius {radius}"
            raise ValueError(f"{name} = {value!r} is not a positive finite float ({problem})")

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
    worst = WorstMargin("pl-inequality", "sample {}".format)
    for i in range(sample_count):
        x = rng.uniform(-radius, radius, size=problem.dimension)
        gap = float(problem.objective(x)) - problem.f_star
        if gap < _gap_floor(problem.f_star):
            return CheckResult(
                check="pl-inequality",
                passed=False,
                margin=gap,
                witness_index=f"sample {i}",
                witness_value=gap,
            )
        rhs = root * max(gap, 0.0) ** theta
        margin = [float(np.linalg.norm(problem.gradient(x))) - rhs]
        worst.add(margin, margin, i, floor=1e-9 * max(1.0, rhs))
    return worst.result()


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
    checks: list[WorstMargin] = []

    if noise.kind == "additive_gaussian":
        if draws < 30:
            raise ValueError("need at least 30 draws for the stochastic check")
        mean = WorstMargin("noise-mean-zero", "state {}".format)
        variance = WorstMargin("noise-variance", "state {}".format)
        for i in range(sample_count):
            x = rng.uniform(-radius, radius, size=dim)
            gap = max(float(problem.objective(x)) - problem.f_star, 0.0)
            bound = noise.A * gap + noise.sigma**2
            scale = math.sqrt(bound / dim)
            sample = rng.standard_normal((draws, dim)) * scale
            sq = np.einsum("ij,ij->i", sample, sample)
            mean_norm = float(np.linalg.norm(sample.mean(axis=0)))
            mean_slack = [3.0 * math.sqrt(bound / draws) - mean_norm]
            var_hat = float(sq.mean())
            se = float(sq.std(ddof=1)) / math.sqrt(draws)
            var_slack = [bound + 3.0 * se - var_hat]
            mean.add(mean_slack, mean_slack, i)
            variance.add(var_slack, var_slack, i)
        checks += [mean, variance]
    else:
        variance = WorstMargin("noise-variance", "state {}".format)
        variance.add([noise.sigma**2], [noise.sigma**2])
        checks.append(variance)

    if problem.component_gradient is not None:
        N = problem.component_count
        every = np.arange(N)
        dispersion = WorstMargin("component-dispersion", "state {}".format)
        for i in range(sample_count):
            x = rng.uniform(-radius, radius, size=dim)
            devs = problem.component_gradient(np.tile(x, (N, 1)), every) - problem.gradient(x)
            disp = math.fsum(float(v) ** 2 for v in np.sqrt(_rowdot(devs, devs))) / N
            gap = max(float(problem.objective(x)) - problem.f_star, 0.0)
            bound = noise.A * gap + noise.sigma**2
            slack = [bound - disp + 1e-12 * max(1.0, bound)]
            dispersion.add(slack, slack, i)
        checks.append(dispersion)
    return [check.result() for check in checks]


def noise_free_bound(theta: float, mu: float, gap0: float, alpha_sum: float) -> float:
    """Closed-form gap bound for noise-free gradient descent.

    A power past the floats is its limit (recursions._power): gap0 = inf
    gives the limit as gap0 grows, inf where theta = 1/2 or alpha_sum = 0. A
    gap0 whose -p-th power overflows, p = 2*theta - 1, takes the form
    gap0 * (1 + p*mu*alpha_sum*gap0^p)^(-1/p): (1.0, 5e-324, 5e-324, 0.0) gives 5e-324.
    Where theta > 1/2, alpha_sum = inf gives the limit 0.0.
    """
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    for name, value in (("gap0", gap0), ("alpha_sum", alpha_sum)):
        if not value >= 0.0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be a positive finite float, got {mu}")
    if theta == 0.5:
        return gap0 * math.exp(-mu * alpha_sum) if gap0 < math.inf else gap0
    if gap0 == 0.0 or alpha_sum == math.inf:  # p*mu may underflow, and 0.0 * inf is NaN
        return 0.0
    power = 2.0 * theta - 1.0
    inverse = _power(gap0, -power)
    if inverse == math.inf:
        return gap0 * _power(1.0 + power * alpha_sum * (mu * gap0**power), -1.0 / power)
    return _power(inverse + power * mu * alpha_sum, -1.0 / power)
