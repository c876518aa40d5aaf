"""Every numeric check behind the paper's claims, and the rule they report by.

A check folds its item margins through WorstMargin into a CheckResult: the
worst margin and, on failure, the first failing item as witness. The suites
group the checks, each into a SuiteReport of its checks and a counts dict
of the work behind them: chung_suite checks the generalized Chung lemma on
classical recursions, bounds_suite that every displayed method bound
dominates the worst-case progress recursion, assumptions_suite the
synthetic problems' constants (verify_pl, verify_variance), and
tech_inequality_suite over DEFAULT_R_GRID the supporting inequalities.
recursion_convexity checks the lemma's convexity hypothesis on one spec.
All randomness is keyed by the seed through optimizers.keyed_generators,
so a report is a function of its arguments.
"""
from __future__ import annotations

import dataclasses
import math
from itertools import repeat
from typing import Callable

import numpy as np

from .domains import check
from .optimizers import (
    NoiseModel,
    Problem,
    _gap_floor,
    _rowdot,
    keyed_generators,
    make_power_family,
    make_quadratic,
)
from .plbounds import (
    MethodConstants,
    NumericFailure,
    _method,
    bound_const,
    bound_cos,
    bound_exp,
    bound_poly,
    exp_horizon_floor,
    offset_admissible,
    poly_alpha_floor,
    poly_gamma_floor,
    rr_constants,
    sgd_constants,
    simulate_pl_finals,
    simulate_pl_lanes,
    smallest_offset,
)
from .recursions import (
    ClassicalParams,
    FunctionDescriptor,
    PreconditionError,
    RecursionSpec,
    classical_bound,
    classical_lambda,
    classical_spec,
    extend_bound,
    find_lambda_constant,
    forgetting_bound,
    general_bound,
    iterate_recursion_exact,
)
from .schedules import Constant, Cosine, Exponential, Polynomial


@dataclasses.dataclass(frozen=True)
class CheckResult:
    """One verification outcome; serializes to the report JSON schema."""

    check: str
    passed: bool
    margin: float
    witness_index: str | None = None
    witness_value: float | None = None


class WorstMargin:
    """One check's CheckResult, streamed over its items in rows.

    The rule every check follows: the margin is the first least item margin,
    as min() takes it (NaN if any is NaN, +inf with no items); an item fails
    when its margin is below -floor, the tolerance given with its row; the
    check passes only when no item fails and no margin is NaN; the witness
    is the first failing item, so never a NaN. `add` keeps what a scan of
    all items would find without storing them. Item i of a row added with
    `where` is labelled label(*where, i), formatted only for the witness.
    """

    __slots__ = ("name", "label", "margin", "witness")

    def __init__(self, name: str, label: Callable[..., str]) -> None:
        self.name = name
        self.label = label
        self.margin: float | None = None
        self.witness: tuple | None = None

    def add(self, margins, values, *where, floor: float = 0.0) -> None:
        """Fold in one nonempty row of item margins and the values they
        witness, each a list of floats or a numpy array."""
        # the first NaN, else the first least item: of 0.0 and -0.0, min()'s
        # pick; a one-item row is read as it is, without numpy's list conversion
        low = float(margins[0] if len(margins) == 1 else margins[np.argmin(margins)])
        if self.margin is None or low < self.margin or low != low:
            self.margin = low  # a NaN, once in, stays: nothing is below it
        if self.witness is None and not low >= -floor:
            for i, m in enumerate(margins):
                if m < -floor:
                    self.witness = (float(values[i]), self.label(*where, i))
                    return

    def result(self) -> CheckResult:
        margin = math.inf if self.margin is None else self.margin
        if self.witness is None:
            return CheckResult(self.name, not math.isnan(margin), margin)
        value, label = self.witness
        return CheckResult(self.name, False, margin, label, value)


@dataclasses.dataclass(frozen=True)
class SuiteReport:
    """A suite's checks and its counts of the work behind them (draws, resamples)."""

    checks: tuple[CheckResult, ...] = dataclasses.field(default_factory=tuple)
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


CONVEXITY_SUBDIVISIONS = 8  # equal parts of each gap of the b_k grid
CONVEXITY_TOL = 1e-9  # the relative chord slack an item of ratio-convex may lack


def recursion_convexity(spec: RecursionSpec) -> CheckResult:
    """The lemma's hypothesis that r is convex, as the check ratio-convex.

    Each gap of the b_k grid (which need not be uniform or increasing) is
    cut into equal parts; on the sorted points, each interior point is an
    item with margin (chord - r)/max|r|, the largest |r| among the item's
    three points (margin 0 where all three are 0), so the floor is relative
    to the ratio's own scale. The witness value is the first failing point;
    a ratio NaN or infinite at any point fails with margin NaN.
    """
    b, n = spec.grid.b, CONVEXITY_SUBDIVISIONS
    points = [x0 + (x1 - x0) * j / n for x0, x1 in zip(b, b[1:]) for j in range(n)]
    points = sorted(points + [b[-1]])
    grid = [points[0]]
    span = max(1.0, abs(points[-1] - points[0]))
    for x in points[1:]:
        if x - grid[-1] > 1e-12 * span:
            grid.append(x)
    values = [spec.r(x) for x in grid]
    margins = []
    for x0, x1, x2, v0, v1, v2 in zip(grid, grid[1:], grid[2:], values, values[1:], values[2:]):
        slack = ((x2 - x1) * v0 + (x1 - x0) * v2) / (x2 - x0) - v1
        scale = max(abs(v0), abs(v1), abs(v2))
        # scale 0: three zeros (slack 0) or a NaN that max() passed over (slack NaN)
        margins.append(slack / scale if scale else slack)
    worst = WorstMargin("ratio-convex", lambda i: f"x={grid[i + 1]:.6g}")
    if margins:
        worst.add(margins, grid[1:-1], floor=CONVEXITY_TOL)
    return worst.result()


# the exponents r of the power-sum and power-difference inequality grids
DEFAULT_R_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
_FAMILIES = ("const", "exp", "cos", "poly")  # the pins of bounds_suite's family


def draw_classical_params(rng: np.random.Generator, nu_one: bool) -> ClassicalParams:
    """Random classical-recursion parameters whose offset gamma is admissible.

    nu_one draws the nu = 1 case (q < c, gamma > c); otherwise nu lies in
    [0.3, 0.95] and gamma clears both of its floors. c is drawn first.
    """
    c = float(rng.uniform(0.5, 2.5))
    if nu_one:
        return ClassicalParams(
            c=c,
            d=float(rng.uniform(0.2, 4.0)),
            nu=1.0,
            q=c * float(rng.uniform(0.1, 0.8)),
            gamma=c + float(rng.uniform(0.1, 6.0)),
        )
    nu = float(rng.uniform(0.3, 0.95))
    q = float(rng.uniform(0.2, 1.5))
    gamma = max(c ** (1.0 / nu), (q / c) ** (1.0 / (1.0 - nu))) * (
        1.0 + float(rng.uniform(0.05, 2.0))
    )
    return ClassicalParams(c=c, d=float(rng.uniform(0.2, 4.0)), nu=nu, q=q, gamma=gamma)


def _example2_spec(K: int) -> RecursionSpec:
    return RecursionSpec(
        s=FunctionDescriptor(fn=lambda x: 2.0, label="s=2"),
        t=FunctionDescriptor(fn=lambda x: 4.0, label="t=4"),
        b=float,
        interval=(0.0, float(K)),
        horizon=K,
        ratio=FunctionDescriptor(fn=lambda x: 0.5, derivative=lambda x: 0.0, label="r=1/2"),
    )


def chung_suite(draws: int, seed: int) -> SuiteReport:
    """The generalized Chung lemma on Example 2 and on random classical recursions.

    The general bound is tight on Example 2 and dominates the equality
    recursion on each draw; the closed form dominates it, the integral-decay
    form agrees with it, and the extension and forgetting bounds dominate
    what they refine; ratio-convex holds one item per draw. The two decay
    forms share b, t and the ratio, so the direct form's lambda certificate
    and convexity result stand for both. draws must be at least 1, and a
    tenth of them run (at least one); counts holds draws_requested and
    draws_run. A draw whose lambda certificate falls short of its horizon
    ends the suite with that failed check.
    """
    check(draws=draws)
    rng = keyed_generators([seed])[0]
    run = max(1, draws // 10)
    counts = {"draws_requested": draws, "draws_run": run}

    K = 32
    spec = _example2_spec(K)
    cert = find_lambda_constant(spec)
    exact = iterate_recursion_exact(spec, 1.0, K)
    tight = WorstMargin("example2-tightness", "k={}".format)
    gaps = [-abs(general_bound(spec, cert, 1.0, k) - exact[k + 1]) for k in range(K)]
    tight.add(gaps, gaps, floor=1e-12)
    checks = [tight.result()]

    # every margin is a slack, negative where the claim is violated
    per_k = "draw {} k={}".format
    dominates = WorstMargin("general-bound-dominates-iterates", per_k)
    closed_form = WorstMargin("closed-form-dominates-general", per_k)
    consistency = WorstMargin("classical-general-consistency", per_k)
    extension = WorstMargin("extension-propagation", "draw {}".format)
    forgetting = WorstMargin("forgetting-dominates-general", per_k)
    convex = WorstMargin("ratio-convex", "draw {}".format)
    for draw in range(run):
        params = draw_classical_params(rng, rng.uniform() < 0.3)
        horizon = int(rng.integers(4, 80))
        spec = classical_spec(params, horizon)
        lam = classical_lambda(params)
        cert = find_lambda_constant(spec, lambda_target=lam)
        if cert.certified_horizon < horizon:
            witness = (f"draw {draw}", float(cert.certified_horizon))
            checks.append(
                CheckResult("classical-lambda-feasible", False, cert.condition_margin, *witness)
            )
            return SuiteReport(tuple(checks), counts)
        a0 = float(rng.uniform(0.0, 3.0))
        exact = iterate_recursion_exact(spec, a0, horizon)
        bounds = [general_bound(spec, cert, a0, k) for k in range(horizon)]
        slacks = [bound - exact[k + 1] for k, bound in enumerate(bounds)]
        dominates.add(slacks, slacks, draw, floor=1e-10)
        slacks = [classical_bound(params, a0, k) - bound for k, bound in enumerate(bounds)]
        closed_form.add(slacks, slacks, draw, floor=1e-10)
        slacks = [forgetting_bound(spec, cert, a0, k) - bound for k, bound in enumerate(bounds)]
        forgetting.add(slacks, slacks, draw, floor=1e-10)
        mid = horizon // 2
        b_mid = lam * spec.grid.r[mid + 1]
        c_mid = a0 - lam * spec.grid.r[0]
        slacks = [extend_bound(spec, b_mid, c_mid, 0, mid, horizon) - exact[horizon]]
        extension.add(slacks, slacks, draw, floor=1e-10)

        integral = classical_spec(params, horizon, decay="integral")
        a0_hi = lam * integral.grid.r[0] * (1.0 + float(rng.uniform(0.0, 2.0)))
        slacks = []
        for k in range(horizon):
            gb = general_bound(integral, cert, a0_hi, k)
            cb = classical_bound(params, a0_hi, k)
            slacks.append(-abs(gb - cb) / max(1.0, abs(cb)))
        consistency.add(slacks, slacks, draw, floor=1e-10)
        result = recursion_convexity(spec)  # one item per draw, at its own floor
        convex.add([result.margin], [result.witness_value], draw, floor=CONVEXITY_TOL)

    folded = (dominates, closed_form, consistency, extension, forgetting, convex)
    checks += [c.result() for c in folded]
    return SuiteReport(tuple(checks), counts)


def _draw_method(rng: np.random.Generator, method: str | None = None) -> MethodConstants:
    u = rng.uniform()
    theta = 0.5 if u < 0.25 else (1.0 if u > 0.75 else float(rng.uniform(0.5, 1.0)))
    mu = float(rng.uniform(0.3, 1.0))
    A = 0.0 if rng.uniform() < 0.5 else float(rng.uniform(0.0, 1.0))
    sigma = float(rng.uniform(0.1, 1.0))
    if method is None:
        method = "sgd" if rng.uniform() < 0.5 else "rr"
    if method == "sgd":
        return sgd_constants(theta=theta, L=1.0, mu=mu, A=A, sigma=sigma)
    return rr_constants(theta=theta, L=1.0, mu=mu, A=A, sigma=sigma, N=int(rng.integers(1, 9)))


def _draw_bound_case(
    rng: np.random.Generator,
    mc: MethodConstants,
    family: str | None = None,
    poly_case: str | None = None,
):
    """One (schedule, K, evaluator) whose preconditions hold by construction.

    Returns None when the draw would need an impractically long horizon to
    satisfy its preconditions; the caller resamples. family and poly_case
    pin the draw to one bound (randomized when omitted).
    """
    derived, params = mc.derived, mc.params
    cap, rho = derived.alpha_cap, derived.rho
    if family is None:
        family = _FAMILIES[int(rng.integers(0, len(_FAMILIES)))]
    K = int(rng.integers(4, 257))
    if family == "const":
        schedule = Constant(alpha=cap * float(rng.uniform(0.1, 1.0)))
        return schedule, K, lambda y0: bound_const(mc, schedule, y0, K)
    if family == "cos":
        schedule = Cosine(
            alpha=cap * float(rng.uniform(0.1, 1.0)), p=float(rng.uniform(0.3, 2.0)), horizon=K
        )
        return schedule, K, lambda y0: bound_cos(mc, schedule, y0)
    if family == "exp":
        alpha = cap * float(rng.uniform(0.1, 1.0))
        p = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(1.0, 4.0))
        K = max(K, int(math.ceil(2.0 * beta)))
        if mc.method == "rr":
            while K / (math.log(K) - math.log(beta)) < exp_horizon_floor(mc, alpha, p, K):
                K *= 2
                if K > 32768:
                    return None
        schedule = Exponential(alpha=alpha, beta=beta, p=p, horizon=K)
        return schedule, K, lambda y0: bound_exp(mc, schedule, y0)

    menu = "ab" if mc.theta == 0.5 else "abcd"
    chosen = poly_case if poly_case is not None else menu[int(rng.integers(0, len(menu)))]
    if chosen not in menu:
        return None
    if chosen == "a":
        p = rho * float(rng.uniform(0.2, 0.9))
        alpha = cap * float(rng.uniform(0.1, 1.0))
        floor = poly_gamma_floor(params, derived, "a", alpha, p)
        gamma = max(floor, 1.0) * (1.0 + float(rng.uniform(0.0, 2.0)))
    elif chosen == "b":
        p = rho
        alpha = poly_alpha_floor(params, derived, "b", p) * (1.0 + float(rng.uniform(0.0, 1.0)))
        gamma = (alpha / cap) ** (1.0 / p) * (1.0 + float(rng.uniform(0.0, 2.0)))
    else:
        p = rho + (1.0 - rho) * float(rng.uniform(0.15, 0.9)) if chosen == "c" else 1.0
        alpha = poly_alpha_floor(params, derived, chosen, p) * (1.0 + float(rng.uniform(0.0, 1.0)))
        # the first step alpha/gamma^p also stays within 1/l2, 1/sqrt(l1) and
        # 1/sqrt(l3): guards of the simulated recursion, not of the bound
        roots = [alpha * params.l2]
        roots += [alpha * math.sqrt(c) for c in (params.l1, params.l3) if c > 0]
        if chosen == "c":
            floor = poly_gamma_floor(params, derived, "c", alpha, p)
            gamma = max(floor, *(r ** (1.0 / p) for r in roots))
            gamma *= 1.0 + float(rng.uniform(0.0, 2.0))
        else:
            try:
                gamma0 = smallest_offset(params, alpha, K)
            except PreconditionError:
                return None
            gamma = max(gamma0, *roots) * (1.0 + float(rng.uniform(0.0, 1.0)))
            if not offset_admissible(params, alpha, K, gamma):
                gamma = gamma0
    schedule = Polynomial(alpha=alpha, gamma=gamma, p=p)
    return schedule, K, lambda y0: bound_poly(mc, schedule, y0, K)


# The screen's y_K and smallest y lie within _SCREEN * max(1, |y_K|) of the
# scalar recursion's: the largest gap over the 22,000 lanes that criterion
# 2's twelve batteries and ten default seeds of 1000 draws run was 2.2e-16.
_SCREEN = 1e-12


def _scalar_final(lane: tuple) -> float | None:
    """y_K of simulate_pl_recursion, or None where it raises NumericFailure."""
    try:
        return simulate_pl_finals([lane])[0]
    except NumericFailure:
        return None


def _confirmed_slacks(drawn: list[tuple]) -> list[tuple[float, float] | None]:
    """(slack, floor) of each drawn case, or None where its simulation fails.

    One simulate_pl_lanes batch screens the cases; the scalar recursion
    re-runs every lane that the batch flags or whose smallest y comes within
    the screen's tolerance of 0, and then every lane whose slack, within the
    tolerance, could be the worst or could be below -floor. A lane not
    re-run keeps its batch y_K, which decides nothing its scalar value
    would decide otherwise.
    """
    lanes = [(mc.params, schedule, y0, K) for mc, schedule, y0, K, _ in drawn]
    batch, smallest, flagged = simulate_pl_lanes(lanes)
    finals = batch.tolist()
    tolerance = [_SCREEN * max(1.0, abs(y)) for y in finals]
    confirmed = set(np.flatnonzero(flagged | (smallest <= tolerance)).tolist())
    for i in sorted(confirmed):
        finals[i] = _scalar_final(lanes[i])
    values = [
        None if y is None else evaluate(y0).value
        for y, (_, _, y0, _, evaluate) in zip(finals, drawn)
    ]
    slacks = [None if v is None else v - y for v, y in zip(values, finals)]
    worst = min((s + t for s, t in zip(slacks, tolerance) if s is not None), default=math.inf)
    for i, slack in enumerate(slacks):
        if slack is None or i in confirmed:
            continue
        floor = 1e-10 * max(1.0, abs(finals[i]))
        if slack - tolerance[i] <= worst or slack + floor <= tolerance[i]:
            finals[i] = _scalar_final(lanes[i])
            slacks[i] = None if finals[i] is None else values[i] - finals[i]
    return [
        None if s is None else (s, 1e-10 * max(1.0, abs(y))) for s, y in zip(slacks, finals)
    ]


def bounds_suite(
    draws: int,
    seed: int,
    method: str | None = None,
    family: str | None = None,
    poly_case: str | None = None,
) -> SuiteReport:
    """Every displayed bound dominates the worst-case recursion on random draws.

    method ("sgd" or "rr"), family ("const", "exp", "cos" or "poly") and,
    with family "poly", poly_case ("a" to "d") pin the draws (others raise
    ValueError); each is random when omitted. A draw that would need an impractical horizon, or
    whose simulation fails, is resampled, up to 50 attempts per requested
    draw (at least 1). counts holds dominated ("d/evaluated") and resampled.

    Screen, then confirm: a round draws attempts until it holds
    draws - evaluated cases (within the 50 x draws cap), and its recursions
    run as one simulate_pl_lanes batch; only a failed simulation leaves
    draws for another round. The scalar recursion (simulate_pl_finals on
    one of the batch's lanes) re-runs every lane that the batch flags or
    whose smallest y is within 1e-12 * max(1, |y_K|) of 0, and every lane
    whose slack is within that tolerance of the round's worst or of -floor,
    or below it. The simulation draws no random numbers, so the attempts,
    the accepted draws and the resamples are those of a draw-by-draw loop,
    and the report is bit for bit the one that loop with
    simulate_pl_recursion writes.
    """
    check(draws=draws)
    if method is not None:
        _method(method)  # the ValueError that names an unknown method
    if family not in (None, *_FAMILIES):
        raise ValueError(f"unknown family {family!r}")
    if poly_case not in (None, "a", "b", "c", "d"):
        raise ValueError(f"unknown poly_case {poly_case!r}")
    if poly_case is not None and family != "poly":
        raise ValueError(f"poly_case {poly_case!r} pins a polynomial draw, not family {family!r}")
    rng = keyed_generators([seed])[0]
    worst = WorstMargin("bound-dominates-simulation", "method={} schedule={} K={}".format)
    evaluated = dominated = resampled = attempts = 0
    while evaluated < draws and attempts < 50 * draws:
        drawn = []
        while len(drawn) < draws - evaluated and attempts < 50 * draws:
            attempts += 1
            mc = _draw_method(rng, method)
            case = _draw_bound_case(rng, mc, family, poly_case)
            if case is None:
                resampled += 1
                continue
            schedule, K, evaluate = case
            y0 = float(rng.uniform(0.0, 0.5 if isinstance(schedule, Polynomial) else 1.0))
            drawn.append((mc, schedule, y0, K, evaluate))
        for (mc, schedule, _, K, _), outcome in zip(drawn, _confirmed_slacks(drawn)):
            if outcome is None:
                resampled += 1
                continue
            slack, floor = outcome
            evaluated += 1
            dominated += slack >= -floor
            worst.add([slack], [slack], mc.method, type(schedule).__name__, K, floor=floor)
    if evaluated < draws:  # the attempts ran out; a draw never evaluated has no margin
        worst.add([math.nan], [])
    counts = {"dominated": f"{dominated}/{evaluated}", "resampled": resampled}
    return SuiteReport((worst.result(),), counts)


def _box_point(rng: np.random.Generator, problem: Problem) -> tuple[np.ndarray, float]:
    """A uniform draw from the certified box and its gap f(x) - f*."""
    radius = problem.domain_radius
    x = rng.uniform(-radius, radius, size=problem.dimension)
    return x, float(problem.objective(x)) - problem.f_star


def verify_pl(problem: Problem, sample_count: int, seed: int) -> CheckResult:
    """Sample the gradient-domination inequality inside the certified box."""
    check(sample_count=sample_count)
    rng = keyed_generators([seed])[0]
    root = math.sqrt(2.0 * problem.pl_mu)
    theta, least = problem.pl_theta, _gap_floor(problem.f_star)
    worst = WorstMargin("pl-inequality", "sample {}".format)
    for i in range(sample_count):
        x, gap = _box_point(rng, problem)
        if gap < least:
            return CheckResult("pl-inequality", False, gap, f"sample {i}", gap)
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
    check(sample_count=sample_count, draws=draws)
    rng = keyed_generators([seed])[0]
    dim = problem.dimension
    checks: list[WorstMargin] = []

    variance = WorstMargin("noise-variance", "state {}".format)
    if noise.kind == "additive_gaussian":
        if draws < 30:
            raise ValueError("need at least 30 draws for the stochastic check")
        mean = WorstMargin("noise-mean-zero", "state {}".format)
        for i in range(sample_count):
            x, gap = _box_point(rng, problem)
            bound = noise.A * max(gap, 0.0) + noise.sigma**2
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
        variance.add([noise.sigma**2], [noise.sigma**2])
        checks.append(variance)

    if problem.component_gradient is not None:
        N = problem.component_count
        every = np.arange(N)
        dispersion = WorstMargin("component-dispersion", "state {}".format)
        for i in range(sample_count):
            x, gap = _box_point(rng, problem)
            devs = problem.component_gradient(np.tile(x, (N, 1)), every) - problem.gradient(x)
            disp = math.fsum(float(v) ** 2 for v in np.sqrt(_rowdot(devs, devs))) / N
            bound = noise.A * max(gap, 0.0) + noise.sigma**2
            slack = [bound - disp + 1e-12 * max(1.0, bound)]
            dispersion.add(slack, slack, i)
        checks.append(dispersion)
    return [check.result() for check in checks]


def _relabel(result: CheckResult, label: str) -> CheckResult:
    return dataclasses.replace(result, check=f"{result.check}:{label}")


def assumptions_suite(draws: int, seed: int) -> SuiteReport:
    """The PL inequality and noise-oracle moments on the synthetic problems.

    The PL checks sample max(100, min(draws, 2000)) points; the variance
    checks use 25 points and max(30, draws) noise draws each (draws >= 1).
    """
    check(draws=draws)
    keyed_generators([seed])  # the seed's check; each check keys its own
    checks: list[CheckResult] = []
    samples = max(100, min(draws, 2000))
    gaussian = NoiseModel(kind="additive_gaussian", sigma=1.0)

    equality = make_quadratic(1.0, 1.0, 1)
    checks.append(_relabel(verify_pl(equality, samples, seed), "quadratic-equality"))
    spectrum = make_quadratic(1.0, 2.0, 3)
    checks.append(_relabel(verify_pl(spectrum, samples, seed + 1), "quadratic-spectrum"))
    power = make_power_family(2.0 / 3.0, 1.0, 2.0)
    checks.append(_relabel(verify_pl(power, samples, seed + 2), "power-two-thirds"))

    for result in verify_variance(equality, gaussian, 25, max(30, draws), seed + 3):
        checks.append(_relabel(result, "gaussian-oracle"))
    two_point = make_quadratic(1.0, 1.0, 1, N=2)
    for result in verify_variance(two_point, gaussian, 25, max(30, draws), seed + 4):
        checks.append(_relabel(result, "two-point-sum"))
    return SuiteReport(tuple(checks))


# --- grid checks of the supporting inequalities -----------------------------


def _log_bound_check() -> CheckResult:
    xs = [-1.0] + [-1.0 + 0.01 * i for i in range(1, 200)] + [float(i) for i in range(1, 100)]
    worst = WorstMargin("log-upper-bound", lambda i: f"x={xs[i]:.6g}")
    lhs = [math.log1p(x) if x > -1.0 else -math.inf for x in xs]
    worst.add([x - lv for x, lv in zip(xs, lhs)], xs)
    return worst.result()


def _product_exp_check(k_max: int) -> CheckResult:
    margins, values = [], []
    n = 1
    case = 0
    while n <= k_max:
        for offset in (0.0, 0.37, 1.9):
            xs = [-1.0 + 2.5 * math.modf(0.6180339887498949 * (i + 1) + offset)[0] for i in range(n)]
            prod = math.prod(1.0 + x for x in xs)
            margins.append(math.exp(math.fsum(xs)) - prod)
            values.append(prod)
            case += 1
        n *= 2
    margins.append(math.exp(0.0) - 1.0)  # equality case
    values.append(1.0)
    # item i < case is set i, the third of its n's; the last is the equality case
    worst = WorstMargin(
        "product-exp-bound", lambda i: "n=3,zeros" if i == case else f"n={2 ** (i // 3)},set={i}"
    )
    worst.add(margins, values)
    return worst.result()


def _power_difference_check(r_grid: list[float]) -> CheckResult:
    grid = [10.0 ** (-2.0 + 4.0 * i / 24.0) for i in range(25)]
    worst = WorstMargin(
        "power-difference-bound", lambda r, x, i: f"r={r},x={x:.4g},y={grid[i]:.4g}"
    )
    for r in list(r_grid) + [1e-3, 10.0]:
        for x in grid:
            lhs = [x**r - y**r for y in grid]
            rhs = [r * y**r * (x - y) / x for y in grid]
            worst.add([lv - rv for lv, rv in zip(lhs, rhs)], lhs, r, x)
    return worst.result()


def _cosine_checks(k_max: int, r_grid: list[float]) -> tuple[CheckResult, ...]:
    """The cosine brackets, shifted and increment estimates and power-sum floor.

    They share row K: cos(k*pi/K) and (1 - k/K)**2 for k = 0..K, each taken
    once by math.cos and Python's **. The + - * / on the rows run in numpy,
    which rounds each element as Python does; the power sum keeps pow and fsum.
    """
    lower = WorstMargin("cosine-lower-bracket", "K={},k={}".format)
    upper = WorstMargin("cosine-upper-bracket", "K={},k={}".format)
    shifted = WorstMargin("cosine-shifted-lower", "K={},k={}".format)
    increment = WorstMargin("cosine-increment-lower", "K={},k={}".format)
    power_sum = WorstMargin("cosine-power-sum", lambda K, i: f"K={K},r={r_grid[i]}")
    for K in range(1, k_max + 1):
        ks = np.arange(K + 1.0)
        cos = np.array(list(map(math.cos, (ks * math.pi / K).tolist())))
        fracs = 1.0 - ks / K
        squares = np.array(list(map(pow, fracs.tolist(), repeat(2))))
        mids = 1.0 + cos
        lower.add(mids - 2.0 * squares, mids, K)
        upper.add((math.pi**2 / 2.0) * squares - mids, mids, K)
        if K > 1:  # k = 0..K-2 against cos((k + 1)*pi/K)
            lhs = mids[1:K]
            shifted.add(lhs - 0.5 * squares[: K - 1], lhs, K)
        lhs = cos[1:] - cos[:-1]
        increment.add(lhs + (math.pi**2 / K) * fracs[:K], lhs, K)
        bases = (mids[:K] / 2.0).tolist()
        totals = [math.fsum(map(pow, bases, repeat(r, K))) for r in r_grid]
        power_sum.add([t - K / 2.0 ** max(1.0, r) for t, r in zip(totals, r_grid)], totals, K)
    return tuple(worst.result() for worst in (lower, upper, shifted, increment, power_sum))


def _integral_sandwich_check(k_max: int) -> CheckResult:
    margins, values, keys = [], [], []
    spans = [(0, 10), (3, 100), (0, k_max)]
    for nu in (0.3, 0.5, 1.0, 1.7):
        for gamma in (0.5, 2.0, 10.0):
            if nu == 1.0:
                antideriv = lambda x, g=gamma: math.log(x + g)
            else:
                antideriv = lambda x, g=gamma, n=nu: (x + g) ** (1.0 - n) / (1.0 - n)
            f = lambda x, g=gamma, n=nu: (x + g) ** (-n)
            for a, b in spans:
                total = math.fsum(f(k) for k in range(a, b + 1))
                low = antideriv(b + 1) - antideriv(a)
                high = f(a) + antideriv(b) - antideriv(a)
                margins += [total - low, high - total]
                values += [total, total]
                keys += [(nu, gamma, a, b, "lower"), (nu, gamma, a, b, "upper")]
    worst = WorstMargin(
        "integral-sandwich", lambda i: "nu={},gamma={},a={},b={},{}".format(*keys[i])
    )
    worst.add(margins, values)
    return worst.result()


def tech_inequality_suite(K_max: int, r_grid: list[float]) -> SuiteReport:
    """Verify the supporting inequalities on exhaustive grids up to K_max.

    Covers the logarithm upper bound, the product-vs-exponential bound, the
    power-difference bound, the three cosine estimates, the cosine power-sum
    floor, and the integral sandwich for decreasing power functions. The
    cosine checks share one row per K of cos(k*pi/K) and (1 - k/K)**2.
    """
    check(K_max=K_max)
    if not r_grid or any(r <= 0 for r in r_grid):
        raise ValueError("r_grid must contain positive reals")
    checks = (
        _log_bound_check(),
        _product_exp_check(K_max),
        _power_difference_check(list(r_grid)),
        *_cosine_checks(K_max, list(r_grid)),
        _integral_sandwich_check(K_max),
    )
    return SuiteReport(checks=checks)
