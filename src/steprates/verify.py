"""Randomized verification suites behind the paper's claims.

chung_suite checks the generalized Chung lemma on classical recursions,
bounds_suite that every displayed method bound dominates the worst-case
progress recursion, and assumptions_suite the synthetic problems' constants;
recursions.tech_inequality_suite over DEFAULT_R_GRID checks the supporting
inequalities. Each returns a recursions.SuiteReport: its checks, each with
its worst margin and, on failure, a witness, and a counts dict of the work
behind them. All randomness is keyed by the seed through
optimizers.keyed_generators, so a report is a function of its arguments.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .optimizers import (
    NoiseModel,
    keyed_generators,
    make_power_family,
    make_quadratic,
    verify_pl,
    verify_variance,
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
    CONVEXITY_TOL,
    CheckResult,
    ClassicalParams,
    FunctionDescriptor,
    PreconditionError,
    RecursionSpec,
    SuiteReport,
    WorstMargin,
    classical_bound,
    classical_lambda,
    classical_spec,
    extend_bound,
    find_lambda_constant,
    forgetting_bound,
    general_bound,
    iterate_recursion_exact,
    recursion_convexity,
)
from .schedules import Constant, Cosine, Exponential, Polynomial

# the exponents r of the power-sum and power-difference inequality grids
DEFAULT_R_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
_FAMILIES = ("const", "exp", "cos", "poly")  # the pins of bounds_suite's family


def _require_draws(draws: int) -> None:
    if draws < 1:
        raise ValueError(f"draws must be at least 1, got {draws}")


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
    _require_draws(draws)
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
    rng = keyed_generators([seed])[0]
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

    method ("sgd" or "rr"), family ("const", "exp", "cos" or "poly") and
    poly_case ("a" to "d") pin the draws (others raise ValueError); each is
    random when omitted. A draw that would need an impractical horizon, or
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
    _require_draws(draws)
    if method is not None:
        _method(method)  # the ValueError that names an unknown method
    if family not in (None, *_FAMILIES):
        raise ValueError(f"unknown family {family!r}")
    if poly_case not in (None, "a", "b", "c", "d"):
        raise ValueError(f"unknown poly_case {poly_case!r}")
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


def _relabel(result: CheckResult, label: str) -> CheckResult:
    return dataclasses.replace(result, check=f"{result.check}:{label}")


def assumptions_suite(draws: int, seed: int) -> SuiteReport:
    """The PL inequality and noise-oracle moments on the synthetic problems.

    The PL checks sample max(100, min(draws, 2000)) points; the variance
    checks use 25 points and max(30, draws) noise draws each (draws >= 1).
    """
    _require_draws(draws)
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
