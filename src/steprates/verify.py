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
    bound_const,
    bound_cos,
    bound_exp,
    bound_poly,
    offset_admissible,
    rr_constants,
    sgd_constants,
    simulate_pl_recursion,
    smallest_offset,
)
from .recursions import (
    CheckResult,
    ClassicalParams,
    FunctionDescriptor,
    PreconditionError,
    RecursionSpec,
    SuiteReport,
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

# the exponents r of the power-sum and power-difference inequality grids
DEFAULT_R_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)


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
    what they refine. Runs a tenth of the requested draws (at least one); counts holds
    draws_requested and draws_run. A draw whose lambda certificate falls
    short of its horizon ends the suite with that failed check.
    """
    run = max(1, draws // 10)
    counts = {"draws_requested": draws, "draws_run": run}

    K = 32
    spec = _example2_spec(K)
    cert = find_lambda_constant(spec)
    exact = iterate_recursion_exact(spec, 1.0, K)
    gap = max(abs(general_bound(spec, cert, 1.0, k) - exact[k + 1]) for k in range(K))
    checks = [CheckResult("example2-tightness", gap <= 1e-12, gap)]

    rng = keyed_generators([seed])[0]
    dom_worst = ext_worst = forget_worst = math.inf
    cls_worst = consistency_worst = 0.0
    dom_witness = None
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
        r0 = spec.grid.r[0]
        for k in range(horizon):
            bound = general_bound(spec, cert, a0, k)
            slack = bound - exact[k + 1]
            if slack < dom_worst:
                dom_worst, dom_witness = slack, f"draw {draw} k={k}"
            closed = classical_bound(params, a0, k)
            cls_worst = max(cls_worst, bound - closed)
            fb = forgetting_bound(spec, cert, a0, k)
            forget_worst = min(forget_worst, fb - bound)
        mid = horizon // 2
        b_mid = lam * spec.grid.r[mid + 1]
        c_mid = a0 - lam * r0
        extended = extend_bound(spec, b_mid, c_mid, 0, mid, horizon)
        ext_worst = min(ext_worst, extended - exact[horizon])

        integral = classical_spec(params, horizon, decay="integral")
        cert_i = find_lambda_constant(integral, lambda_target=lam)
        a0_hi = lam * integral.grid.r[0] * (1.0 + float(rng.uniform(0.0, 2.0)))
        for k in range(horizon):
            gb = general_bound(integral, cert_i, a0_hi, k)
            cb = classical_bound(params, a0_hi, k)
            consistency_worst = max(consistency_worst, abs(gb - cb) / max(1.0, abs(cb)))

    dominated = dom_worst >= -1e-10
    witness = (None, None) if dominated else (dom_witness, dom_worst)
    checks += [
        CheckResult("general-bound-dominates-iterates", dominated, dom_worst, *witness),
        CheckResult("closed-form-dominates-general", cls_worst <= 1e-10, cls_worst),
        CheckResult(
            "classical-general-consistency", consistency_worst <= 1e-10, consistency_worst
        ),
        CheckResult("extension-propagation", ext_worst >= -1e-10, ext_worst),
        CheckResult("forgetting-dominates-general", forget_worst >= -1e-10, forget_worst),
    ]
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
    derived = mc.derived
    cap = derived.alpha_cap
    rho, omega, q, xi = derived.rho, derived.omega, derived.q, derived.xi
    params = mc.params
    theta, tau, l2 = mc.theta, params.tau, params.l2
    if family is None:
        family = ("const", "exp", "cos", "poly")[int(rng.integers(0, 4))]
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
            n_power = mc.N ** (1.0 - 1.0 / (2.0 * theta))
            while True:
                needed = (
                    2.0
                    * p
                    * math.log(math.sqrt(mc.N) * K)
                    * n_power
                    / (theta * mc.xi_bar * alpha ** (1.0 / rho))
                )
                if K / (math.log(K) - math.log(beta)) >= needed:
                    break
                K *= 2
                if K > 32768:
                    return None
        schedule = Exponential(alpha=alpha, beta=beta, p=p, horizon=K)
        return schedule, K, lambda y0: bound_exp(mc, schedule, y0)

    menu = "ab" if theta == 0.5 else "abcd"
    chosen = poly_case if poly_case is not None else menu[int(rng.integers(0, len(menu)))]
    if chosen not in menu:
        return None
    if chosen == "a":
        p = rho * float(rng.uniform(0.2, 0.9))
        alpha = cap * float(rng.uniform(0.1, 1.0))
        floor = (2.0 * p * q / (xi * alpha ** (1.0 / rho))) ** (1.0 / (1.0 - p / rho))
        gamma = max(floor, 1.0) * (1.0 + float(rng.uniform(0.0, 2.0)))
    elif chosen == "b":
        p = rho
        alpha = (2.0 * omega / xi) ** rho * (1.0 + float(rng.uniform(0.0, 1.0)))
        gamma = (alpha / cap) ** (1.0 / p) * (1.0 + float(rng.uniform(0.0, 2.0)))
    elif chosen == "c":
        p = rho + (1.0 - rho) * float(rng.uniform(0.15, 0.9))
        u3 = (1.0 - p) / (2.0 * theta - 1.0)
        alpha = 2.0 * u3 / (theta * l2) * (1.0 + float(rng.uniform(0.0, 1.0)))
        floors = [alpha * theta * l2, (alpha * l2) ** (1.0 / p)]
        if params.l1 > 0:
            floors.append(
                (alpha ** (tau - 1.0) * params.l1 / (theta * l2)) ** (1.0 / (tau * p - 1.0))
            )
            floors.append((alpha * math.sqrt(params.l1)) ** (1.0 / p))
        if params.l3 > 0:
            floors.append(
                (alpha ** (tau - 1.0) * params.l3 / l2) ** (1.0 / (tau * p - u3 - 1.0))
            )
            floors.append((alpha * math.sqrt(params.l3)) ** (1.0 / p))
        gamma = max(floors) * (1.0 + float(rng.uniform(0.0, 2.0)))
    else:
        p = 1.0
        alpha = 2.0 / (theta * (2.0 * theta - 1.0) * l2) * (1.0 + float(rng.uniform(0.0, 1.0)))
        try:
            gamma0 = smallest_offset(params, alpha, K)
        except PreconditionError:
            return None
        guards = [gamma0, alpha * l2]
        if params.l1 > 0:
            guards.append(alpha * math.sqrt(params.l1))
        if params.l3 > 0:
            guards.append(alpha * math.sqrt(params.l3))
        gamma = max(guards) * (1.0 + float(rng.uniform(0.0, 1.0)))
        if not offset_admissible(params, alpha, K, gamma):
            gamma = gamma0
    schedule = Polynomial(alpha=alpha, gamma=gamma, p=p)
    return schedule, K, lambda y0: bound_poly(mc, schedule, y0, K)


def bounds_suite(
    draws: int,
    seed: int,
    method: str | None = None,
    family: str | None = None,
    poly_case: str | None = None,
) -> SuiteReport:
    """Every displayed bound dominates the worst-case recursion on random draws.

    method ("sgd" or "rr"), family ("const", "exp", "cos" or "poly") and
    poly_case ("a" to "d") pin the draws; each is random when omitted. A
    draw that would need an impractical horizon, or whose simulation fails,
    is resampled, up to 50 attempts per requested draw. counts holds
    dominated ("d/evaluated") and resampled.
    """
    rng = keyed_generators([seed])[0]
    worst = math.inf
    witness = None
    evaluated = 0
    dominated = 0
    resampled = 0
    attempts = 0
    while evaluated < draws and attempts < 50 * draws:
        attempts += 1
        mc = _draw_method(rng, method)
        drawn = _draw_bound_case(rng, mc, family, poly_case)
        if drawn is None:
            resampled += 1
            continue
        schedule, K, evaluate = drawn
        y0 = float(rng.uniform(0.0, 0.5 if isinstance(schedule, Polynomial) else 1.0))
        try:
            trajectory = simulate_pl_recursion(mc.params, schedule, y0, K)
        except NumericFailure:
            resampled += 1
            continue
        value = evaluate(y0).value
        slack = value - trajectory[-1]
        evaluated += 1
        if slack >= -1e-10 * max(1.0, abs(trajectory[-1])):
            dominated += 1
        elif witness is None:
            witness = f"method={mc.method} schedule={type(schedule).__name__} K={K}"
        worst = min(worst, slack)
    passed = dominated == draws and evaluated == draws
    check = CheckResult(
        check="bound-dominates-simulation",
        passed=passed,
        margin=worst,
        witness_index=witness,
        witness_value=None if passed else worst,
    )
    counts = {"dominated": f"{dominated}/{evaluated}", "resampled": resampled}
    return SuiteReport((check,), counts)


def _relabel(result: CheckResult, label: str) -> CheckResult:
    return dataclasses.replace(result, check=f"{result.check}:{label}")


def assumptions_suite(draws: int, seed: int) -> SuiteReport:
    """The PL inequality and noise-oracle moments on the synthetic problems.

    The PL checks sample max(100, min(draws, 2000)) points; the variance
    checks use 25 points and max(30, draws) noise draws each.
    """
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
