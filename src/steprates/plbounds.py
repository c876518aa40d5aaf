"""Convergence bounds for stochastic optimization under gradient domination.

Methods whose expected progress obeys
y_{k+1} <= (1 + l1*a_k^tau) y_k - l2*a_k*y_k^(2*theta) + l3*a_k^tau
admit closed-form rates for each step-size family. This module derives the
scaling constants of that analysis (noise scale zeta, contraction scale xi,
balance exponents rho/omega/q, admissible step cap), simulates the worst-case
equality recursion, rewrites the relaxed recursion as an affine recursion for
the machinery in recursions.py, and evaluates the displayed bound of every
method/schedule combination, including the horizon-tuned step choices.

Two methods are built in: single-sample stochastic gradient descent (tau = 2)
and random reshuffling over N components (tau = 3), each with its own
smoothness cap and N-scaled constants.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Sequence

from .recursions import FunctionDescriptor, PreconditionError, RecursionSpec
from .schedules import (
    Constant,
    Cosine,
    Exponential,
    Polynomial,
    StepSchedule,
    step_max,
    step_values,
)


class NumericFailure(RuntimeError):
    """A simulation left its admissible region; index points at the bad step."""

    def __init__(self, message: str, index: int) -> None:
        super().__init__(message)
        self.index = index


@dataclass(frozen=True)
class PLParams:
    """Coefficients of the per-step progress recursion.

    l3 = 0 is allowed (noise-free recursions); l1 = 0 corresponds to noise
    whose second moment does not grow with the objective gap.
    """

    l1: float
    l2: float
    l3: float
    tau: float
    theta: float

    def __post_init__(self) -> None:
        if not self.l1 >= 0:
            raise ValueError(f"l1 must be nonnegative, got {self.l1}")
        if not self.l2 > 0:
            raise ValueError(f"l2 must be positive, got {self.l2}")
        if not self.l3 >= 0:
            raise ValueError(f"l3 must be nonnegative, got {self.l3}")
        if not self.tau > 1:
            raise ValueError(f"tau must exceed 1, got {self.tau}")
        if not 0.5 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [1/2, 1], got {self.theta}")


@dataclass(frozen=True)
class DerivedConstants:
    """Scaling constants derived from PLParams and the free parameter delta."""

    delta: float
    zeta: float
    xi: float
    rho: float
    omega: float
    q: float
    frak_p: float
    alpha_cap: float


@dataclass(frozen=True)
class MethodConstants:
    """Derived constants specialized to a method, with its smoothness cap.

    zeta_bar/xi_bar are the N-free variants appearing in the reshuffling
    theorem displays; for single-sample SGD they equal derived.zeta/xi.
    """

    method: str
    theta: float
    L: float
    mu: float
    A: float
    sigma: float
    N: int | None
    params: PLParams
    derived: DerivedConstants
    zeta_bar: float
    xi_bar: float


@dataclass(frozen=True)
class BoundResult:
    """A theorem bound split into its noise floor and forgotten-start term."""

    value: float
    noise_term: float
    init_term: float
    regime: str
    constants_used: DerivedConstants
    details: dict = field(default_factory=dict)


_REL = 1e-12  # relative slack applied to inequality preconditions


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


def frak_p(theta: float) -> float:
    """(2*theta-1)^(2*theta-1) with 0^0 = 1; lies in [e^(-1/e), 1]."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    return (2.0 * theta - 1.0) ** (2.0 * theta - 1.0)


def descent_coefficients(
    method: str,
    L: float,
    mu: float,
    A: float,
    sigma: float,
    N: int | None = None,
    theta: float = 0.5,
) -> PLParams:
    """Per-step recursion coefficients guaranteed by the descent analysis.

    SGD: (A*L/2, mu, L*sigma^2/2), tau = 2, valid for steps up to 1/L.
    Random reshuffling: (A*L^2/(2N), mu/2, L^2*sigma^2/(2N)), tau = 3,
    valid for steps up to 1/(2L).
    """
    if not (L > 0 and mu > 0):
        raise ValueError("L and mu must be positive")
    if A < 0 or sigma < 0:
        raise ValueError("A and sigma must be nonnegative")
    kind = method.lower()
    if kind == "sgd":
        return PLParams(l1=A * L / 2.0, l2=mu, l3=L * sigma**2 / 2.0, tau=2.0, theta=theta)
    if kind == "rr":
        if N is None or N < 1:
            raise ValueError("random reshuffling needs a positive component count N")
        return PLParams(
            l1=A * L**2 / (2.0 * N),
            l2=mu / 2.0,
            l3=L**2 * sigma**2 / (2.0 * N),
            tau=3.0,
            theta=theta,
        )
    raise ValueError(f"unknown method {method!r}")


def smoothness_cap(method: str, L: float) -> float:
    """Largest step admissible for the descent analysis itself."""
    kind = method.lower()
    if kind == "sgd":
        return 1.0 / L
    if kind == "rr":
        return 1.0 / (2.0 * L)
    raise ValueError(f"unknown method {method!r}")


def derive_constants(params: PLParams, delta: float) -> DerivedConstants:
    """Scaling constants of the relaxed recursion for a given delta > 0."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    theta, tau = params.theta, params.tau
    two_theta = 2.0 * theta
    zeta = max((two_theta - 1.0) * delta, (params.l3 / params.l2) ** (1.0 / two_theta))
    xi = theta * params.l2 * zeta ** (two_theta - 1.0)
    denom = (two_theta - 1.0) * tau + 1.0
    rho = two_theta / denom
    omega = (tau - 1.0) / denom
    q = (tau - 1.0) / two_theta
    fp = frak_p(theta)
    if params.l1 > 0:
        growth_cap = (theta * fp * params.l2 * delta ** (two_theta - 1.0) / params.l1) ** (
            two_theta / (tau - 1.0)
        )
    else:
        growth_cap = math.inf
    alpha_cap = min(growth_cap, xi ** (-rho))
    return DerivedConstants(
        delta=delta,
        zeta=zeta,
        xi=xi,
        rho=rho,
        omega=omega,
        q=q,
        frak_p=fp,
        alpha_cap=alpha_cap,
    )


def sgd_constants(theta: float, L: float, mu: float, A: float, sigma: float) -> MethodConstants:
    """Constants for single-sample SGD (delta = 1, tau = 2)."""
    params = descent_coefficients("sgd", L, mu, A, sigma, theta=theta)
    derived = derive_constants(params, delta=1.0)
    derived = replace(derived, alpha_cap=min(derived.alpha_cap, smoothness_cap("sgd", L)))
    return MethodConstants(
        method="sgd",
        theta=theta,
        L=L,
        mu=mu,
        A=A,
        sigma=sigma,
        N=None,
        params=params,
        derived=derived,
        zeta_bar=derived.zeta,
        xi_bar=derived.xi,
    )


def rr_constants(
    theta: float, L: float, mu: float, A: float, sigma: float, N: int
) -> MethodConstants:
    """Constants for random reshuffling (delta = N^(-1/(2*theta)), tau = 3)."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    params = descent_coefficients("rr", L, mu, A, sigma, N=N, theta=theta)
    two_theta = 2.0 * theta
    derived = derive_constants(params, delta=N ** (-1.0 / two_theta))
    derived = replace(derived, alpha_cap=min(derived.alpha_cap, smoothness_cap("rr", L)))
    zeta_bar = max(two_theta - 1.0, (L**2 * sigma**2 / mu) ** (1.0 / two_theta))
    xi_bar = theta * mu * zeta_bar ** (two_theta - 1.0) / 2.0
    return MethodConstants(
        method="rr",
        theta=theta,
        L=L,
        mu=mu,
        A=A,
        sigma=sigma,
        N=N,
        params=params,
        derived=derived,
        zeta_bar=zeta_bar,
        xi_bar=xi_bar,
    )


def simulate_pl_recursion(
    params: PLParams, schedule: StepSchedule, y0: float, K: int
) -> list[float]:
    """Iterate the progress recursion with equality; returns [y_0, ..., y_K].

    Equality dynamics are the worst case the analysis permits, so every
    theorem bound must dominate the returned trajectory. A step size too
    large for these dynamics drives the trajectory negative, and one too
    large for the range of doubles makes it infinite or NaN; either raises
    NumericFailure carrying the offending index.
    """
    if not y0 >= 0:
        raise ValueError("y0 must be nonnegative")
    if K < 1:
        raise ValueError("K must be a positive integer")
    alphas = step_values(schedule, K)
    l1, l2, l3, tau = params.l1, params.l2, params.l3, params.tau
    two_theta = 2.0 * params.theta
    if tau == 2.0:
        powers = [a * a for a in alphas]
    elif tau == 3.0:
        powers = [a * a * a for a in alphas]
    else:
        powers = [a**tau for a in alphas]
    ys = [float(y0)]
    append = ys.append
    y = float(y0)
    # each step forms its growth (1 + l1*p), pull (l2*a) and push (l3*p) in
    # place, grouped as the precomputed lists were, so the values are unchanged
    if two_theta == 1.0:
        for i, (a, p) in enumerate(zip(alphas, powers)):
            y = ((1.0 + l1 * p) - l2 * a) * y + l3 * p
            if y < 0.0:
                raise NumericFailure(f"trajectory negative at step {i + 1}", index=i + 1)
            append(y)
    elif two_theta == 2.0:
        for i, (a, p) in enumerate(zip(alphas, powers)):
            y = (1.0 + l1 * p) * y - l2 * a * y * y + l3 * p
            if y < 0.0:
                raise NumericFailure(f"trajectory negative at step {i + 1}", index=i + 1)
            append(y)
    else:
        try:
            for i, (a, p) in enumerate(zip(alphas, powers)):
                y = (1.0 + l1 * p) * y - l2 * a * y**two_theta + l3 * p
                if y < 0.0:
                    raise NumericFailure(f"trajectory negative at step {i + 1}", index=i + 1)
                append(y)
        except OverflowError:  # float ** raises where * and + give inf
            raise NumericFailure(f"trajectory overflows at step {i + 1}", index=i + 1) from None
    # one pass over the finished trajectory: a sum of finite values that is
    # not finite either holds an infinity or NaN or overflowed on the way
    if not math.isfinite(sum(ys)):
        for i, y in enumerate(ys):
            if not math.isfinite(y):
                raise NumericFailure(f"trajectory value {y} is not finite at step {i}", index=i)
    return ys


def _picked_finals(
    params: PLParams, schedule: StepSchedule, y0: float, ks: list[int]
) -> list[float]:
    # one run to the largest of the sorted ks; the trajectory dies with
    # this frame, so only the picked y_K stay alive
    ys = simulate_pl_recursion(params, schedule, y0, ks[-1])
    return [ys[K] for K in ks]


def simulate_pl_grid(
    params: PLParams,
    schedules: Sequence[Callable[[int], StepSchedule]],
    y0: float,
    k_grid: Sequence[int],
) -> list[float]:
    """y_K of the equality recursion for every (K, schedule), K-major.

    schedules holds one builder K -> StepSchedule per lane, called for every
    cell in walk order. A schedule without a horizon (constant, polynomial)
    does not depend on K, so its lane is simulated once, to the largest K,
    and each y_K is read off that run: the steps are a prefix of the same
    list and the loop is the same, so every value is bitwise
    simulate_pl_recursion(params, build(K), y0, K)[-1]. Schedules with a
    horizon run once per K, and so does every cell of a lane whose long run
    fails and every cell whose builder returns another schedule than the
    lane's first. A failing grid therefore raises the same first error, at
    the same cell, as the walk of per-K runs.
    """
    ks = sorted({K for K in k_grid if K >= 1})
    row = {K: i for i, K in enumerate(ks)}
    finals: list[float] = []
    lanes: dict[int, tuple[StepSchedule, list[float]] | None] = {}
    for K in k_grid:
        for lane, build in enumerate(schedules):
            schedule = build(K)
            if K >= 1 and getattr(schedule, "horizon", None) is None:
                if lane not in lanes:
                    try:
                        lanes[lane] = (schedule, _picked_finals(params, schedule, y0, ks))
                    except NumericFailure:
                        lanes[lane] = None
                picked = lanes[lane]
                if picked is not None and picked[0] == schedule:
                    finals.append(picked[1][row[K]])
                    continue
            finals.append(simulate_pl_recursion(params, schedule, y0, K)[-1])
    return finals


def relaxed_recursion_transform(
    params: PLParams, delta: float, schedule: StepSchedule, K: int
) -> RecursionSpec:
    """Rewrite the relaxed progress recursion as an affine recursion spec.

    The relaxation y_{k+1} <= (1 - xi*a_k^(1/rho)) y_k + 2*zeta*xi*a_k^tau is
    encoded through s(x) = xi^(-1)*eta(x)^(-1/rho), t(x) = (2*zeta*xi)^(-1)
    *eta(x)^(-tau), where eta and the grid b_k depend on the family so that
    eta(b_k) equals the step a_k and the ratio r = 2*zeta*eta^q is convex.
    Requires step_max <= alpha_cap.
    """
    derived = derive_constants(params, delta)
    if K < 1:
        raise ValueError("K must be a positive integer")
    horizon = getattr(schedule, "horizon", None)
    if horizon is not None and horizon != K:
        raise ValueError(f"schedule horizon {horizon} does not match K = {K}")
    biggest = step_max(schedule, K)
    _require(
        biggest <= derived.alpha_cap * (1.0 + _REL),
        f"largest step {biggest} exceeds admissible cap {derived.alpha_cap}",
    )
    zeta, xi = derived.zeta, derived.xi
    rho, q, tau = derived.rho, derived.q, params.tau
    inv_rho = 1.0 / rho
    err_coef = math.inf if zeta == 0.0 else 1.0 / (2.0 * zeta * xi)
    ratio_coef = 2.0 * zeta

    if isinstance(schedule, Constant):
        a = schedule.alpha

        def eta(x: float) -> float:
            return a

        b = float
        interval = (0.0, float(K))
        level = ratio_coef * a**q
        ratio = FunctionDescriptor(fn=lambda x: level, derivative=lambda x: 0.0, label="flat ratio")
    elif isinstance(schedule, Exponential):
        a, lg = schedule.alpha, schedule.log_decay

        def eta(x: float) -> float:
            return a * math.exp(x * lg)

        b = float
        interval = (0.0, float(K))
        scale = ratio_coef * a**q

        def ratio_fn(x: float) -> float:
            return scale * math.exp(q * lg * x)

        ratio = FunctionDescriptor(
            fn=ratio_fn, derivative=lambda x: q * lg * ratio_fn(x), label="geometric ratio"
        )
    elif isinstance(schedule, Polynomial):
        a, g, p = schedule.alpha, schedule.gamma, schedule.p

        def eta(x: float) -> float:
            return a * x**-p

        def b(k: int) -> float:
            return k + g

        interval = (g, K + g)
        scale = ratio_coef * a**q
        ratio = FunctionDescriptor(
            fn=lambda x: scale * x ** (-p * q),
            derivative=lambda x: -p * q * scale * x ** (-p * q - 1.0),
            label="power ratio",
        )
    elif isinstance(schedule, Cosine):
        a, p = schedule.alpha, schedule.p
        pq = p * q
        inv_q = 1.0 / q

        def eta(x: float) -> float:
            return a * x**inv_q

        def b(k: int) -> float:
            if k == K:
                return 0.0
            return ((1.0 + math.cos(k * math.pi / K)) / 2.0) ** pq

        interval = (0.0, 1.0)
        scale = ratio_coef * a**q
        ratio = FunctionDescriptor(
            fn=lambda x: scale * x, derivative=lambda x: scale, label="linear ratio"
        )
    else:
        raise TypeError(f"unknown schedule type {type(schedule).__name__}")

    def s_fn(x: float) -> float:
        e = eta(x)
        if e == 0.0:
            return math.inf
        return e**-inv_rho / xi

    def t_fn(x: float) -> float:
        e = eta(x)
        if e == 0.0:
            return math.inf
        return err_coef * e**-tau

    return RecursionSpec(
        s=FunctionDescriptor(fn=s_fn, label="inverse contraction"),
        t=FunctionDescriptor(fn=t_fn, label="inverse error"),
        b=b,
        interval=interval,
        horizon=K,
        ratio=ratio,
    )


def _unpack(mc: MethodConstants) -> tuple[float, float, float, float, float]:
    d = mc.derived
    return d.zeta, d.xi, d.rho, d.omega, d.q


def _decay(coefficient: float, log_base: float) -> float:
    """exp(-coefficient * log_base), kept in log space against overflow."""
    return math.exp(-coefficient * log_base)


def _tuned_step(mc: MethodConstants, beta: float, K: int) -> float:
    """Horizon-tuned flat step level for constant and cosine schedules."""
    _require(K >= 2, f"tuned step needs K >= 2, got {K}")
    if mc.method == "sgd":
        return (beta * math.log(K) / K) ** mc.derived.rho
    root_nk = math.sqrt(mc.N) * K
    n_power = mc.N ** (1.0 - 1.0 / (2.0 * mc.theta))
    return (beta * math.log(root_nk) * n_power / K) ** mc.derived.rho


def _normalize_tuned(tuned: Mapping | bool | None) -> Mapping | None:
    if tuned is True:
        return {}
    if tuned is False:
        return None
    return tuned


def bound_exp(mc: MethodConstants, schedule: Exponential, y0: float) -> BoundResult:
    """Bound at the horizon for exponentially decaying steps.

    The noise floor is four times the larger of a logarithmic branch and the
    terminal-step branch; the regime tag records which one attained the max.
    """
    if not y0 >= 0:
        raise ValueError("y0 must be nonnegative")
    zeta, xi, rho, omega, q = _unpack(mc)
    alpha, beta, p, K = schedule.alpha, schedule.beta, schedule.p, schedule.horizon
    cap = mc.derived.alpha_cap
    _require(alpha <= cap * (1.0 + _REL), f"alpha {alpha} exceeds admissible cap {cap}")
    log_ratio = math.log(K) - math.log(beta)
    if mc.method == "rr":
        n_power = mc.N ** (1.0 - 1.0 / (2.0 * mc.theta))
        needed = 2.0 * p * math.log(math.sqrt(mc.N) * K) * n_power / (
            mc.theta * mc.xi_bar * alpha ** (1.0 / rho)
        )
        _require(
            K / log_ratio >= needed * (1.0 - _REL),
            f"horizon too small: K/log(K/beta) = {K / log_ratio} below {needed}",
        )
    branch_log = zeta * (2.0 * p * q * log_ratio / (xi * K)) ** omega
    branch_floor = zeta * alpha**q * math.exp(p * q * (math.log(beta) - math.log(K)))
    noise = 4.0 * max(branch_log, branch_floor)
    regime = "case I" if branch_log >= branch_floor else "case II"
    tail_fraction = 1.0 - math.exp((p / rho) * (math.log(beta) - math.log(K)))
    exponent = (rho * xi * alpha ** (1.0 / rho) / p) * tail_fraction * K / log_ratio
    init = y0 * math.exp(-exponent)
    return BoundResult(
        value=noise + init,
        noise_term=noise,
        init_term=init,
        regime=regime,
        constants_used=mc.derived,
        details={"branch_log": branch_log, "branch_floor": branch_floor, "alpha": alpha},
    )


def bound_cos(
    mc: MethodConstants, schedule: Cosine, y0: float, tuned: Mapping | bool | None = None
) -> BoundResult:
    """Bound at the horizon for cosine-annealed steps.

    Tuned mode replaces the schedule's level by the horizon-tuned choice and
    reports the resulting rate's logarithm power in the details.
    """
    if not y0 >= 0:
        raise ValueError("y0 must be nonnegative")
    tuned = _normalize_tuned(tuned)
    zeta, xi, rho, omega, q = _unpack(mc)
    p, K = schedule.p, schedule.horizon
    _require(K >= 2, f"cosine bound needs K >= 2, got {K}")
    cap = mc.derived.alpha_cap
    doubling = 2.0 ** max(1.0, p / rho)
    details: dict = {}
    if tuned is not None:
        if mc.method == "sgd":
            beta_floor = doubling * omega / xi
        else:
            beta_floor = doubling * mc.derived.omega / mc.xi_bar
        beta = float(tuned.get("beta", beta_floor))
        _require(
            beta >= beta_floor * (1.0 - _REL),
            f"tuned beta {beta} below floor {beta_floor}",
        )
        alpha = _tuned_step(mc, beta, K)
        _require(
            alpha <= cap * (1.0 + _REL),
            f"tuned alpha {alpha} exceeds admissible cap {cap} (horizon too small)",
        )
        details["tuned_beta"] = beta
        details["rate_log_power"] = rho / (2.0 * p + rho)
    else:
        alpha = schedule.alpha
        _require(alpha <= cap * (1.0 + _REL), f"alpha {alpha} exceeds admissible cap {cap}")
    d_const = max(1.0, 2.0 * p * q * math.pi**2)
    log_arg = 2.0 * d_const / (xi * K)
    branch_log = 2.0 * zeta * log_arg**omega
    mix = 2.0 * p * omega / (2.0 * p + rho)
    branch_floor = (
        4.0
        * zeta
        * (math.pi**2 / 4.0) ** (p * q)
        * alpha ** (omega / (2.0 * p + rho))
        * log_arg**mix
    )
    noise = max(branch_log, branch_floor)
    regime = "case I" if branch_log >= branch_floor else "case II"
    init = y0 * math.exp(-xi * alpha ** (1.0 / rho) * K / doubling)
    details.update(
        {"D": d_const, "branch_log": branch_log, "branch_floor": branch_floor, "alpha": alpha}
    )
    return BoundResult(
        value=noise + init,
        noise_term=noise,
        init_term=init,
        regime=regime,
        constants_used=mc.derived,
        details=details,
    )


def bound_const(
    mc: MethodConstants,
    schedule: Constant | None,
    y0: float,
    K: int,
    tuned: Mapping | bool | None = None,
) -> BoundResult:
    """Bound after K steps of a flat schedule: noise floor plus decayed start.

    In tuned mode the level is derived from the horizon (schedule may be
    omitted); otherwise it is taken from the schedule.
    """
    if not y0 >= 0:
        raise ValueError("y0 must be nonnegative")
    if K < 1:
        raise ValueError("K must be a positive integer")
    tuned = _normalize_tuned(tuned)
    zeta, xi, rho, omega, q = _unpack(mc)
    cap = mc.derived.alpha_cap
    details: dict = {}
    if tuned is not None:
        beta_floor = omega / xi if mc.method == "sgd" else mc.derived.omega / mc.xi_bar
        beta = float(tuned.get("beta", beta_floor))
        _require(beta >= beta_floor * (1.0 - _REL), f"tuned beta {beta} below floor {beta_floor}")
        alpha = _tuned_step(mc, beta, K)
        _require(
            alpha <= cap * (1.0 + _REL),
            f"tuned alpha {alpha} exceeds admissible cap {cap} (horizon too small)",
        )
        details["tuned_beta"] = beta
    else:
        if schedule is None:
            raise ValueError("schedule is required outside tuned mode")
        alpha = schedule.alpha
        _require(alpha <= cap * (1.0 + _REL), f"alpha {alpha} exceeds admissible cap {cap}")
    noise = 2.0 * zeta * alpha**q
    init = y0 * math.exp(-xi * alpha ** (1.0 / rho) * K)
    details["alpha"] = alpha
    return BoundResult(
        value=noise + init,
        noise_term=noise,
        init_term=init,
        regime="constant",
        constants_used=mc.derived,
        details=details,
    )


def _poly_case(theta: float, p: float, rho: float) -> str:
    if abs(p - rho) <= 1e-12:
        return "b"
    if p < rho:
        return "a"
    if theta > 0.5 and p < 1.0:
        return "c"
    if theta > 0.5 and p == 1.0:
        return "d"
    raise PreconditionError(
        f"no polynomial case covers p = {p} at theta = {theta} (balance exponent {rho})"
    )


@functools.lru_cache(maxsize=256)
def _offset_grid(K: int) -> tuple[int, ...]:
    ks: list[int] = list(range(65))
    k = 64
    while k < K:
        k = min(2 * k, K)
        ks.append(k)
    return tuple(ks)


def offset_admissible(params: PLParams, alpha: float, K: int, gamma: float) -> bool:
    """Offset test for the p = 1 slow-decay case (case d) at horizon K.

    gamma*log(gamma) must clear alpha*theta*l2 and the two term-domination
    inequalities of the analysis must hold for every k = 0..64 and for the
    doubling grid beyond it up to K.
    """
    theta, l1, l2, l3, tau = params.theta, params.l1, params.l2, params.l3, params.tau
    log_power = 2.0 * theta / (2.0 * theta - 1.0)
    if not gamma >= math.e or not math.isfinite(gamma):
        return False
    if gamma * math.log(gamma) < alpha * theta * l2 * (1.0 - _REL):
        return False
    # compare in log space: log powers blow up as theta approaches 1/2 and
    # would overflow plain float evaluation long before the test decides
    slack = math.log1p(_REL)
    log_alpha = math.log(alpha)
    for kk in _offset_grid(K):
        x = kk + gamma
        lg = math.log(x)
        base = (tau - 1.0) * (log_alpha - lg)
        log_lg = math.log(lg) if lg > 1.0 else 0.0
        if l1 > 0 and math.log(l1) + base + log_lg > math.log(theta * l2) + slack:
            return False
        if l3 > 0:
            power_term = log_power * log_lg if log_lg > 0.0 else 0.0
            if math.log(l3) + base + power_term > math.log(l2) + slack:
                return False
    return True


def smallest_offset(params: PLParams, alpha: float, K: int) -> float:
    """Smallest offset that case d admits at horizon K, by doubling then bisection.

    Raises PreconditionError when no offset up to 1e300 is admissible.
    """
    hi = math.e
    while not offset_admissible(params, alpha, K, hi):
        hi *= 2.0
        if hi > 1e300:
            raise PreconditionError("no admissible offset found for the p = 1 case")
    if hi == math.e:
        return math.e
    lo = hi / 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if offset_admissible(params, alpha, K, mid):
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-9 * hi:
            break
    return hi


def bound_poly(
    constants: MethodConstants | PLParams,
    schedule: Polynomial,
    y0: float,
    K: int,
    case: str = "auto",
    tuned: Mapping | bool | None = None,
    delta: float = 1.0,
) -> BoundResult:
    """Bound after K steps of a polynomially decaying schedule.

    Accepts either method constants or raw recursion coefficients (the free
    parameter delta applies only to the latter). The four regimes split on
    how the decay exponent p compares with the balance exponent rho; auto
    mode selects from (theta, p). Tuned mode requires method constants and
    p equal to the method's balance exponent.
    """
    if not y0 >= 0:
        raise ValueError("y0 must be nonnegative")
    if K < 1:
        raise ValueError("K must be a positive integer")
    tuned = _normalize_tuned(tuned)
    if isinstance(constants, MethodConstants):
        mc: MethodConstants | None = constants
        params = constants.params
        derived = constants.derived
    else:
        mc = None
        params = constants
        derived = derive_constants(params, delta)
    zeta, xi = derived.zeta, derived.xi
    rho, omega, q = derived.rho, derived.omega, derived.q
    theta, tau = params.theta, params.tau
    cap = derived.alpha_cap
    gamma, p = schedule.gamma, schedule.p

    if tuned is not None:
        if mc is None:
            raise ValueError("tuned mode needs method constants")
        _require(
            abs(p - rho) <= 1e-12,
            f"tuned schedule must decay with exponent {rho}, got {p}",
        )
        if mc.method == "sgd":
            alpha = schedule.alpha
            alpha_floor = (2.0 * omega / xi) ** rho
            _require(
                alpha >= alpha_floor * (1.0 - _REL), f"alpha {alpha} below floor {alpha_floor}"
            )
            _require(
                alpha / gamma**p <= cap * (1.0 + _REL),
                f"largest step {alpha / gamma**p} exceeds admissible cap {cap}",
            )
            noise = 4.0 * zeta * alpha**q * _decay(omega, math.log(K + gamma))
            init = y0 * _decay(2.0 * omega, math.log((K + gamma) / gamma))
            return BoundResult(
                value=noise + init,
                noise_term=noise,
                init_term=init,
                regime="case b",
                constants_used=derived,
                details={"tuned": True, "alpha": alpha, "u2": omega},
            )
        _require(K >= 3, f"tuned reshuffling bound needs K >= 3, got {K}")
        beta_floor = 2.0 * omega / mc.xi_bar
        beta = float(tuned.get("beta", beta_floor))
        _require(beta >= beta_floor * (1.0 - _REL), f"tuned beta {beta} below floor {beta_floor}")
        n_power = mc.N ** (1.0 - 1.0 / (2.0 * theta))
        root_nk = math.sqrt(mc.N) * K
        level = beta * math.log(root_nk) * n_power
        alpha = level**rho
        gamma_floor = level / cap ** (1.0 / rho)
        _require(gamma >= gamma_floor * (1.0 - _REL), f"gamma {gamma} below floor {gamma_floor}")
        _require(K >= 2.0 * gamma * (1.0 - _REL), f"horizon {K} below 2*gamma = {2 * gamma}")
        noise = (
            4.0
            * mc.zeta_bar
            * beta**omega
            * (math.log(root_nk) / (math.sqrt(mc.N) * (K + gamma))) ** omega
        )
        init = y0 * _decay(2.0 * omega, math.log(root_nk))
        return BoundResult(
            value=noise + init,
            noise_term=noise,
            init_term=init,
            regime="case b",
            constants_used=derived,
            details={"tuned": True, "alpha": alpha, "tuned_beta": beta, "u2": omega},
        )

    chosen = case
    if chosen == "auto":
        chosen = _poly_case(theta, p, rho)
    if chosen not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown case {case!r}")
    alpha = schedule.alpha
    details = {"alpha": alpha, "gamma": gamma}

    if chosen in ("a", "b"):
        _require(
            alpha / gamma**p <= cap * (1.0 + _REL),
            f"largest step {alpha / gamma**p} exceeds admissible cap {cap}",
        )
    if chosen == "a":
        _require(p < rho, f"case a needs p < {rho}, got {p}")
        u1 = p * q
        gamma_floor = (2.0 * u1 / (xi * alpha ** (1.0 / rho))) ** (1.0 / (1.0 - p / rho))
        _require(gamma >= gamma_floor * (1.0 - _REL), f"gamma {gamma} below floor {gamma_floor}")
        noise = 4.0 * zeta * alpha**q * _decay(u1, math.log(K + gamma))
        init = y0 * math.exp(
            -xi * alpha ** (1.0 / rho) * K * _decay(p / rho, math.log(K + gamma))
        )
        details["u1"] = u1
    elif chosen == "b":
        _require(abs(p - rho) <= 1e-12, f"case b needs p = {rho}, got {p}")
        alpha_floor = (2.0 * omega / xi) ** rho
        _require(alpha >= alpha_floor * (1.0 - _REL), f"alpha {alpha} below floor {alpha_floor}")
        noise = 4.0 * zeta * alpha**q * _decay(omega, math.log(K + gamma))
        init = y0 * _decay(xi * alpha ** (1.0 / rho), math.log((K + gamma) / gamma))
        details["u2"] = omega
    elif chosen == "c":
        _require(
            theta > 0.5 and rho < p < 1.0,
            f"case c needs theta > 1/2 and p between {rho} and 1, got p = {p}",
        )
        u3 = (1.0 - p) / (2.0 * theta - 1.0)
        alpha_floor = 2.0 * u3 / (theta * params.l2)
        _require(alpha >= alpha_floor * (1.0 - _REL), f"alpha {alpha} below floor {alpha_floor}")
        floors = [alpha * theta * params.l2]
        if params.l1 > 0:
            floors.append(
                (alpha ** (tau - 1.0) * params.l1 / (theta * params.l2)) ** (1.0 / (tau * p - 1.0))
            )
        if params.l3 > 0:
            floors.append(
                (alpha ** (tau - 1.0) * params.l3 / params.l2) ** (1.0 / (tau * p - u3 - 1.0))
            )
        gamma_floor = max(floors)
        _require(gamma >= gamma_floor * (1.0 - _REL), f"gamma {gamma} below floor {gamma_floor}")
        noise = 4.0 * _decay(u3, math.log(K + gamma))
        init = y0 * _decay(alpha * theta * params.l2, math.log((K + gamma) / gamma))
        details["u3"] = u3
    else:
        _require(theta > 0.5 and p == 1.0, f"case d needs theta > 1/2 and p = 1, got p = {p}")
        alpha_floor = 2.0 / (theta * (2.0 * theta - 1.0) * params.l2)
        _require(alpha >= alpha_floor * (1.0 - _REL), f"alpha {alpha} below floor {alpha_floor}")
        gamma0 = smallest_offset(params, alpha, K)
        _require(
            offset_admissible(params, alpha, K, gamma),
            f"gamma {gamma} inadmissible; smallest admissible offset is {gamma0}",
        )
        noise = 4.0 * _decay(1.0 / (2.0 * theta - 1.0), math.log(math.log(K + gamma)))
        init = y0 * _decay(
            alpha * theta * params.l2, math.log(math.log(K + gamma) / math.log(gamma))
        )
        details["gamma0"] = gamma0
    return BoundResult(
        value=noise + init,
        noise_term=noise,
        init_term=init,
        regime=f"case {chosen}",
        constants_used=derived,
        details=details,
    )
