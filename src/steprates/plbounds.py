"""Convergence bounds for stochastic optimization under gradient domination.

Methods whose expected progress obeys
y_{k+1} <= (1 + l1*a_k^tau) y_k - l2*a_k*y_k^(2*theta) + l3*a_k^tau
admit closed-form rates for each step-size family. This module derives the
scaling constants of that analysis (noise scale zeta, contraction scale xi,
balance exponents rho/omega/q, admissible step cap), simulates the worst-case
equality recursion (a trajectory, or y_K of (params, schedule, y0, K) lanes,
bitwise or as one numpy batch), rewrites the relaxed recursion as an affine
recursion for the machinery in recursions.py, and evaluates the displayed
bound of every method/schedule combination, including the horizon-tuned step
choices.

Two methods are built in: single-sample stochastic gradient descent (tau = 2)
and random reshuffling over N components (tau = 3), each with its own
smoothness cap and N-scaled constants.
"""
from __future__ import annotations

import bisect
import functools
import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from itertools import islice
from typing import Collection, Iterator, Mapping, Sequence

import numpy as np

from .recursions import FunctionDescriptor, PreconditionError, RecursionSpec, _power
from .schedules import (
    Constant,
    Cosine,
    Exponential,
    Polynomial,
    StepSchedule,
    _check_horizon,
    _lane_columns,
    _lane_steps,
    _positive,
    _steps,
    step_max,
)


class NumericFailure(RuntimeError):
    """A simulation left its admissible region, or a bound is not finite;
    index points at the bad step (-1, the horizon, for a bound)."""

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
        if not 1 < self.tau < math.inf:  # tau = inf leaves rho = 0 and omega NaN
            raise ValueError(f"tau must be finite and exceed 1, got {self.tau}")
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
_FINALS_BLOCK = 1 << 12  # steps per block of the scalar runs; 2^15 ran slower


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise PreconditionError(message)


def _check_start(y0: float, K: int) -> None:
    if not y0 >= 0:
        raise ValueError("y0 must be nonnegative")
    _check_horizon(K, "K")


def _capped(what: str, step: float, cap: float, note: str = "") -> float:
    """step, once it is checked against the admissible cap."""
    _require(step <= cap * (1.0 + _REL), f"{what} {step} exceeds admissible cap {cap}{note}")
    return step


def _floored(what: str, value: float, floor: float) -> float:
    """value, once it is checked against its floor."""
    _require(value >= floor * (1.0 - _REL), f"{what} {value} below floor {floor}")
    return value


def frak_p(theta: float) -> float:
    """(2*theta-1)^(2*theta-1) with 0^0 = 1; lies in [e^(-1/e), 1]."""
    if not 0.5 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [1/2, 1], got {theta}")
    return (2.0 * theta - 1.0) ** (2.0 * theta - 1.0)


@dataclass(frozen=True)
class _Method:
    """One method's descent analysis: step power tau, l1 = A*L^L_power/(2N),
    l2 = mu_share*mu, l3 = L^L_power*sigma^2/(2N) (N = 1 for SGD), and steps
    up to cap_share/L."""

    tau: float
    mu_share: float
    L_power: float
    cap_share: float


_METHODS = {"sgd": _Method(2.0, 1.0, 1.0, 1.0), "rr": _Method(3.0, 0.5, 2.0, 0.5)}


def _method(name: str) -> _Method:
    """The record of the method named exactly "sgd" or "rr"."""
    try:
        return _METHODS[name]
    except (KeyError, TypeError):  # TypeError: a name that cannot be hashed
        raise ValueError(f"unknown method {name!r}") from None


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
    valid for steps up to 1/(2L). Both read the method's _METHODS record,
    named exactly "sgd" or "rr".
    """
    if not (L > 0 and mu > 0):
        raise ValueError("L and mu must be positive")
    if A < 0 or sigma < 0:
        raise ValueError("A and sigma must be nonnegative")
    m = _method(method)
    n = 1
    if method == "rr":
        if N is None or not 1 <= N <= sys.float_info.max:  # 2.0 * N must not raise
            raise ValueError(f"random reshuffling needs a positive component count N, got {N!r}")
        n = N
    k, two_n = m.L_power, 2.0 * n
    Lk = _power(L, k)
    l1, l3 = A * Lk / two_n, Lk * _power(sigma, 2) / two_n
    # messages only on failure: a verify bounds pass builds some 1,000 constants
    if not (math.isfinite(l1) and math.isfinite(l3)):
        _coefficient("l1 = A*L^k/(2N)", l1, A=A, L=L, k=k, N=n)
        _coefficient("l3 = L^k*sigma^2/(2N)", l3, L=L, sigma=sigma, k=k, N=n)
    return PLParams(l1=l1, l2=m.mu_share * mu, l3=l3, tau=m.tau, theta=theta)


def _coefficient(formula: str, value: float, **constants: float) -> float:
    """value, a coefficient formed from constants with _power; ValueError
    names them if it is not finite."""
    if not math.isfinite(value):
        given = ", ".join(f"{name} = {v!r}" for name, v in constants.items())
        raise ValueError(f"{formula} overflows a float for {given}")
    return value


def _quotient(numerator: float, divisor: float) -> float:
    """numerator / divisor, or its limit +inf where the divisor is 0.0 (a
    product that underflows): the bound evaluators' rule for quotients, as
    _power is for powers. Finite quotients keep their bits."""
    return numerator / divisor if divisor else math.inf


def smoothness_cap(method: str, L: float) -> float:
    """Largest step admissible for the descent analysis itself: 1/L for sgd,
    1/(2L) for rr, formed as 0.5/L so it stays positive for L near the
    largest float. A subnormal L gives an infinite cap, which does not bind."""
    if not (math.isfinite(L) and L > 0):
        raise ValueError(f"L must be positive and finite, got {L!r}")
    return _method(method).cap_share / L


def derive_constants(params: PLParams, delta: float) -> DerivedConstants:
    """Scaling constants of the relaxed recursion for a given delta > 0.

    Raises ValueError, naming zeta, when (l3/l2)^(1/(2*theta)) overflows a
    float, and naming xi when the cap xi^(-rho) does; a growth cap past the
    range of floats does not bind.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    theta, tau, l1, l2, l3 = params.theta, params.tau, params.l1, params.l2, params.l3
    two_theta = 2.0 * theta
    ratio_root = _coefficient(
        "zeta = (l3/l2)^(1/(2*theta))", _power(l3 / l2, 1.0 / two_theta), l3=l3, l2=l2
    )
    zeta = max((two_theta - 1.0) * delta, ratio_root)
    xi = theta * l2 * zeta ** (two_theta - 1.0)
    denom = (two_theta - 1.0) * tau + 1.0
    rho = two_theta / denom
    omega = (tau - 1.0) / denom
    q = (tau - 1.0) / two_theta
    fp = frak_p(theta)
    growth_cap = math.inf  # a cap past the floats does not bind
    if l1 > 0:
        growth_base = theta * fp * l2 * delta ** (two_theta - 1.0) / l1
        growth_cap = _power(growth_base, two_theta / (tau - 1.0))
    xi_cap = _coefficient("alpha cap xi^(-rho)", _power(xi, -rho), xi=xi, rho=rho)
    alpha_cap = min(growth_cap, xi_cap)
    return DerivedConstants(delta, zeta, xi, rho, omega, q, fp, alpha_cap)


def sgd_constants(theta: float, L: float, mu: float, A: float, sigma: float) -> MethodConstants:
    """Constants for single-sample SGD (delta = 1, tau = 2)."""
    return _method_constants("sgd", theta, L, mu, A, sigma, None)


def rr_constants(
    theta: float, L: float, mu: float, A: float, sigma: float, N: int
) -> MethodConstants:
    """Constants for random reshuffling (delta = N^(-1/(2*theta)), tau = 3)."""
    if isinstance(N, bool) or not isinstance(N, numbers.Integral) or N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    return _method_constants("rr", theta, L, mu, A, sigma, N)


def _method_constants(
    method: str, theta: float, L: float, mu: float, A: float, sigma: float, N: int | None
) -> MethodConstants:
    params = descent_coefficients(method, L, mu, A, sigma, N=N, theta=theta)  # checks theta
    derived = derive_constants(params, 1.0 if N is None else N ** (-1.0 / (2.0 * theta)))
    derived = replace(derived, alpha_cap=min(derived.alpha_cap, smoothness_cap(method, L)))
    zeta_bar, xi_bar = derived.zeta, derived.xi
    if method == "rr":
        two_theta = 2.0 * theta
        Lk = L ** _METHODS["rr"].L_power
        zeta_bar = max(two_theta - 1.0, (Lk * sigma**2 / mu) ** (1.0 / two_theta))
        xi_bar = theta * mu * zeta_bar ** (two_theta - 1.0) / 2.0
    return MethodConstants(method, theta, L, mu, A, sigma, N, params, derived, zeta_bar, xi_bar)


def _check_lanes(lanes: Sequence[tuple[PLParams, StepSchedule, float, int]]) -> None:
    """The checks of a run, on every (params, schedule, y0, K) lane before
    any runs: y0 and K, then the index and type checks of step_values."""
    for _, schedule, y0, K in lanes:
        _check_start(y0, K)
        step_max(schedule, K)


def simulate_pl_recursion(
    params: PLParams, schedule: StepSchedule, y0: float, K: int
) -> list[float]:
    """Iterate the progress recursion with equality; returns [y_0, ..., y_K].

    Equality dynamics are the worst case the analysis permits, so every
    theorem bound must dominate the returned trajectory. A step size too
    large for these dynamics drives the trajectory negative, and one too
    large for the range of doubles makes it infinite or NaN; either raises
    NumericFailure at the first bad step. This is the walk of
    simulate_pl_finals with an end at every step, so its y_K are these.
    """
    _check_lanes([(params, schedule, y0, K)])
    return [float(y0), *(y for _, y in _walk(params, schedule, 0, float(y0), range(1, K + 1)))]


# numbers in each per-block array of simulate_pl_lanes, as in the seed sums'
# row blocks: 2^15 doubles (256 KiB)
_LANE_BLOCK = 1 << 15


def simulate_pl_lanes(
    lanes: Sequence[tuple[PLParams, StepSchedule, float, int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """simulate_pl_recursion for many (params, schedule, y0, K) lanes at once.

    Returns three arrays in the order of lanes: y_K, the smallest y of the
    trajectory (NaN once a y is NaN), and whether some y went negative or
    was not finite, where simulate_pl_recursion raises NumericFailure. The
    lanes step together as numpy columns, sorted by K in descending order,
    so the active lanes are a prefix that shrinks as each reaches its K.
    Steps come per time block from schedules._lane_steps, and their powers
    from them; a block holds at most 2^15 numbers per array, so it runs
    max(1, 2^15 // active lanes) steps, and ends where a lane does.

    The arithmetic is the scalar loop's, but numpy's exp and pow differ
    from the math module's by about an ulp, and a block that holds a lane
    of general theta forms every pull term as (l2*a)*y^(2*theta); so values
    agree with the scalar ones to rounding, not bit for bit. A lane runs on
    past a bad value and no warning is raised.
    """
    count = len(lanes)
    if not count:
        return np.empty(0), np.empty(0), np.empty(0, dtype=bool)
    _check_lanes(lanes)
    horizons = np.array([lane[3] for lane in lanes], dtype=np.int64)
    order = np.argsort(-horizons, kind="stable")
    ordered = [lanes[i] for i in order]
    ends = -horizons[order]  # ascending: lanes with K > k are the first searchsorted(ends, -k)
    l1, l2, l3, tau, two_theta, y = np.array(
        [(p.l1, p.l2, p.l3, p.tau, 2.0 * p.theta, y0) for p, _, y0, _ in ordered], dtype=float
    ).T.copy()
    # the pull term is l2*a*y^exponent, or (l2*a*y)*y as the scalar loop
    # forms it where a block holds no general theta; affine lanes fold l2*a
    # into the growth factor, as the scalar loop does, and pull nothing
    affine = two_theta == 1.0
    general = ~affine & (two_theta != 2.0)
    exponents = np.where(affine, 0.0, two_theta)
    cube, other = tau == 3.0, (tau != 2.0) & (tau != 3.0)
    columns = _lane_columns([schedule for _, schedule, _, _ in ordered])
    smallest = y.copy()
    active, k0 = count, 0
    # four (L, n) arrays, reused by every block: steps a, turned into l2*a
    # in place, a^tau into l3*a^tau, the growth factor, and the trajectory
    buffers = np.empty((4, min(max(_LANE_BLOCK, count), -int(ends[0]) * count) + count))
    mul, sub, add, power = np.multiply, np.subtract, np.add, np.power
    with np.errstate(all="ignore"):
        while active:
            n = active
            L = min(max(1, _LANE_BLOCK // n), -int(ends[n - 1]) - k0)
            k = np.arange(k0, k0 + L, dtype=float)[:, None]
            pull, push, growth, ys = (
                buffer[: rows * n].reshape(rows, n)
                for buffer, rows in zip(buffers, (L, L, L, L + 1))
            )
            _lane_steps(columns, k, n, out=pull)
            mul(pull, pull, out=push)
            mul(push, pull, out=push, where=cube[:n])
            power(pull, tau[:n], out=push, where=other[:n])
            mul(l1[:n], push, out=growth)
            growth += 1.0
            pull *= l2[:n]
            sub(growth, pull, out=growth, where=affine[:n])
            np.copyto(pull, 0.0, where=affine[:n])
            push *= l3[:n]
            mixed = bool(general[:n].any())
            exponent = exponents[:n]
            ys[0] = y[:n]
            term = np.empty(n)
            for y_k, y_next, g, la, b in zip(ys, ys[1:], growth, pull, push):
                if mixed:
                    mul(power(y_k, exponent, out=term), la, out=term)
                else:
                    mul(mul(la, y_k, out=term), y_k, out=term)
                sub(mul(g, y_k, out=y_next), term, out=y_next)
                add(y_next, b, out=y_next)
            np.minimum(smallest[:n], ys[1:].min(axis=0), out=smallest[:n])
            y[:n] = ys[L]
            k0 += L
            active = int(np.searchsorted(ends, -k0))
    final, low = np.empty(count), np.empty(count)
    final[order], low[order] = y, smallest
    return final, low, ~(low >= 0.0) | ~np.isfinite(final)


def _walk(
    params: PLParams, schedule: StepSchedule, k0: int, y: float, ends: Collection[int]
) -> Iterator[tuple[int, float]]:
    """(K, y_K) at each K of ends in ascending order, from y = y_k0: the one
    scalar loop of the equality recursion. It keeps no y but the last, reads
    steps in blocks of _FINALS_BLOCK from k0 that no K cuts, and forms each
    a^tau in the loop, which stops at each K and at each block's end. A
    stretch that ends with y negative or not finite, or where float **
    overflows, is walked again a step at a time from its start, so the
    NumericFailure names the first bad step, step k0 where y = inf."""
    if y == math.inf:
        raise NumericFailure(f"trajectory value inf is not finite at step {k0}", index=k0)
    l1, l2, l3, tau, two_theta = params.l1, params.l2, params.l3, params.tau, 2.0 * params.theta
    square, cube = tau == 2.0, tau == 3.0  # a^tau as a*a or a*a*a, else _power
    last, read = max(ends, default=k0), k0  # steps are read up to k = read
    for k1 in sorted({*ends, *range(k0 + _FINALS_BLOCK, last, _FINALS_BLOCK)}):
        if k0 == read:  # every step read is walked: read the next block
            read = min(k0 + _FINALS_BLOCK, last)
            steps = iter(_steps(schedule, range(k0, read)))
        start, what = y, None
        try:
            if two_theta == 1.0:
                for a in islice(steps, k1 - k0):
                    p = a * a if square else a * a * a if cube else _power(a, tau)
                    y = ((1.0 + l1 * p) - l2 * a) * y + l3 * p
                    if y < 0.0:
                        break
            elif two_theta == 2.0:
                for a in islice(steps, k1 - k0):
                    p = a * a if square else a * a * a if cube else _power(a, tau)
                    y = (1.0 + l1 * p) * y - l2 * a * y * y + l3 * p
                    if y < 0.0:
                        break
            else:
                for a in islice(steps, k1 - k0):
                    p = a * a if square else a * a * a if cube else _power(a, tau)
                    y = (1.0 + l1 * p) * y - l2 * a * y**two_theta + l3 * p
                    if y < 0.0:
                        break
        except OverflowError:  # float ** raises where * and + give inf
            y, what = math.nan, "overflows"
        if not 0.0 <= y < math.inf:
            if k1 > k0 + 1:  # the stretch a step at a time raises at its first bad step
                dict(_walk(params, schedule, k0, start, range(k0 + 1, k1 + 1)))
            what = what or ("negative" if y < 0.0 else f"value {y} is not finite")
            raise NumericFailure(f"trajectory {what} at step {k1}", index=k1)
        if k1 in ends:
            yield k1, y
        k0 = k1


def simulate_pl_finals(lanes: Sequence[tuple[PLParams, StepSchedule, float, int]]) -> list[float]:
    """simulate_pl_recursion(params, schedule, y0, K)[-1] for each
    (params, schedule, y0, K) lane, bitwise, in the order of lanes.

    Every lane is checked before any walk. Lanes whose params, schedule and
    y0 are the same share one walk over their K: schedules compare by value,
    and params and y0 by repr, so a zero's sign, which a y can keep, splits
    them. A walk holds one block of at most 2^12 steps, not K, and stops at
    each K inside it. A walk that fails is replayed lane by lane in order,
    so the first failing lane raises its first bad step.
    """
    _check_lanes(lanes)
    keys = [(repr(params), schedule, repr(y0)) for params, schedule, y0, _ in lanes]
    walks: dict[tuple, tuple] = {}
    for key, (params, schedule, y0, K) in zip(keys, lanes):
        walks.setdefault(key, (params, schedule, float(y0), set()))[3].add(K)
    try:
        at = {key: dict(_walk(p, s, 0, y0, ks)) for key, (p, s, y0, ks) in walks.items()}
    except NumericFailure:
        for params, schedule, y0, K in lanes:  # the first error of the per-lane runs
            dict(_walk(params, schedule, 0, float(y0), (K,)))
        raise
    return [at[key][lane[3]] for key, lane in zip(keys, lanes)]


def relaxed_recursion_transform(
    params: PLParams, delta: float, schedule: StepSchedule, K: int
) -> RecursionSpec:
    """Rewrite the relaxed progress recursion as an affine recursion spec.

    The relaxation y_{k+1} <= (1 - xi*a_k^(1/rho)) y_k + 2*zeta*xi*a_k^tau is
    encoded through s(x) = xi^(-1)*eta(x)^(-1/rho), t(x) = (2*zeta*xi)^(-1)
    *eta(x)^(-tau), where eta and the grid b_k depend on the family so that
    eta(b_k) equals the step a_k and the ratio r = 2*zeta*eta^q is convex.
    Requires step_max <= alpha_cap. verify.recursion_convexity checks the
    convexity; the acceptance test of the expanded form runs it here.
    """
    derived = derive_constants(params, delta)
    if K < 1:
        raise ValueError("K must be a positive integer")
    horizon = getattr(schedule, "horizon", None)
    if horizon is not None and horizon != K:
        raise ValueError(f"schedule horizon {horizon} does not match K = {K}")
    _capped("largest step", step_max(schedule, K), derived.alpha_cap)
    zeta, xi = derived.zeta, derived.xi
    rho, q, tau = derived.rho, derived.q, params.tau
    inv_rho = 1.0 / rho
    noise = 2.0 * zeta * xi  # 0.0 without noise or where it underflows: t is inf
    err_coef = 1.0 / noise if noise else math.inf
    a = schedule.alpha
    scale = 2.0 * zeta * _power(a, q)  # the ratio 2*zeta*eta^q at eta = alpha

    if isinstance(schedule, (Constant, Exponential)):  # constant: log g = 0, a flat ratio
        lg = schedule.log_decay

        def eta(x: float) -> float:
            return a * math.exp(x * lg)

        b = float
        interval = (0.0, float(K))

        def ratio_fn(x: float) -> float:
            return scale * math.exp(q * lg * x)

        ratio = FunctionDescriptor(
            fn=ratio_fn, derivative=lambda x: q * lg * ratio_fn(x), label="geometric ratio"
        )
    elif isinstance(schedule, Polynomial):
        g, p = schedule.gamma, schedule.p

        def eta(x: float) -> float:
            return a * _power(x, -p)

        def b(k: int) -> float:
            return k + g

        interval = (g, K + g)
        ratio = FunctionDescriptor(
            fn=lambda x: scale * _power(x, -p * q),
            derivative=lambda x: -p * q * scale * _power(x, -p * q - 1.0),
            label="power ratio",
        )
    elif isinstance(schedule, Cosine):
        p = schedule.p
        pq = p * q
        inv_q = 1.0 / q

        def eta(x: float) -> float:
            return a * _power(x, inv_q)

        def b(k: int) -> float:
            return ((1.0 + math.cos(k * math.pi / K)) / 2.0) ** pq

        interval = (0.0, 1.0)
        ratio = FunctionDescriptor(
            fn=lambda x: scale * x, derivative=lambda x: scale, label="linear ratio"
        )
    else:
        raise TypeError(f"unknown schedule type {type(schedule).__name__}")

    # a step of 0.0 gives s = t = inf, no contraction and no error
    def s_fn(x: float) -> float:
        return _power(eta(x), -inv_rho) / xi

    def t_fn(x: float) -> float:
        return err_coef * _power(eta(x), -tau)

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


def _result(
    noise: float, init: float, regime: str, derived: DerivedConstants, details: dict
) -> BoundResult:
    value = noise + init
    if not math.isfinite(value):
        raise NumericFailure(
            f"bound value {value} is not finite ({regime}: noise term {noise}, init term {init})",
            index=-1,
        )
    return BoundResult(value, noise, init, regime, derived, details)


def _n_scale(mc: MethodConstants, K: int) -> tuple[float, float]:
    """(log(sqrt(N)*K), N^(1-1/(2*theta))); SGD's displays are those at N = 1."""
    N = mc.N or 1
    return math.log(math.sqrt(N) * K), N ** (1.0 - 1.0 / (2.0 * mc.theta))


def _tuned_beta(mc: MethodConstants, tuned: Mapping, scale: float) -> float:
    """The tuned beta, by default its floor scale*omega/xi_bar, checked against it."""
    floor = _quotient(scale * mc.derived.omega, mc.xi_bar)
    return _floored("tuned beta", float(tuned.get("beta", floor)), floor)


def _flat_level(
    mc: MethodConstants, schedule: StepSchedule | None, K: int, tuned: Mapping | None, scale: float
) -> tuple[float, dict]:
    """The level alpha of a constant or cosine bound, checked against the cap,
    and its details: the schedule's alpha, or in tuned mode the horizon-tuned
    step of a beta whose floor is scale*omega/xi_bar."""
    cap = mc.derived.alpha_cap
    if tuned is None:
        return _capped("alpha", schedule.alpha, cap), {}
    beta = _tuned_beta(mc, tuned, scale)
    _require(K >= 2, f"tuned step needs K >= 2, got {K}")
    log_nk, n_power = _n_scale(mc, K)
    alpha = _power(beta * log_nk * n_power / K, mc.derived.rho)
    return _capped("tuned alpha", alpha, cap, " (horizon too small)"), {"tuned_beta": beta}


def _normalize_tuned(tuned: Mapping | bool | None) -> Mapping | None:
    if tuned is True:
        return {}
    if tuned is False:
        return None
    return tuned


def exp_horizon_floor(mc: MethodConstants, alpha: float, p: float, K: int) -> float:
    """Least K/log(K/beta) the reshuffling bound admits for exponential steps
    that start at alpha and decay with exponent p over the horizon K."""
    _positive(alpha, "alpha")
    _positive(p, "p")
    _check_horizon(K, "K")
    log_nk, n_power = _n_scale(mc, K)
    scale = mc.theta * mc.xi_bar * _power(alpha, 1.0 / mc.derived.rho)
    return _quotient(2.0 * p * log_nk * n_power, scale)


def bound_exp(mc: MethodConstants, schedule: Exponential, y0: float) -> BoundResult:
    """Bound at the horizon for exponentially decaying steps.

    The noise floor is four times the larger of a logarithmic branch and the
    terminal-step branch; the regime tag records which one attained the max.
    """
    zeta, xi, rho, omega, q = _unpack(mc)
    alpha, beta, p, K = schedule.alpha, schedule.beta, schedule.p, schedule.horizon
    _check_start(y0, K)
    _capped("alpha", alpha, mc.derived.alpha_cap)
    log_ratio = math.log(K) - math.log(beta)
    if mc.method == "rr":
        needed = exp_horizon_floor(mc, alpha, p, K)
        _require(
            K / log_ratio >= needed * (1.0 - _REL),
            f"horizon too small: K/log(K/beta) = {K / log_ratio} below {needed}",
        )
    branch_log = zeta * _power(_quotient(2.0 * p * q * log_ratio, xi * K), omega)
    branch_floor = zeta * _power(alpha, q) * math.exp(p * q * (math.log(beta) - math.log(K)))
    noise = 4.0 * max(branch_log, branch_floor)
    regime = "case I" if branch_log >= branch_floor else "case II"
    tail_fraction = 1.0 - math.exp((p / rho) * (math.log(beta) - math.log(K)))
    exponent = (rho * xi * _power(alpha, 1.0 / rho) / p) * tail_fraction * K / log_ratio
    init = y0 * math.exp(-exponent)
    details = {"branch_log": branch_log, "branch_floor": branch_floor, "alpha": alpha}
    return _result(noise, init, regime, mc.derived, details)


def bound_cos(
    mc: MethodConstants, schedule: Cosine, y0: float, tuned: Mapping | bool | None = None
) -> BoundResult:
    """Bound at the horizon for cosine-annealed steps.

    Tuned mode replaces the schedule's level by the horizon-tuned choice and
    reports the resulting rate's logarithm power in the details.
    """
    p, K = schedule.p, schedule.horizon
    _check_start(y0, K)
    tuned = _normalize_tuned(tuned)
    zeta, xi, rho, omega, q = _unpack(mc)
    _require(K >= 2, f"cosine bound needs K >= 2, got {K}")
    doubling = _power(2.0, max(1.0, p / rho))
    alpha, details = _flat_level(mc, schedule, K, tuned, doubling)
    if tuned is not None:
        details["rate_log_power"] = rho / (2.0 * p + rho)
    d_const = max(1.0, 2.0 * p * q * math.pi**2)
    log_arg = _quotient(2.0 * d_const, xi * K)
    branch_log = 2.0 * zeta * _power(log_arg, omega)
    mix = 2.0 * p * omega / (2.0 * p + rho)
    branch_floor = (
        4.0
        * zeta
        * _power(math.pi**2 / 4.0, p * q)
        * _power(alpha, omega / (2.0 * p + rho))
        * _power(log_arg, mix)
    )
    noise = max(branch_log, branch_floor)
    regime = "case I" if branch_log >= branch_floor else "case II"
    init = y0 * math.exp(-xi * _power(alpha, 1.0 / rho) * K / doubling)
    details.update(
        {"D": d_const, "branch_log": branch_log, "branch_floor": branch_floor, "alpha": alpha}
    )
    return _result(noise, init, regime, mc.derived, details)


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
    _check_start(y0, K)
    tuned = _normalize_tuned(tuned)
    zeta, xi, rho, omega, q = _unpack(mc)
    if tuned is None and schedule is None:
        raise ValueError("schedule is required outside tuned mode")
    alpha, details = _flat_level(mc, schedule, K, tuned, 1.0)
    noise = 2.0 * zeta * _power(alpha, q)
    init = y0 * math.exp(-xi * _power(alpha, 1.0 / rho) * K)
    details["alpha"] = alpha
    return _result(noise, init, "constant", mc.derived, details)


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


def _offset_points(K: int, peaks: Sequence[float]) -> list[int]:
    """k = 0, the last point of _offset_grid(K), and the two grid points on
    each side of each peak, a real k that may lie off the grid."""
    grid = _offset_grid(K)
    points = {grid[0], grid[-1]}
    for peak in peaks:
        i = bisect.bisect_right(grid, peak)  # grid[i - 1] <= peak < grid[i]
        points.update(grid[max(0, i - 2) : i + 2])
    return sorted(points)


def offset_admissible(params: PLParams, alpha: float, K: int, gamma: float) -> bool:
    """Offset test for the p = 1 slow-decay case (case d) at horizon K.

    gamma*log(gamma) must clear alpha*theta*l2 and the two term-domination
    inequalities of the analysis must hold for every k = 0..64 and for the
    doubling grid beyond it up to K.

    In u = log(k + gamma), at least 1 as gamma >= e, each inequality's left
    side is a constant plus -(tau-1)*u + c*log(u), with c = 1 for the
    growth term and 2*theta/(2*theta-1) for the noise term: concave, and
    largest at u = c/(tau-1). So over the grid it is largest at k = 0, at
    the last point or next to the peak, and testing those points, two on
    each side of each peak, decides as testing the whole grid does. A
    ValueError names theta = 1/2 (c has no value), or an alpha or K out of range.
    """
    theta, l1, l2, l3, tau = params.theta, params.l1, params.l2, params.l3, params.tau
    if not theta > 0.5:
        raise ValueError(f"the offset test needs theta > 1/2, got theta = {theta!r}")
    _positive(alpha, "alpha")
    _check_horizon(K, "K")
    log_power = 2.0 * theta / (2.0 * theta - 1.0)
    if not gamma >= math.e or not math.isfinite(gamma):
        return False
    if gamma * math.log(gamma) < alpha * theta * l2 * (1.0 - _REL):
        return False
    # compare in log space: log powers blow up as theta approaches 1/2 and
    # would overflow plain float evaluation long before the test decides
    slack = math.log1p(_REL)
    log_alpha = math.log(alpha)
    peaks = [c / (tau - 1.0) for c in (1.0, log_power)]
    # a peak past e^700 lies beyond every grid
    peaks = [math.exp(u) - gamma if u < 700.0 else math.inf for u in peaks]
    for kk in _offset_points(K, peaks):
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


@functools.lru_cache(maxsize=2048)
def smallest_offset(params: PLParams, alpha: float, K: int) -> float:
    """Smallest offset that case d admits at horizon K, by doubling then bisection.

    Raises PreconditionError when no offset up to 1e300 is admissible.
    Memoized for verify's case-d draws, whose bound_poly asks again after a
    whole round of up to 1000 draws (criterion 2's battery size).
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


def _u3(theta: float, p: float) -> float:
    """Rate exponent (1-p)/(2*theta-1) of polynomial case c."""
    return _quotient(1.0 - p, 2.0 * theta - 1.0)


def poly_alpha_floor(params: PLParams, derived: DerivedConstants, case: str, p: float) -> float:
    """Least level alpha that polynomial case b, c or d admits at decay exponent p."""
    theta = params.theta
    if case == "b":
        return _power(_quotient(2.0 * derived.omega, derived.xi), derived.rho)
    if case == "c":
        return _quotient(2.0 * _u3(theta, p), theta * params.l2)
    if case == "d":
        return _quotient(2.0, theta * (2.0 * theta - 1.0) * params.l2)
    raise ValueError(f"case {case!r} has no level floor")


def poly_gamma_floor(
    params: PLParams, derived: DerivedConstants, case: str, alpha: float, p: float
) -> float:
    """Least offset gamma that polynomial case a or c admits at level alpha.

    Cases b and d bound gamma through the cap and offset_admissible.
    """
    _positive(alpha, "alpha")
    _positive(p, "p")
    rho = derived.rho
    if case == "a":
        ratio = _quotient(2.0 * p * derived.q, derived.xi * _power(alpha, 1.0 / rho))
        return _power(ratio, _quotient(1.0, 1.0 - p / rho))
    if case != "c":
        raise ValueError(f"case {case!r} has no offset floor")
    theta, l1, l2, l3, tau = params.theta, params.l1, params.l2, params.l3, params.tau
    floors, growth = [alpha * theta * l2], _power(alpha, tau - 1.0)
    if l1 > 0:
        base = _quotient(growth * l1, theta * l2)
        floors.append(_power(base, _quotient(1.0, tau * p - 1.0)))
    if l3 > 0:
        base = _quotient(growth * l3, l2)
        floors.append(_power(base, _quotient(1.0, tau * p - _u3(theta, p) - 1.0)))
    return max(floors)


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
    _check_start(y0, K)
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
    theta = params.theta
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
            alpha = _floored("alpha", schedule.alpha, poly_alpha_floor(params, derived, "b", p))
            _capped("largest step", step_max(schedule, K), cap)
            noise = 4.0 * zeta * _power(alpha, q) * _decay(omega, math.log(K + gamma))
            init = y0 * _decay(2.0 * omega, math.log((K + gamma) / gamma))
            details = {"tuned": True, "alpha": alpha, "u2": omega}
            return _result(noise, init, "case b", derived, details)
        _require(K >= 3, f"tuned reshuffling bound needs K >= 3, got {K}")
        beta = _tuned_beta(mc, tuned, 2.0)
        log_nk, n_power = _n_scale(mc, K)
        level = beta * log_nk * n_power
        alpha = _power(level, rho)
        _floored("gamma", gamma, _quotient(level, _power(cap, 1.0 / rho)))
        _require(K >= 2.0 * gamma * (1.0 - _REL), f"horizon {K} below 2*gamma = {2 * gamma}")
        share = log_nk / (math.sqrt(mc.N) * (K + gamma))
        noise = 4.0 * mc.zeta_bar * _power(beta, omega) * _power(share, omega)
        init = y0 * _decay(2.0 * omega, log_nk)
        details = {"tuned": True, "alpha": alpha, "tuned_beta": beta, "u2": omega}
        return _result(noise, init, "case b", derived, details)

    chosen = case
    if chosen == "auto":
        chosen = _poly_case(theta, p, rho)
    if chosen not in ("a", "b", "c", "d"):
        raise ValueError(f"unknown case {case!r}")
    alpha = schedule.alpha
    details = {"alpha": alpha, "gamma": gamma}

    if chosen in ("a", "b"):
        _capped("largest step", step_max(schedule, K), cap)
    if chosen == "a":
        _require(p < rho, f"case a needs p < {rho}, got {p}")
        _floored("gamma", gamma, poly_gamma_floor(params, derived, "a", alpha, p))
        u1 = p * q
        noise = 4.0 * zeta * _power(alpha, q) * _decay(u1, math.log(K + gamma))
        init = y0 * math.exp(
            -xi * _power(alpha, 1.0 / rho) * K * _decay(p / rho, math.log(K + gamma))
        )
        details["u1"] = u1
    elif chosen == "b":
        _require(abs(p - rho) <= 1e-12, f"case b needs p = {rho}, got {p}")
        _floored("alpha", alpha, poly_alpha_floor(params, derived, "b", p))
        noise = 4.0 * zeta * _power(alpha, q) * _decay(omega, math.log(K + gamma))
        init = y0 * _decay(xi * _power(alpha, 1.0 / rho), math.log((K + gamma) / gamma))
        details["u2"] = omega
    elif chosen == "c":
        _require(
            theta > 0.5 and rho < p < 1.0,
            f"case c needs theta > 1/2 and p between {rho} and 1, got p = {p}",
        )
        _floored("alpha", alpha, poly_alpha_floor(params, derived, "c", p))
        _floored("gamma", gamma, poly_gamma_floor(params, derived, "c", alpha, p))
        u3 = _u3(theta, p)
        noise = 4.0 * _decay(u3, math.log(K + gamma))
        init = y0 * _decay(alpha * theta * params.l2, math.log((K + gamma) / gamma))
        details["u3"] = u3
    else:
        _require(theta > 0.5 and p == 1.0, f"case d needs theta > 1/2 and p = 1, got p = {p}")
        _floored("alpha", alpha, poly_alpha_floor(params, derived, "d", p))
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
    return _result(noise, init, f"case {chosen}", derived, details)
