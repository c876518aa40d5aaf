"""Bounds for one-dimensional affine recursions a_{k+1} <= (1-1/s(b_k)) a_k + 1/t(b_k).

A recursion is given by coefficient functions s and t on a grid b_k in an
interval, and by r = s/t, finite there, with its analytic derivative r'. If r
is convex and a constant lambda satisfies the slope condition (b_{k+1}-b_k)*
r'(b_k)*t(b_k) >= -1 + 1/lambda, the iterates are bounded by lambda*r(b_{k+1})
plus a contracting memory of the start.

The module offers the exact iterate and an expanded-form evaluation as
cross-checking oracles, a numeric certificate search for lambda, the bound
itself together with its extension past the certified horizon and the
forgetting-factor refinement, and closed forms for the classical
decreasing-step case s = x^nu/c, t = x^(nu+q)/d. The numeric checks of the
lemma's hypotheses (verify.recursion_convexity) and of the elementary
inequalities behind it (verify.tech_inequality_suite) live in verify.

A spec evaluates s, t, b and the ratio once per grid point, at
construction, and every evaluator here reads those values (`spec.grid`)
instead of calling the functions again. They must therefore be pure: a
function whose value changes after construction is not seen. The lazy
calls are the derivative of r, which the lambda certificate evaluates on
demand, and r between grid points, which verify.recursion_convexity reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, takewhile
from numbers import Integral
from operator import mul
from typing import Callable, NamedTuple

from .domains import Checked, check


class PreconditionError(ValueError):
    """A stated admissibility condition does not hold for the given inputs."""


@dataclass(frozen=True)
class FunctionDescriptor:
    """A scalar function with its analytic derivative, if it has one, and a label."""

    fn: Callable[[float], float]
    derivative: Callable[[float], float] | None = None
    label: str = ""

    def __call__(self, x: float) -> float:
        return float(self.fn(x))

    def d(self, x: float) -> float:
        """The analytic derivative at x; ValueError if none was given."""
        if self.derivative is None:
            raise ValueError(f"function {self.label or self.fn!r} has no analytic derivative")
        return float(self.derivative(x))


class SpecGrid(NamedTuple):
    """A spec's coefficients at its grid points k = 0..horizon, as tuples.

    b, s, t and r hold b_k, s(b_k), t(b_k) and r(b_k). contraction holds
    1 - 1/s_k (1 where s is infinite) and error 1/t_k (0 where t is
    infinite). decay[k] is the product of the first k contractions, taken
    left to right from 1.0, so decay[0] = 1.
    """

    b: tuple[float, ...]
    s: tuple[float, ...]
    t: tuple[float, ...]
    r: tuple[float, ...]
    contraction: tuple[float, ...]
    error: tuple[float, ...]
    decay: tuple[float, ...]


@dataclass(frozen=True)
class RecursionSpec(Checked):
    """Coefficient functions, evaluation grid, and horizon of one recursion.

    `ratio` is r = s/t, with the analytic r' that the lambda certificate reads;
    it gives r where s/t is indeterminate (s and t infinite, r finite).

    s, t, b and ratio are evaluated once per grid point, here, and must be
    pure: the values land in `grid`, which every evaluator of this module
    reads. Only r's derivative, by the lambda certificate, and r between
    grid points, by verify.recursion_convexity, are called later.
    """

    s: FunctionDescriptor
    t: FunctionDescriptor
    b: Callable[[int], float]
    interval: tuple[float, float]
    horizon: int
    ratio: FunctionDescriptor
    grid: SpecGrid = field(init=False, repr=False, compare=False)
    _forgetting: tuple = field(default=(None, ()), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        lo, hi = self.interval
        if not lo < hi:
            raise ValueError(f"empty interval {self.interval}")
        slack = 1e-12 * max(1.0, abs(lo), 0.0 if math.isinf(hi) else abs(hi))
        if self.ratio is None:
            raise TypeError("RecursionSpec needs ratio, r = s/t with its analytic derivative")
        # the descriptors' calls without their frames: this loop is most of
        # what a short spec costs
        b, s, t, ratio = self.b, self.s.fn, self.t.fn, self.ratio.fn
        rows = []
        for k in range(self.horizon + 1):
            x = b(k)
            if not (lo - slack <= x <= hi + slack):
                raise ValueError(f"b_{k} = {x} outside interval {self.interval}")
            sv = float(s(x))
            if not sv >= 1.0 - 1e-12:
                raise ValueError(f"s(b_{k}) = {sv} violates s >= 1")
            tv = float(t(x))
            if not tv > 0.0:
                raise ValueError(f"t(b_{k}) = {tv} violates t > 0")
            rv = float(ratio(x))
            if not math.isfinite(rv):
                raise ValueError(f"r(b_{k}) = {rv} is not finite")
            # at s = inf or t = inf, IEEE division gives the limits 1.0 and 0.0
            rows.append((x, sv, tv, rv, 1.0 - 1.0 / sv, 1.0 / tv))
        bs, ss, ts, rs, contractions, errors = zip(*rows)
        decay = tuple(accumulate(contractions[:-1], mul, initial=1.0))
        grid = SpecGrid(bs, ss, ts, rs, contractions, errors, decay)
        object.__setattr__(self, "grid", grid)

    def r(self, x: float) -> float:
        return self.ratio(x)


@dataclass(frozen=True)
class CertifiedLambda:
    """A constant damping factor with the horizon through which it is valid.

    certified_horizon counts the consecutive step indices from 0 whose slope
    condition holds, so the bound may be evaluated at k < certified_horizon.
    A value of 0 means no step could be certified. condition_margin is the
    least slack of the slope condition over the certified run: 0 for the
    least lambda, found without a target, and -inf when nothing is certified.
    """

    lam: float
    certified_horizon: int
    condition_margin: float


@dataclass(frozen=True)
class ClassicalParams(Checked):
    """Parameters of the decreasing-step recursion with s = x^nu/c, t = x^(nu+q)/d."""

    c: float
    d: float
    nu: float
    q: float
    gamma: float
    varsigma: float | None = None


def _check_steps(spec: RecursionSpec, a0: float, K: int) -> None:
    """A start value a0 and a step count K within the spec's horizon."""
    check(a0=a0, K=K)
    if K > spec.horizon:
        raise ValueError(f"K = {K} beyond spec horizon {spec.horizon}")


def iterate_recursion_exact(spec: RecursionSpec, a0: float, K: int) -> list[float]:
    """Run the recursion with equality; returns [a_0, ..., a_K]."""
    _check_steps(spec, a0, K)
    a = float(a0)
    seq = [a]
    append = seq.append
    grid = spec.grid
    for contraction, error in zip(grid.contraction[:K], grid.error[:K]):
        a = contraction * a + error
        append(a)
    return seq


def expansion_bound(spec: RecursionSpec, a0: float, K: int) -> float:
    """a_K written out as start term plus accumulated errors.

    Computes a0*prod_k(1-1/s(b_k)) + sum_k [prod_{i>k}(1-1/s(b_i))]/t(b_k)
    by backward suffix accumulation; empty products are 1. Agrees with
    iterate_recursion_exact up to floating-point reordering.
    """
    _check_steps(spec, a0, K)
    grid = spec.grid
    suffix = 1.0
    terms = []
    for contraction, error in zip(grid.contraction[K - 1 :: -1], grid.error[K - 1 :: -1]):
        terms.append(suffix * error)
        suffix *= contraction
    return float(a0) * suffix + math.fsum(terms)


SLOPE_TOL = 1e-9  # the slack a step of the slope condition may lack for a target lambda


def _slope_terms(spec: RecursionSpec) -> list[float]:
    """(b_{k+1}-b_k)*r'(b_k)*t(b_k) for k < horizon, r' the ratio's derivative."""
    b, t, ratio = spec.grid.b, spec.grid.t, spec.ratio
    derivative = ratio.derivative or ratio.d  # d raises the ValueError where r' is missing
    return [(x1 - x) * (float(derivative(x)) * tv) for x, x1, tv in zip(b, b[1:], t)]


def find_lambda_constant(
    spec: RecursionSpec, lambda_target: float | None = None
) -> CertifiedLambda:
    """Certify a constant damping factor along the grid.

    Without a target, takes the run of indices where 1 + slope term stays
    strictly positive and returns the smallest lambda valid on that run.
    With a target, certifies the run where the slope condition holds for
    that lambda, to within SLOPE_TOL. A NaN slope term ends either run. An
    empty run yields certified_horizon 0 (with lam = inf without a target).
    """
    terms = _slope_terms(spec)
    if lambda_target is None:
        feasible = list(takewhile(lambda h: 1.0 + h > 0.0, terms))
        if not feasible:
            return CertifiedLambda(math.inf, 0, -math.inf)
        # lam is the least lambda that clears every 1/(1 + h), so the least
        # slack is 0, at the binding index; h + 1 - 1/lam, the same slack
        # in other units, rounds apart from it and can read -1e-16
        lam = max(1.0 / (1.0 + h) for h in feasible)
        return CertifiedLambda(lam, len(feasible), 0.0)
    check(lambda_target=lambda_target)
    threshold = -1.0 + 1.0 / lambda_target
    gaps = list(takewhile(lambda gap: gap >= -SLOPE_TOL, [h - threshold for h in terms]))
    return CertifiedLambda(lambda_target, len(gaps), min(gaps, default=-math.inf))


def _check_certified(spec: RecursionSpec, cert: CertifiedLambda, a0: float, k: int) -> None:
    """The checks of general_bound and forgetting_bound: a0, and k within cert and spec."""
    check(a0=a0, k=k)
    if not k < cert.certified_horizon:
        raise PreconditionError(f"k = {k} beyond certified horizon {cert.certified_horizon}")
    if k + 1 > spec.horizon:
        raise ValueError(f"k + 1 = {k + 1} beyond spec horizon {spec.horizon}")


def general_bound(spec: RecursionSpec, cert: CertifiedLambda, a0: float, k: int) -> float:
    """lambda*r(b_{k+1}) + (a0 - lambda*r(b_0)) * prod_{i<=k}(1-1/s(b_i)).

    Valid for k < cert.certified_horizon; the second term keeps its sign.
    The product is the spec's prefix product, so a call costs O(1).
    """
    _check_certified(spec, cert, a0, k)
    grid = spec.grid
    lam = cert.lam
    return lam * grid.r[k + 1] + (a0 - lam * grid.r[0]) * grid.decay[k + 1]


def extend_bound(
    spec: RecursionSpec, B: float, C: float, k0: int, K_certified: int, K: int
) -> float:
    """Propagate a bound of the form B + C*prod past the certified horizon.

    Requires finite B and C (an infinite C times a product of 0.0 is NaN)
    and r(b_k) <= B for every k in [K_certified+1, K]; returns
    B + C*prod_{i=k0}^{K-1}(1-1/s(b_i)).
    """
    check(B=B, C=C, k0=k0, K_certified=K_certified)
    # K ends the product, so K = k0 = 0 (the empty product) is one
    if isinstance(K, bool) or not (isinstance(K, Integral) and k0 <= K <= spec.horizon):
        raise ValueError(
            f"need an integer K with k0 <= K <= horizon, got k0 = {k0}, K = {K!r}, "
            f"horizon = {spec.horizon}"
        )
    grid = spec.grid
    slack = 1e-12 * max(1.0, abs(B))
    for k in range(K_certified + 1, K + 1):
        rv = grid.r[k]
        if rv > B + slack:
            raise PreconditionError(f"r(b_{k}) = {rv} exceeds B = {B}")
    return B + C * math.prod(grid.contraction[k0:K], start=1.0)


def forgetting_factor(spec: RecursionSpec, lam: float, k: int) -> float:
    """prod_{i=0}^{k} (1 - (1/lam)/(s(b_i)-1+1/lam)); 1 for k = -1.

    The products for every k are taken left to right on the first call for
    a lam and kept on the spec, for its last lam only, so a call costs O(1).
    An infinite s gives the factor 1.0 (x * 1.0 is x); from an s with
    s - 1 + 1/lam = 0 on, every k raises a ValueError that names that s and lam.
    """
    check(lam=lam)
    # a second domain for k: any integer, as every k <= -1 gives the empty product 1
    if isinstance(k, bool) or not (isinstance(k, int) or isinstance(k, Integral)):
        raise ValueError(f"the forgetting factor needs an integer k, got {k!r}")
    if k + 1 > spec.horizon:
        raise ValueError(f"k = {k} beyond spec horizon {spec.horizon}")
    kept, prefix = spec._forgetting
    if kept != lam:
        inv, factors = 1.0 / lam, []
        try:
            for s in spec.grid.s[:-1]:
                # guarded: at s = inf and inv = inf (lam near 0), inf/inf is NaN
                factors.append(1.0 if math.isinf(s) else 1.0 - inv / (s - 1.0 + inv))
        except ZeroDivisionError:
            pass
        prefix = tuple(accumulate(factors, mul, initial=1.0))
        object.__setattr__(spec, "_forgetting", (lam, prefix))
    if k + 1 >= len(prefix):
        i, s = len(prefix) - 1, spec.grid.s[len(prefix) - 1]
        raise ValueError(f"s(b_{i}) - 1 + 1/lam is 0 for s(b_{i}) = {s!r}, lam = {lam!r}")
    return prefix[max(k + 1, 0)]


def forgetting_bound(spec: RecursionSpec, cert: CertifiedLambda, a0: float, k: int) -> float:
    """Variant of general_bound whose memory term decays at the refined rate."""
    _check_certified(spec, cert, a0, k)
    lam = cert.lam
    r_next = spec.grid.r[k + 1]
    r0 = spec.grid.r[0]
    start = max(a0 / r0 - lam, 0.0)
    return lam * r_next + start * forgetting_factor(spec, lam, k) * r_next


def classical_lambda(params: ClassicalParams) -> float:
    """c*gamma^(1-nu) / (c*gamma^(1-nu) - q)."""
    g = params.c * params.gamma ** (1.0 - params.nu)
    if not g > params.q:
        raise PreconditionError(
            f"need c*gamma^(1-nu) > q, got {g} <= {params.q}"
        )
    return g / (g - params.q)


def _power(base: float, exponent: float) -> float:
    """base**exponent, or its limit +inf where float ** raises: a power past
    the floats (OverflowError) or 0.0 to a negative power (ZeroDivisionError).
    The one limit rule for the powers that build constants and specs."""
    try:
        return base**exponent
    except (OverflowError, ZeroDivisionError):
        return math.inf


def classical_bound(
    params: ClassicalParams, a0: float, k: int, variant: str = "standard"
) -> float:
    """Closed-form bound for a_{k+1} under the decreasing-step recursion.

    variant "standard" uses the exponentially decaying start term for nu < 1
    and the power-decay form at nu = 1; variant "sigma" trades a larger
    leading coefficient (1+varsigma)/varsigma for a simpler decay factor.
    Where gamma^q passes the floats, the start term subtracts its limit, 0;
    where a floor on gamma does, the floor's PreconditionError names it inf.
    """
    check(a0=a0, k=k)
    c, d, nu, q, gamma = params.c, params.d, params.nu, params.q, params.gamma
    floor = _power(c, 1.0 / nu)
    if not gamma >= floor:
        raise PreconditionError(f"need gamma >= c^(1/nu), got {gamma} < {floor}")
    x = k + 1.0 + gamma

    if variant == "sigma":
        if params.varsigma is None:
            raise PreconditionError("sigma variant requires varsigma")
        if not nu < 1.0:
            raise PreconditionError("sigma variant is defined for nu < 1")
        vs = params.varsigma
        if vs * c == 0.0:  # (1+varsigma)*d/(varsigma*c) would divide by zero
            raise ValueError(f"varsigma*c underflows to 0.0 for varsigma = {vs!r}, c = {c!r}")
        floor = _power((1.0 + vs) * q / c, 1.0 / (1.0 - nu))
        if not gamma >= floor:
            raise PreconditionError(
                f"need gamma >= ((1+varsigma)q/c)^(1/(1-nu)), got {gamma} < {floor}"
            )
        lam = classical_lambda(params)
        lead = (1.0 + vs) * d / (vs * c) * x ** (-q)
        start = max(a0 - lam * d / (c * _power(gamma, q)), 0.0)
        return lead + start * math.exp(-c * (k + 1.0) / x**nu)

    if variant != "standard":
        raise ValueError(f"unknown variant {variant!r}")

    if nu < 1.0:
        floor = _power(q / c, 1.0 / (1.0 - nu))
        if not gamma > floor:
            raise PreconditionError(f"need gamma > (q/c)^(1/(1-nu)), got {gamma} <= {floor}")
        lam = classical_lambda(params)
        lead = lam * d / c * x ** (-q)
        start = max(a0 - lam * d / (c * _power(gamma, q)), 0.0)
        scale = c / (1.0 - nu)
        return lead + start * math.exp(scale * (gamma ** (1.0 - nu) - x ** (1.0 - nu)))

    # nu = 1
    if not c > q:
        raise PreconditionError(f"need c > q at nu = 1, got c={c}, q={q}")
    if not gamma >= c:
        raise PreconditionError(f"need gamma >= c at nu = 1, got {gamma} < {c}")
    lead = d / (c - q) * x ** (-q)
    start = max(a0 - d / ((c - q) * _power(gamma, q)), 0.0)
    # gamma^c/x^c in log space; the exponent is nonpositive since x > gamma
    decay = math.exp(c * (math.log(gamma) - math.log(x)))
    return lead + start * decay


def classical_spec(
    params: ClassicalParams, horizon: int, decay: str = "direct"
) -> RecursionSpec:
    """RecursionSpec matching the closed-form parameters, with analytic r'.

    decay "direct" encodes the recursion's own contraction c/x^nu. decay
    "integral" encodes the integral-test factor instead; its running product
    telescopes to the start-term decay displayed by classical_bound, so
    general_bound with the classical lambda reproduces that display whenever
    a0 is at or above the starting envelope. Both choices share t and the
    ratio, hence certify the same lambda.
    """
    check(horizon=horizon)
    c, d, nu, q = params.c, params.d, params.nu, params.q
    gamma = params.gamma
    if horizon + gamma == gamma:
        raise ValueError(
            "gamma + horizon rounds to gamma in double precision "
            f"(gamma = {gamma!r}, horizon = {horizon})"
        )
    ratio = FunctionDescriptor(
        fn=lambda x: (d / c) * _power(x, -q),
        derivative=lambda x: -(q * d / c) * _power(x, -q - 1.0),
        label="(d/c)x^-q",
    )
    if decay == "direct":
        s = FunctionDescriptor(fn=lambda x: x**nu / c, label="x^nu/c")
    elif decay == "integral":
        if nu < 1.0:
            scale = c / (1.0 - nu)

            def factor(x: float) -> float:
                return math.exp(-scale * ((x + 1.0) ** (1.0 - nu) - x ** (1.0 - nu)))

        else:

            def factor(x: float) -> float:
                return math.exp(c * (math.log(x) - math.log(x + 1.0)))

        def inverse_gap(x: float) -> float:
            gap = 1.0 - factor(x)  # 0.0 where the factor rounds to 1: s is its limit, inf
            return 1.0 / gap if gap else math.inf

        s = FunctionDescriptor(fn=inverse_gap, label="integral-test contraction")
    else:
        raise ValueError(f"unknown decay {decay!r}")
    return RecursionSpec(
        s=s,
        t=FunctionDescriptor(fn=lambda x: _power(x, nu + q) / d, label="x^(nu+q)/d"),
        b=lambda k: k + gamma,
        interval=(gamma, horizon + gamma),
        horizon=horizon,
        ratio=ratio,
    )
