"""Bounds for one-dimensional affine recursions a_{k+1} <= (1-1/s(b_k)) a_k + 1/t(b_k).

A recursion is given by coefficient functions s and t on a grid b_k in an
interval, and by r = s/t, finite there, with its analytic derivative r'. If r
is convex and a constant lambda satisfies the slope condition (b_{k+1}-b_k)*
r'(b_k)*t(b_k) >= -1 + 1/lambda, the iterates are bounded by lambda*r(b_{k+1})
plus a contracting memory of the start.

The module offers the exact iterate and an expanded-form evaluation as
cross-checking oracles, a numeric certificate search for lambda, the bound
itself together with its extension past the certified horizon and the
forgetting-factor refinement, closed forms for the classical decreasing-step
case s = x^nu/c, t = x^(nu+q)/d, and grid verification of the elementary
inequalities those derivations lean on, whose cosine checks share one row
per K of cos(k*pi/K) and (1 - k/K)**2.

A spec evaluates s, t, b and the ratio once per grid point, at
construction, and every evaluator here reads those values (`spec.grid`)
instead of calling the functions again. They must therefore be pure: a
function whose value changes after construction is not seen. The lazy
calls are the derivative of r, which the lambda certificate evaluates on
demand, and r between grid points, where the check ratio-convex
(recursion_convexity) tests the lemma's convexity hypothesis by the
chord slacks (chord - r) relative to the largest |r| of their three points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate, repeat, takewhile
from operator import mul
from typing import Callable, NamedTuple

import numpy as np


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
class RecursionSpec:
    """Coefficient functions, evaluation grid, and horizon of one recursion.

    `ratio` is r = s/t, with the analytic r' that the lambda certificate reads;
    it gives r where s/t is indeterminate (s and t infinite, r finite).

    s, t, b and ratio are evaluated once per grid point, here, and must be
    pure: the values land in `grid`, which every evaluator of this module
    reads. Only r's derivative, by the lambda certificate, and r between
    grid points, by recursion_convexity, are called later.
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
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")
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
class ClassicalParams:
    """Parameters of the decreasing-step recursion with s = x^nu/c, t = x^(nu+q)/d."""

    c: float
    d: float
    nu: float
    q: float
    gamma: float
    varsigma: float | None = None

    def __post_init__(self) -> None:
        for name in ("c", "d", "q", "gamma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive and finite, got {v!r}")
        if not 0.0 < self.nu <= 1.0:
            raise ValueError(f"nu must lie in (0, 1], got {self.nu}")
        if self.varsigma is not None and not self.varsigma > 0:
            raise ValueError("varsigma must be positive when given")


@dataclass(frozen=True)
class CheckResult:
    """One verification outcome; serializes to the report JSON schema."""

    check: str
    passed: bool
    margin: float
    witness_index: str | None = None
    witness_value: float | None = None


class WorstMargin:
    """One check's CheckResult, streamed over its items in rows.

    The rule every check follows: the margin is min() over the item margins
    (NaN if any is NaN, +inf with no items); an item fails when its margin
    is below -floor, the tolerance given with its row; the check passes only
    when no item fails and no margin is NaN; the witness is the first
    failing item, so never a NaN. `add` keeps what a scan of all items would
    find without storing them. Item i of a row added with `where` is
    labelled label(*where, i), formatted only for the witness.
    """

    __slots__ = ("name", "label", "margin", "witness")

    def __init__(self, name: str, label: Callable[..., str]) -> None:
        self.name = name
        self.label = label
        self.margin: float | None = None
        self.witness: tuple | None = None

    def add(self, margins: list[float], values: list[float], *where, floor: float = 0.0) -> None:
        """Fold in one nonempty row of item margins and the values they witness."""
        total = sum(margins)  # NaN when a margin is, or when both infinities are
        low = math.nan if total != total and any(map(math.isnan, margins)) else min(margins)
        if self.margin is None or low < self.margin or low != low:
            self.margin = low  # a NaN, once in, stays: nothing is below it
        if self.witness is None and not low >= -floor:
            for i, m in enumerate(margins):
                if m < -floor:
                    self.witness = (values[i], self.label(*where, i))
                    return

    def result(self) -> CheckResult:
        margin = math.inf if self.margin is None else self.margin
        if self.witness is None:
            return CheckResult(self.name, not math.isnan(margin), margin)
        value, label = self.witness
        return CheckResult(self.name, False, margin, label, value)


@dataclass(frozen=True)
class SuiteReport:
    """A suite's checks and its counts of the work behind them (draws, resamples)."""

    checks: tuple[CheckResult, ...] = field(default_factory=tuple)
    counts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_start(a0: float) -> None:
    """A start value's check; inf would give inf * 0.0 = NaN where a product is 0."""
    if not a0 >= 0.0:
        raise ValueError("a0 must be nonnegative")
    if a0 == math.inf:
        raise ValueError("a0 must be finite, got inf")


def iterate_recursion_exact(spec: RecursionSpec, a0: float, K: int) -> list[float]:
    """Run the recursion with equality; returns [a_0, ..., a_K]."""
    if not 1 <= K <= spec.horizon:
        raise ValueError(f"K must lie in [1, {spec.horizon}], got {K}")
    _check_start(a0)
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
    if not 1 <= K <= spec.horizon:
        raise ValueError(f"K must lie in [1, {spec.horizon}], got {K}")
    _check_start(a0)
    grid = spec.grid
    suffix = 1.0
    terms = []
    for contraction, error in zip(grid.contraction[K - 1 :: -1], grid.error[K - 1 :: -1]):
        terms.append(suffix * error)
        suffix *= contraction
    return float(a0) * suffix + math.fsum(terms)


CONVEXITY_SUBDIVISIONS = 8  # equal parts of each gap of the b_k grid
CONVEXITY_TOL = 1e-9  # the relative chord slack an item of ratio-convex may lack
SLOPE_TOL = 1e-9  # the slack a step of the slope condition may lack for a target lambda


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
    if not lambda_target > 0:
        raise ValueError("lambda_target must be positive")
    threshold = -1.0 + 1.0 / lambda_target
    gaps = list(takewhile(lambda gap: gap >= -SLOPE_TOL, [h - threshold for h in terms]))
    return CertifiedLambda(lambda_target, len(gaps), min(gaps, default=-math.inf))


def _check_certified(spec: RecursionSpec, cert: CertifiedLambda, a0: float, k: int) -> None:
    """The checks of general_bound and forgetting_bound: k within cert and spec, and a0."""
    if not 0 <= k < cert.certified_horizon:
        raise PreconditionError(f"k = {k} beyond certified horizon {cert.certified_horizon}")
    if k + 1 > spec.horizon:
        raise ValueError(f"k + 1 = {k + 1} beyond spec horizon {spec.horizon}")
    _check_start(a0)


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
    if not 0 <= k0 <= K <= spec.horizon:
        raise ValueError("need 0 <= k0 <= K <= horizon")
    if K_certified < 0:
        raise ValueError(f"K_certified must be nonnegative, got {K_certified}")
    for name, value in (("B", B), ("C", C)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value}")
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
    if not lam > 0:
        raise ValueError("lam must be positive")
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
    _check_start(a0)
    if k < 0:
        raise ValueError("k must be nonnegative")
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


# --- grid verification of the supporting inequalities ---------------------


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
        mid_list = mids.tolist()
        lower.add((mids - 2.0 * squares).tolist(), mid_list, K)
        upper.add(((math.pi**2 / 2.0) * squares - mids).tolist(), mid_list, K)
        if K > 1:  # k = 0..K-2 against cos((k + 1)*pi/K)
            lhs = mids[1:K]
            shifted.add((lhs - 0.5 * squares[: K - 1]).tolist(), lhs.tolist(), K)
        lhs = cos[1:] - cos[:-1]
        increment.add((lhs + (math.pi**2 / K) * fracs[:K]).tolist(), lhs.tolist(), K)
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
    if K_max < 2:
        raise ValueError("K_max must be at least 2")
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
