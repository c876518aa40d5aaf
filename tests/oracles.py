"""Reference computations that pin the expected values used in the tests.

Every function here is a direct transcription of a closed-form expression,
evaluated with mpmath where rounding could matter, a plain per-seed loop
that the seed-batched optimizer engine must reproduce, a per-call
recursion evaluator or list-building inequality check that the cached spec
grid and the streamed checks must reproduce bit for bit, a per-step or
per-lane loop that the step sum and the recursion finals must reproduce
bit for bit, a per-step walk whose values and first bad step the scalar
recursion must reproduce, the row-by-row compensated sum that the
lane-strided one must reproduce bit for bit on a single block, the
cell-by-cell CSV writer whose bytes the block writer must reproduce, or
the case-d offset test over its whole grid, whose decisions the peak test
must reproduce. Nothing in this module imports the package under test:
these are the independent routes (the per-lane and per-step loops take the
package's scalar functions as arguments), and the tests assert that the
library agrees with them. It also holds the extreme floats that the
error-contract property tests draw.
Running the module prints the table of pinned values.
"""
from __future__ import annotations

import csv
import math

import mpmath
import numpy as np
from mpmath import mp, mpf

mp.dps = 40

# extreme finite floats: signed zeros, subnormals, the largest float and
# values just off 1
EXTREME_FLOATS = [
    0.0, -0.0, -1.0, 5e-324, 1e-310, 1e-200, 1e-30, 0.999999, 1.000001, 2.0,
    1e30, 1e200, 1.7976931348623157e308, -1e308,
]


# ---------------------------------------------------------------------------
# step size families


def exp_decay_factor(beta, p, K):
    """Per-step factor of the exponentially decaying family."""
    return mpmath.exp((mpf(p) / K) * (mpmath.log(mpf(beta)) - mpmath.log(mpf(K))))


def exp_step(alpha, beta, p, K, k):
    return mpf(alpha) * exp_decay_factor(beta, p, K) ** k


def exp_step_sum(alpha, beta, p, K, upto):
    """Direct term-by-term sum of the first `upto` exponential steps."""
    g = exp_decay_factor(beta, p, K)
    return mpf(alpha) * mpmath.fsum(g**k for k in range(upto))


def cos_step(alpha, p, K, k):
    return mpf(alpha) * ((1 + mpmath.cos(mpf(k) * mpmath.pi / K)) / 2) ** p


def cos_step_sum(alpha, p, K, upto):
    return mpmath.fsum(cos_step(alpha, p, K, k) for k in range(upto))


def poly_step(alpha, gamma, p, k):
    return mpf(alpha) / (k + mpf(gamma)) ** p


def step_sum_per_k(step_value, schedule, K):
    """Compensated sum of the first K steps, one step_value call per k."""
    return math.fsum(step_value(schedule, k) for k in range(K))


# ---------------------------------------------------------------------------
# worst-case progress recursion over a list of lanes


def recursion_finals_per_lane(simulate, failure, lanes):
    """y_K of one simulate(params, schedule, y0, K) run from k = 0 per lane,
    in order. Every lane runs before a failure counts, so the first lane
    that simulate rejects (any other error) raises before the first lane
    that fails as a run does (failure, the type of a bad step's error)."""
    runs = []
    for lane in lanes:
        try:
            runs.append(simulate(*lane)[-1])
        except failure as exc:
            runs.append(exc)
    for run in runs:
        if isinstance(run, failure):
            raise run
    return runs


def recursion_step(params, a, y):
    """One step of the equality recursion from y, in the theta branches'
    forms; a^tau past the floats is inf, y^(2*theta) past them raises
    OverflowError."""
    l1, l2, l3, tau, two_theta = params.l1, params.l2, params.l3, params.tau, 2.0 * params.theta
    try:
        p = a * a if tau == 2.0 else a * a * a if tau == 3.0 else a**tau
    except OverflowError:
        p = math.inf
    if two_theta == 1.0:
        return ((1.0 + l1 * p) - l2 * a) * y + l3 * p
    if two_theta == 2.0:
        return (1.0 + l1 * p) * y - l2 * a * y * y + l3 * p
    return (1.0 + l1 * p) * y - l2 * a * y**two_theta + l3 * p


def recursion_walk(step_value, params, schedule, y0, K):
    """([y_0, ..., y_K], None), one step_value call and one step per k; or
    the walk up to its first bad step, a y that is negative or not finite
    or a y^(2*theta) past the floats, and that step's (message, index)."""
    ys = [float(y0)]
    if not math.isfinite(ys[0]):
        return ys, (f"trajectory value {ys[0]} is not finite at step 0", 0)
    for i in range(1, K + 1):
        try:
            y = recursion_step(params, step_value(schedule, i - 1), ys[-1])
        except OverflowError:
            return ys, (f"trajectory overflows at step {i}", i)
        ys.append(y)
        if y < 0.0:
            return ys, (f"trajectory negative at step {i}", i)
        if not math.isfinite(y):
            return ys, (f"trajectory value {y} is not finite at step {i}", i)
    return ys, None


# ---------------------------------------------------------------------------
# affine recursions a_{k+1} = (1 - 1/s_k) a_k + 1/t_k


def iterate_affine(s_vals, t_vals, a0):
    """Plain iteration; returns the whole sequence [a_0, ..., a_K]."""
    seq = [mpf(a0)]
    for s, t in zip(s_vals, t_vals):
        seq.append((1 - 1 / mpf(s)) * seq[-1] + 1 / mpf(t))
    return seq

def expansion_double_loop(s_vals, t_vals, a0):
    """O(K^2) expansion of the same recursion: initial product plus the
    error terms, each carried through the remaining contraction factors."""
    K = len(s_vals)
    head = mpf(a0)
    for s in s_vals:
        head *= 1 - 1 / mpf(s)
    terms = []
    for k in range(K):
        w = 1 / mpf(t_vals[k])
        for i in range(k + 1, K):
            w *= 1 - 1 / mpf(s_vals[i])
        terms.append(w)
    return head + mpmath.fsum(terms)


def geometric_fixed_point_bound(alpha, beta, a0, k):
    """Constant-coefficient bound beta/alpha + (1-alpha)^k (a0 - beta/alpha)."""
    fp = mpf(beta) / mpf(alpha)
    return fp + (1 - mpf(alpha)) ** k * (mpf(a0) - fp)


def forgetting_product(s_const, lam, k):
    """(1 - (1/lam)/(s - 1 + 1/lam))^(k+1) for constant s."""
    step = 1 - (1 / mpf(lam)) / (mpf(s_const) - 1 + 1 / mpf(lam))
    return step ** (k + 1)


# ---------------------------------------------------------------------------
# per-call recursion evaluators: every coefficient is evaluated again from
# the spec's functions at each use, in double precision


def coefficients(spec, k):
    """(1 - 1/s(b_k), 1/t(b_k)), with 1 and 0 where s or t is infinite."""
    x = spec.b(k)
    sv = spec.s(x)
    tv = spec.t(x)
    contraction = 1.0 if math.isinf(sv) else 1.0 - 1.0 / sv
    error = 0.0 if math.isinf(tv) else 1.0 / tv
    return contraction, error


def recursion_iterates(spec, a0, K):
    seq = [float(a0)]
    for k in range(K):
        contraction, error = coefficients(spec, k)
        seq.append(contraction * seq[-1] + error)
    return seq


def recursion_expansion(spec, a0, K):
    suffix = 1.0
    terms = []
    for k in range(K - 1, -1, -1):
        contraction, error = coefficients(spec, k)
        terms.append(suffix * error)
        suffix *= contraction
    return float(a0) * suffix + math.fsum(terms)


def recursion_general_bound(spec, lam, a0, k):
    prod = 1.0
    for i in range(k + 1):
        contraction, _ = coefficients(spec, i)
        prod *= contraction
    return lam * spec.r(spec.b(k + 1)) + (a0 - lam * spec.r(spec.b(0))) * prod


def recursion_forgetting_factor(spec, lam, k):
    """The product up to k, or ValueError from the first s with s - 1 + 1/lam = 0."""
    inv = 1.0 / lam
    prod = 1.0
    for i in range(k + 1):
        sv = spec.s(spec.b(i))
        if math.isinf(sv):
            continue
        if sv - 1.0 + inv == 0.0:
            raise ValueError(f"s(b_{i}) - 1 + 1/lam is 0 for s(b_{i}) = {sv!r}, lam = {lam!r}")
        prod *= 1.0 - inv / (sv - 1.0 + inv)
    return prod


def recursion_forgetting_bound(spec, lam, a0, k):
    r_next = spec.r(spec.b(k + 1))
    r0 = spec.r(spec.b(0))
    start = max(a0 / r0 - lam, 0.0)
    return lam * r_next + start * recursion_forgetting_factor(spec, lam, k) * r_next


def recursion_extension(spec, B, C, k0, K_certified, K):
    """B + C*prod_{i=k0}^{K-1}(1-1/s_i), or the first k with r(b_k) above B."""
    slack = 1e-12 * max(1.0, abs(B))
    for k in range(K_certified + 1, K + 1):
        if spec.r(spec.b(k)) > B + slack:
            return k
    prod = 1.0
    for i in range(k0, K):
        contraction, _ = coefficients(spec, i)
        prod *= contraction
    return B + C * prod


def recursion_slope_terms(spec):
    """(b_{k+1}-b_k)*r'(b_k)*t(b_k) for k < horizon; r' from spec.ratio."""
    terms = []
    for k in range(spec.horizon):
        x = spec.b(k)
        u = spec.ratio.d(x) * spec.t(x)
        terms.append((spec.b(k + 1) - x) * u)
    return terms


def convexity_violation(spec, subdivisions=8, tol=1e-9):
    """The largest refined-grid point where r - chord > tol*max|r|, or None;
    max|r| is the largest |r| of the point and its two neighbours.

    Each gap of the b_k grid is cut into equal parts, the points are sorted,
    and points within 1e-12 of the span of their predecessor are dropped.
    """
    b = [spec.b(k) for k in range(spec.horizon + 1)]
    points = sorted(
        [x0 + (x1 - x0) * j / subdivisions for x0, x1 in zip(b, b[1:]) for j in range(subdivisions)]
        + [b[-1]]
    )
    span = max(1.0, abs(points[-1] - points[0]))
    grid = [points[0]]
    for x in points[1:]:
        if x - grid[-1] > 1e-12 * span:
            grid.append(x)
    values = [spec.r(x) for x in grid]
    for i in range(len(grid) - 2, 0, -1):
        x0, x1, x2 = grid[i - 1], grid[i], grid[i + 1]
        chord = ((x2 - x1) * values[i - 1] + (x1 - x0) * values[i + 1]) / (x2 - x0)
        if values[i] - chord > tol * max(abs(v) for v in values[i - 1 : i + 2]):
            return x1
    return None


# ---------------------------------------------------------------------------
# grid checks of the supporting inequalities, each built as a list of
# (margin, label, value) items; a check is the tuple (name, passed, margin,
# witness label, witness value), the worst margin with the first negative item;
# a NaN margin makes the worst margin NaN and fails the check, and a NaN is
# never the witness


def _check_from(name, margins):
    nan = any(math.isnan(m) for m, _, _ in margins)
    worst = math.nan if nan else min(m for m, _, _ in margins)
    first_bad = next((item for item in margins if item[0] < 0.0), None)
    if first_bad is None:
        return (name, not nan, worst, None, None)
    return (name, False, worst, first_bad[1], first_bad[2])


def log_bound_check():
    xs = [-1.0] + [-1.0 + 0.01 * i for i in range(1, 200)] + [float(i) for i in range(1, 100)]
    margins = []
    for x in xs:
        lhs = math.log1p(x) if x > -1.0 else -math.inf
        margins.append((x - lhs, f"x={x:.6g}", x))
    return _check_from("log-upper-bound", margins)


def product_exp_check(k_max):
    margins = []
    n = 1
    case = 0
    while n <= k_max:
        for offset in (0.0, 0.37, 1.9):
            xs = [-1.0 + 2.5 * math.modf(0.6180339887498949 * (i + 1) + offset)[0] for i in range(n)]
            prod = 1.0
            for x in xs:
                prod *= 1.0 + x
            margins.append((math.exp(math.fsum(xs)) - prod, f"n={n},set={case}", prod))
            case += 1
        n *= 2
    margins.append((math.exp(0.0) - 1.0, "n=3,zeros", 1.0))
    return _check_from("product-exp-bound", margins)


def power_difference_check(r_grid):
    grid = [10.0 ** (-2.0 + 4.0 * i / 24.0) for i in range(25)]
    margins = []
    for r in list(r_grid) + [1e-3, 10.0]:
        for x in grid:
            for y in grid:
                lhs = x**r - y**r
                rhs = r * y**r * (x - y) / x
                margins.append((lhs - rhs, f"r={r},x={x:.4g},y={y:.4g}", lhs))
    return _check_from("power-difference-bound", margins)


def cosine_bracket_check(k_max):
    lower, upper = [], []
    for K in range(1, k_max + 1):
        for k in range(K + 1):
            frac = 1.0 - k / K
            mid = 1.0 + math.cos(k * math.pi / K)
            lower.append((mid - 2.0 * frac**2, f"K={K},k={k}", mid))
            upper.append(((math.pi**2 / 2.0) * frac**2 - mid, f"K={K},k={k}", mid))
    return (
        _check_from("cosine-lower-bracket", lower),
        _check_from("cosine-upper-bracket", upper),
    )


def cosine_shifted_check(k_max):
    margins = []
    for K in range(2, k_max + 1):
        for k in range(K - 1):
            lhs = 1.0 + math.cos((k + 1) * math.pi / K)
            rhs = 0.5 * (1.0 - k / K) ** 2
            margins.append((lhs - rhs, f"K={K},k={k}", lhs))
    return _check_from("cosine-shifted-lower", margins)


def cosine_increment_check(k_max):
    margins = []
    for K in range(1, k_max + 1):
        for k in range(K):
            lhs = math.cos((k + 1) * math.pi / K) - math.cos(k * math.pi / K)
            rhs = -(math.pi**2 / K) * (1.0 - k / K)
            margins.append((lhs - rhs, f"K={K},k={k}", lhs))
    return _check_from("cosine-increment-lower", margins)


def cosine_power_sum_check(k_max, r_grid):
    margins = []
    for K in range(1, k_max + 1):
        bases = [(1.0 + math.cos(k * math.pi / K)) / 2.0 for k in range(K)]
        for r in r_grid:
            total = math.fsum(base**r for base in bases)
            floor = K / 2.0 ** max(1.0, r)
            margins.append((total - floor, f"K={K},r={r}", total))
    return _check_from("cosine-power-sum", margins)


def integral_sandwich_check(k_max):
    margins = []
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
                tag = f"nu={nu},gamma={gamma},a={a},b={b}"
                margins.append((total - low, tag + ",lower", total))
                margins.append((high - total, tag + ",upper", total))
    return _check_from("integral-sandwich", margins)


def inequality_suite(k_max, r_grid):
    """The nine checks in the order of the library's suite."""
    lower, upper = cosine_bracket_check(k_max)
    return [
        log_bound_check(),
        product_exp_check(k_max),
        power_difference_check(r_grid),
        lower,
        upper,
        cosine_shifted_check(k_max),
        cosine_increment_check(k_max),
        cosine_power_sum_check(k_max, r_grid),
        integral_sandwich_check(k_max),
    ]


# ---------------------------------------------------------------------------
# classical decreasing-step bounds


def classical_lambda(c, nu, q, gamma):
    g = mpf(c) * mpf(gamma) ** (1 - mpf(nu))
    return g / (g - mpf(q))


def classical_nu_lt1(c, d, nu, q, gamma, a0, k):
    c, d, nu, q, gamma, a0 = map(mpf, (c, d, nu, q, gamma, a0))
    lam = classical_lambda(c, nu, q, gamma)
    lead = lam * d / c * (k + 1 + gamma) ** (-q)
    pos = max(a0 - lam * d / (c * gamma**q), mpf(0))
    decay = mpmath.exp(
        c * gamma ** (1 - nu) / (1 - nu) - c * (k + 1 + gamma) ** (1 - nu) / (1 - nu)
    )
    return lead + pos * decay


def classical_nu1(c, d, q, gamma, a0, k):
    c, d, q, gamma, a0 = map(mpf, (c, d, q, gamma, a0))
    lead = d / (c - q) * (k + 1 + gamma) ** (-q)
    pos = max(a0 - d / ((c - q) * gamma**q), mpf(0))
    return lead + gamma**c * pos * (k + 1 + gamma) ** (-c)


def classical_sigma(c, d, nu, q, gamma, sigma, a0, k):
    c, d, nu, q, gamma, sigma, a0 = map(mpf, (c, d, nu, q, gamma, sigma, a0))
    lam = classical_lambda(c, nu, q, gamma)
    lead = (1 + sigma) * d / (sigma * c) * (k + 1 + gamma) ** (-q)
    pos = max(a0 - lam * d / (c * gamma**q), mpf(0))
    return lead + pos * mpmath.exp(-c * (k + 1) / (k + 1 + gamma) ** nu)


# ---------------------------------------------------------------------------
# derived constants for the relaxed recursion


def brace(theta):
    """(2 theta - 1)^(2 theta - 1), continuously extended to 1 at theta = 1/2."""
    theta = mpf(theta)
    if theta == mpf(1) / 2:
        return mpf(1)
    return (2 * theta - 1) ** (2 * theta - 1)


def derived(l1, l2, l3, tau, theta, delta):
    l1, l2, l3, tau, theta, delta = map(mpf, (l1, l2, l3, tau, theta, delta))
    zeta = max((2 * theta - 1) * delta, (l3 / l2) ** (1 / (2 * theta)))
    xi = theta * l2 * (zeta ** (2 * theta - 1) if zeta > 0 else mpf(1))
    rho = 2 * theta / ((2 * theta - 1) * tau + 1)
    omega = (tau - 1) / ((2 * theta - 1) * tau + 1)
    q = (tau - 1) / (2 * theta)
    if l1 > 0:
        cap1 = (theta * brace(theta) * l2 * delta ** (2 * theta - 1) / l1) ** (
            2 * theta / (tau - 1)
        )
    else:
        cap1 = mpf("inf")
    cap = min(cap1, xi ** (-rho))
    return dict(zeta=zeta, xi=xi, rho=rho, omega=omega, q=q, cap=cap)


def sgd_derived(theta, L, mu, A, sigma):
    d = derived(mpf(A) * L / 2, mu, mpf(L) * mpf(sigma) ** 2 / 2, 2, theta, 1)
    d["cap"] = min(d["cap"], 1 / mpf(L))
    return d


def rr_derived(theta, L, mu, A, sigma, N):
    delta = mpf(N) ** (-1 / (2 * mpf(theta)))
    d = derived(
        mpf(A) * mpf(L) ** 2 / (2 * N),
        mpf(mu) / 2,
        mpf(L) ** 2 * mpf(sigma) ** 2 / (2 * N),
        3,
        theta,
        delta,
    )
    d["cap"] = min(d["cap"], 1 / (2 * mpf(L)))
    return d


# ---------------------------------------------------------------------------
# displayed bound expressions


def exp_bound(zeta, xi, rho, omega, q, alpha, p, beta, K, y0):
    zeta, xi, rho, omega, q, alpha, p, beta, y0 = map(
        mpf, (zeta, xi, rho, omega, q, alpha, p, beta, y0)
    )
    lg = mpmath.log(mpf(K) / beta)
    b1 = 4 * zeta * (2 * p * q * lg / (xi * K)) ** omega
    b2 = 4 * zeta * alpha**q * (beta / K) ** (p * q)
    init = y0 * mpmath.exp(
        -(rho * xi * alpha ** (1 / rho) / p) * (1 - (beta / K) ** (p / rho)) * K / lg
    )
    return b1, b2, init


def cos_bound(zeta, xi, rho, omega, q, alpha, p, K, y0):
    zeta, xi, rho, omega, q, alpha, p, y0 = map(
        mpf, (zeta, xi, rho, omega, q, alpha, p, y0)
    )
    D = max(mpf(1), 2 * p * q * mpmath.pi**2)
    b1 = 2 * zeta * (2 * D / (xi * K)) ** omega
    b2 = (
        4
        * zeta
        * (mpmath.pi**2 / 4) ** (p * q)
        * alpha ** (omega / (2 * p + rho))
        * (2 * D / (xi * K)) ** (2 * p * omega / (2 * p + rho))
    )
    init = y0 * mpmath.exp(
        -xi * alpha ** (1 / rho) * K / 2 ** max(mpf(1), p / rho)
    )
    return b1, b2, init, D


def const_bound(zeta, xi, rho, q, alpha, K, y0):
    zeta, xi, rho, q, alpha, y0 = map(mpf, (zeta, xi, rho, q, alpha, y0))
    return 2 * zeta * alpha**q, y0 * mpmath.exp(-xi * alpha ** (1 / rho) * K)


def poly_case_b(zeta, xi, rho, q, u2, alpha, gamma, K, y0):
    zeta, xi, rho, q, u2, alpha, gamma, y0 = map(
        mpf, (zeta, xi, rho, q, u2, alpha, gamma, y0)
    )
    noise = 4 * zeta * alpha**q * (K + gamma) ** (-u2)
    init = y0 * ((K + gamma) / gamma) ** (-xi * alpha ** (1 / rho))
    return noise, init


def exp_split_index(xi, alpha, K):
    """Last index where the constant-2 certificate holds for the exponential
    family with unit horizon-to-floor ratio (beta = 1, p = 1)."""
    x = math.log(xi * alpha * K / (2 * math.log(K))) * K / math.log(K)
    return math.floor(x)


# ---------------------------------------------------------------------------
# noise-free descent and rate exponents


def noise_free(theta, mu, gap0, step_sum):
    theta, mu, gap0, step_sum = map(mpf, (theta, mu, gap0, step_sum))
    if theta == mpf(1) / 2:
        return gap0 * mpmath.exp(-mu * step_sum)
    return (gap0 ** (1 - 2 * theta) + (2 * theta - 1) * mu * step_sum) ** (
        -1 / (2 * theta - 1)
    )


def rate_sgd(p, theta):
    p, theta = mpf(p), mpf(theta)
    first = p / (2 * theta)
    if theta == mpf(1) / 2:
        return first
    return min(first, (1 - p) / (2 * theta - 1))


def rate_rr(p, theta):
    p, theta = mpf(p), mpf(theta)
    first = p / theta
    if theta == mpf(1) / 2:
        return first
    return min(first, (1 - p) / (2 * theta - 1))


def rho_s(theta):
    return 2 * mpf(theta) / (4 * mpf(theta) - 1)


def rho_r(theta):
    return mpf(theta) / (3 * mpf(theta) - 1)


def power_family_mu(c, theta):
    q = 1 / (1 - mpf(theta))
    return q**2 * mpf(c) ** (2 * (1 - mpf(theta))) / 2


# ---------------------------------------------------------------------------
# per-seed optimizer loops, one point at a time


def point_problem(meta):
    """(objective, gradient, component gradients) of one point of shape (d,),
    rebuilt from a problem's meta with per-point arithmetic: np.dot,
    math.fsum over components and Python's scalar pow."""
    kind = meta["kind"]
    if kind == "diag_quadratic":
        spectrum = np.array(meta["spectrum"])
        return lambda x: float(0.5 * np.dot(spectrum, x * x)), lambda x: spectrum * x, None
    if kind == "finite_sum_quadratic":
        kap, cen = np.array(meta["curvatures"]), np.array(meta["shifts"])
        N = len(kap)

        def objective(x):
            return math.fsum(kap * (float(x[0]) - cen) ** 2) / (2.0 * N)

        def gradient(x):
            return np.array([math.fsum(kap * (float(x[0]) - cen)) / N])

        def component(ki, ci):
            return lambda x: np.array([ki * (float(x[0]) - ci)])

        return objective, gradient, [component(float(k), float(c)) for k, c in zip(kap, cen)]
    growth, c = meta["growth"], meta["scale"]

    def gradient(x):
        v = float(x[0])
        if v == 0.0:
            return np.zeros(1)
        return np.array([c * growth * abs(v) ** (growth - 1.0) * math.copysign(1.0, v)])

    return lambda x: c * abs(float(x[0])) ** growth, gradient, None


def sgd_one_seed(objective, gradient, f_star, radius, alphas, x0, seed, sigma=None, A=0.0):
    """One seed's SGD gaps and left-domain flag, with one Philox(key=seed)
    normal draw per step; sigma None runs noise-free gradient descent."""
    K, dim = len(alphas), len(x0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    gaps = np.empty(K + 1)
    x = np.array(x0, dtype=float)
    gap = objective(x) - f_star
    gaps[0] = gap
    left = False
    for k, a in enumerate(alphas):
        g = gradient(x)
        if sigma is not None:
            if A == 0.0:
                g = g + rng.standard_normal(dim) * (sigma / math.sqrt(dim))
            else:
                g = g + rng.standard_normal(dim) * math.sqrt((A * max(gap, 0.0) + sigma**2) / dim)
        x = x - a * g
        gap = objective(x) - f_star
        gaps[k + 1] = gap
        if np.linalg.norm(x) > radius:
            left = True
    return gaps, left


def rr_one_seed(objective, components, f_star, radius, alphas, x0, seed):
    """One seed's random-reshuffling gaps and left-domain flag, with one
    rng.permutation(N) per epoch from Philox(key=seed)."""
    N = len(components)
    rng = np.random.Generator(np.random.Philox(key=seed))
    gaps = np.empty(len(alphas) + 1)
    x = np.array(x0, dtype=float)
    gaps[0] = objective(x) - f_star
    left = False
    for k, a in enumerate(alphas):
        inner = a / N
        for j in rng.permutation(N):
            x = x - inner * components[j](x)
        gaps[k + 1] = objective(x) - f_star
        if np.linalg.norm(x) > radius:
            left = True
    return gaps, left


def compensated_row_sum(rows):
    """Neumaier's compensated sum of equal-shape arrays, one row at a time in
    order, each rounding error found with Knuth's branch-free TwoSum."""
    rows = iter(rows)
    total = np.array(next(rows), dtype=float)
    comp = np.zeros(total.shape)
    for row in rows:
        nxt = total + row
        kept = nxt - total  # the part of row that the sum kept
        comp += (total - (nxt - kept)) + (row - kept)
        total = nxt
    return total + comp


# ---------------------------------------------------------------------------
# CSV tables


def csv_cell(value) -> str:
    """A CSV cell as csv.writer gets it: floats with 17 significant digits."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            return "nan"
        return "%.17g" % value
    return str(value)


def write_csv(path, header, rows):
    """One csv.writer row per table row, one cell at a time."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([csv_cell(v) for v in row])


def _show(label, value):
    print(f"{label:58s} {mpmath.nstr(mpf(value), 17)}")


if __name__ == "__main__":
    _show("exp step value alpha=1 beta=1 p=1 K=100 k=1", exp_step(1, 1, 1, 100, 1))
    _show("exp step value same, k=100", exp_step(1, 1, 1, 100, 100))
    _show("exp step sum alpha=1 beta=1 p=1 K=100 upto=100", exp_step_sum(1, 1, 1, 100, 100))
    _show("cos step sum alpha=1 p=1 K=10 upto=10", cos_step_sum(1, 1, 10, 10))

    s_vals, t_vals = [2] * 3, [4] * 3
    seq = iterate_affine(s_vals, t_vals, 1)
    print("iterate s=2 t=4 a0=1 K=3:", [mpmath.nstr(v, 17) for v in seq])
    _show("expansion s=2 t=4 a0=1 K=2", expansion_double_loop([2] * 2, [4] * 2, 1))
    _show("expansion s=2 t=4 a0=0 K=2", expansion_double_loop([2] * 2, [4] * 2, 0))
    _show("geometric bound alpha=.5 beta=.25 a0=1 k=1", geometric_fixed_point_bound(0.5, 0.25, 1, 1))
    _show("forgetting s=2 lam=1 k=2", forgetting_product(2, 1, 2))

    _show("classical lambda c=1 nu=.5 q=.25 gamma=4", classical_lambda(1, 0.5, 0.25, 4))
    _show("classical nu=1 c=2 d=1 q=1 gamma=2 a0=0 k=0", classical_nu1(2, 1, 1, 2, 0, 0))
    _show("classical nu=1 same, a0=2 k=0", classical_nu1(2, 1, 1, 2, 2, 0))
    _show("classical nu<1 c=1 d=1 nu=.5 q=.25 gamma=4 a0=2 k=3", classical_nu_lt1(1, 1, 0.5, 0.25, 4, 2, 3))
    _show("classical sigma variant same, sigma=1", classical_sigma(1, 1, 0.5, 0.25, 4, 1, 2, 3))

    _show("brace theta=3/4", brace(0.75))
    d = sgd_derived(0.5, 1, 1, 0, 1)
    print("sgd theta=1/2 L=mu=sigma=1 A=0:", {k: mpmath.nstr(v, 12) for k, v in d.items()})
    d = rr_derived(0.5, 1, 1, 0, 1, 4)
    print("rr theta=1/2 L=mu=sigma=1 A=0 N=4:", {k: mpmath.nstr(v, 12) for k, v in d.items()})

    b1, b2, init = exp_bound(0.5, 0.5, 1, 1, 1, 1, 1, 1, 100, 1)
    _show("sgd exp bound branch1", b1)
    _show("sgd exp bound branch2", b2)
    _show("sgd exp bound init", init)
    _show("sgd exp bound total", max(b1, b2) * 1 + init)

    noise, init = const_bound(0.5, 0.5, 1, 1, 0.1, 100, 1)
    _show("sgd const bound alpha=.1 K=100 noise", noise)
    _show("sgd const bound init", init)
    _show("sgd const bound total", noise + init)

    noise, init = poly_case_b(0.5, 0.5, 1, 1, 1, 4, 4, 96, 1)
    _show("sgd poly tuned theta=1/2 alpha=4 gamma=4 K=96 noise", noise)
    _show("sgd poly tuned init", init)

    b1, b2, init, D = cos_bound(0.5, 0.5, 1, 1, 1, 0.5, 1, 100, 1)
    _show("sgd cos D (theta=1/2, p=1)", D)

    _show("split index xi=.5 alpha=1 K=100", exp_split_index(0.5, 1, 100))
    _show("noise-free theta=1 mu=1 gap0=1 sum=9", noise_free(1, 1, 1, 9))
    _show("power family mu (theta=1/2, c=1/2)", power_family_mu(0.5, 0.5))
    _show("power family mu (theta=2/3, c=1)", power_family_mu(1, 2 / mpf(3)))
    _show("rate_sgd(0.5, 1)", rate_sgd(0.5, 1))
    _show("rho_s(2/3)", rho_s(2 / mpf(3)))
    _show("omega check w_s(rho_s) theta=2/3", rate_sgd(rho_s(2 / mpf(3)), 2 / mpf(3)))


# ---------------------------------------------------------------------------
# the case-d offset test over its whole grid


def offset_grid(K):
    """k = 0..64, then doubling up to K: the points the case-d offset test covers."""
    ks = list(range(65))
    k = 64
    while k < K:
        k = min(2 * k, K)
        ks.append(k)
    return ks


def offset_admissible_grid(params, alpha, K, gamma, rel=1e-12):
    """The case-d offset test evaluated at every grid point, in log space
    with relative slack rel, as the peak test must decide it."""
    theta, l1, l2, l3, tau = params.theta, params.l1, params.l2, params.l3, params.tau
    log_power = 2.0 * theta / (2.0 * theta - 1.0)
    if not gamma >= math.e or not math.isfinite(gamma):
        return False
    if gamma * math.log(gamma) < alpha * theta * l2 * (1.0 - rel):
        return False
    slack = math.log1p(rel)
    log_alpha = math.log(alpha)
    for kk in offset_grid(K):
        lg = math.log(kk + gamma)
        base = (tau - 1.0) * (log_alpha - lg)
        log_lg = math.log(lg) if lg > 1.0 else 0.0
        if l1 > 0 and math.log(l1) + base + log_lg > math.log(theta * l2) + slack:
            return False
        if l3 > 0:
            power_term = log_power * log_lg if log_lg > 0.0 else 0.0
            if math.log(l3) + base + power_term > math.log(l2) + slack:
                return False
    return True
