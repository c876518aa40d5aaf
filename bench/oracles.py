"""Independent reference computations and tolerance checks for the benchmark.

Nothing here calls steprates: the step sizes, the worst-case progress
recursion and the expected SGD/RR gaps are recomputed from their
definitions, so the checks do not trust the code they measure.
"""
from __future__ import annotations

import itertools
import math

# Relative tolerance for deterministic outputs; the acceptance suite uses the same.
REL_TOL = 1e-10
# Half-width, in standard errors, of the band around a closed-form expectation.
# A false alarm needs a 6-sigma excursion: about 2e-9 per check for a normal mean.
Z_BAND = 6.0


def step_alphas(schedule: dict, K: int) -> list[float]:
    """alpha_0..alpha_{K-1} of a CLI schedule section, from the family definitions."""
    family, a = schedule["family"], float(schedule["alpha"])
    if family == "constant":
        return [a] * K
    if family == "polynomial":
        g, p = float(schedule["gamma"]), float(schedule["p"])
        return [a / (k + g) ** p for k in range(K)]
    if family == "exponential":
        beta, p = float(schedule["beta"]), float(schedule["p"])
        lg = (p / K) * (math.log(beta) - math.log(K))
        return [a * math.exp(k * lg) for k in range(K)]
    if family == "cosine":
        p = float(schedule["p"])
        return [a * ((1.0 + math.cos(k * math.pi / K)) / 2.0) ** p for k in range(K)]
    raise ValueError(f"unknown family {family!r}")


def worst_case_final(coeffs: dict, alphas: list[float], y0: float) -> float:
    """y_K of y_{k+1} = (1 + l1 a^tau) y - l2 a y^(2 theta) + l3 a^tau."""
    l1, l2, l3 = coeffs["l1"], coeffs["l2"], coeffs["l3"]
    tau, two_theta = coeffs["tau"], 2.0 * coeffs["theta"]
    y = y0
    for a in alphas:
        power = a**tau
        y = (1.0 + l1 * power) * y - l2 * a * y**two_theta + l3 * power
    return y


def sgd_mean_gap(alpha: float, sigma: float, mu: float, e0: float, k: int) -> float:
    """E[f(x_k) - f*] for SGD with additive N(0, sigma^2) noise on mu/2 (x - x*)^2.

    With e = x - x*, e_{k+1} = (1 - alpha mu) e_k - alpha xi_k, so
    E[e_k^2] = r^(2k) e0^2 + alpha^2 sigma^2 (1 - r^(2k)) / (1 - r^2), r = 1 - alpha mu.
    """
    r2 = (1.0 - alpha * mu) ** 2
    r2k = r2**k
    return 0.5 * mu * (r2k * e0 * e0 + alpha * alpha * sigma * sigma * (1.0 - r2k) / (1.0 - r2))


def rr_mean_gaps(
    alpha: float, curvatures: list[float], shifts: list[float], x0: float, K: int
) -> list[float]:
    """E[f(x_k) - f*], k = 0..K, for random reshuffling on a 1-d finite-sum quadratic.

    Each epoch applies x <- (1 - alpha kappa_j / N) x + alpha kappa_j c_j / N
    along a uniform permutation, which composes to x <- A x + B_pi with A the
    same for every order; the first two moments of x then evolve exactly.
    """
    N = len(curvatures)
    mu = math.fsum(curvatures) / N
    x_star = math.fsum(k * c for k, c in zip(curvatures, shifts)) / math.fsum(curvatures)
    A = math.prod(1.0 - alpha * k / N for k in curvatures)
    offsets = []
    for order in itertools.permutations(range(N)):
        b = 0.0
        for j in order:
            b = (1.0 - alpha * curvatures[j] / N) * b + alpha * curvatures[j] * shifts[j] / N
        offsets.append(b)
    EB = math.fsum(offsets) / len(offsets)
    EB2 = math.fsum(b * b for b in offsets) / len(offsets)
    m, s = x0, x0 * x0
    gaps = []
    for k in range(K + 1):
        gaps.append(0.5 * mu * (s - 2.0 * x_star * m + x_star * x_star))
        m, s = A * m + EB, A * A * s + 2.0 * A * m * EB + EB2
    return gaps


def noise_free_envelope(theta: float, mu: float, gap0: float, alpha_sum: float) -> float:
    """Closed-form gap bound of noise-free gradient descent after step mass alpha_sum."""
    if theta == 0.5:
        return gap0 * math.exp(-mu * alpha_sum)
    power = 2.0 * theta - 1.0
    return (gap0**-power + power * mu * alpha_sum) ** (-1.0 / power)


def ols_slope(xs: list[float], ys: list[float], ses: list[float]) -> tuple[float, float]:
    """Least-squares slope of ys on xs and its standard error from per-point ses."""
    n = len(xs)
    x_mean = math.fsum(xs) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    weights = [(x - x_mean) / sxx for x in xs]
    slope = math.fsum(w * y for w, y in zip(weights, ys))
    return slope, math.sqrt(math.fsum((w * s) ** 2 for w, s in zip(weights, ses)))


def mean_and_se(values) -> tuple[float, float]:
    n = len(values)
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    """|value - ref| <= rel*|ref|; a zero reference must be matched exactly."""
    return abs(value - ref) <= rel * abs(ref)


def close_margin(value: float, ref: float, rel: float = REL_TOL) -> bool:
    """|value - ref| <= rel*max(1, |ref|), for margins that may sit at zero."""
    return abs(value - ref) <= rel * max(1.0, abs(ref))


def within_band(value: float, expected: float, se: float, label: str) -> list[str]:
    if abs(value - expected) <= Z_BAND * se:
        return []
    return [f"{label}: {value!r} vs expected {expected!r} (se {se:.3g}, band {Z_BAND:g} se)"]
