"""End-to-end acceptance checks, one visible pass/fail line per criterion.

Each test exercises a full pipeline (CLI, simulation, bound evaluation, or
optimizer run) against a quantitative target and prints a summary line even
under pytest's capture, so a plain run shows the eight headline results.
Randomness is pinned to explicit Philox keys throughout.
"""
from __future__ import annotations

import json
import math
import time
from itertools import product

import numpy as np
import pytest

from steprates.cli import main as cli_main
from steprates.optimizers import (
    NoiseModel,
    gd_run,
    make_power_family,
    make_quadratic,
    noise_free_bound,
    rr_run,
    sgd_run,
)
from steprates.plbounds import (
    PLParams,
    bound_const,
    bound_cos,
    bound_poly,
    relaxed_recursion_transform,
    rr_constants,
    sgd_constants,
)
from steprates.rates import fit_loglog, heatmap_grid, optimal_p
from steprates.recursions import (
    ClassicalParams,
    FunctionDescriptor,
    RecursionSpec,
    classical_bound,
    classical_spec,
    expansion_bound,
    find_lambda_constant,
    general_bound,
    iterate_recursion_exact,
)
from steprates.schedules import Constant, Cosine, Exponential, Polynomial, step_sum, step_values
from steprates.verify import (
    DEFAULT_R_GRID,
    bounds_suite,
    draw_classical_params,
    recursion_convexity,
    tech_inequality_suite,
)

REL_SLACK = 1e-10


def _report(capsys, index: int, label: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[criterion {index}/8] {label}: {status} ({detail})")


def _flat_spec(s0: float, t0: float, K: int) -> RecursionSpec:
    return RecursionSpec(
        s=FunctionDescriptor(fn=lambda x: s0, label="flat s"),
        t=FunctionDescriptor(fn=lambda x: t0, label="flat t"),
        b=float,
        interval=(0.0, float(K)),
        horizon=K,
        ratio=FunctionDescriptor(fn=lambda x: s0 / t0, derivative=lambda x: 0.0, label="flat r"),
    )


# --- criterion 1: landscape adaptivity of exponential steps ----------------

K_GRID = [2**e for e in range(12, 21)]

# theta -> ordered cells (id, p, alpha, gamma, expected regime); feasibility
# of every cell is re-checked against the polynomial bound before fitting.
POLY_CELLS = {
    0.5: [
        ("poly-1/2", 0.5, 1.0, 4.0, "a"),
        ("poly-2/3", 2.0 / 3.0, 1.0, 20.0, "a"),
        ("poly-4/5", 0.8, 1.0, 400.0, "a"),
        ("poly-1", 1.0, 4.0, 8.0, "b"),
    ],
    2.0 / 3.0: [
        ("poly-1/2", 0.5, 1.0, 8.0, "a"),
        ("poly-2/3", 2.0 / 3.0, 1.0, 12.0, "a"),
        ("poly-4/5", 0.8, 1.7, 8.0, "b"),
        ("poly-1", 1.0, 9.0, 1e8, "d"),
    ],
    1.0: [
        ("poly-1/2", 0.5, 1.0, 2.0, "a"),
        ("poly-2/3", 2.0 / 3.0, 1.0, 2.0, "b"),
        ("poly-4/5", 0.8, 0.4, 1.0, "c"),
        ("poly-1", 1.0, 2.0, 16.0, "d"),
    ],
}
EXP_LEVEL = {0.5: 0.5, 2.0 / 3.0: 0.35, 1.0: 1.0}
# theta -> (schedule id of the best decay power, rate exponent it attains)
SLOPE_TARGETS = {0.5: ("poly-1", 1.0), 2.0 / 3.0: ("poly-4/5", 0.6), 1.0: ("poly-2/3", 1.0 / 3.0)}


def test_landscape_adaptivity_slopes(tmp_path, capsys):
    """Exponential steps track the best decay power without knowing theta."""
    started = time.monotonic()
    failures: list[str] = []
    summary: list[str] = []
    for theta, cells in POLY_CELLS.items():
        params = PLParams(l1=1.0, l2=1.0, l3=1.0, tau=2.0, theta=theta)
        for _, p, alpha, gamma, regime in cells:
            res = bound_poly(
                params, Polynomial(alpha=alpha, gamma=gamma, p=p), 1.0, K_GRID[-1], case=regime
            )
            if res.regime != f"case {regime}":
                failures.append(f"theta={theta:g} p={p:g}: regime {res.regime}")
        config = {
            "params": {"l1": 1.0, "l2": 1.0, "l3": 1.0, "tau": 2.0, "theta": theta},
            "y0": 1.0,
            "k_grid": K_GRID,
            "schedules": [
                {"id": sid, "family": "polynomial", "alpha": alpha, "gamma": gamma, "p": p}
                for sid, p, alpha, gamma, _ in cells
            ]
            + [
                {
                    "id": "exp",
                    "family": "exponential",
                    "alpha": EXP_LEVEL[theta],
                    "beta": 1.0,
                    "p": 1.0,
                }
            ],
        }
        workdir = tmp_path / f"theta-{theta:.3f}"
        workdir.mkdir()
        cfg_path = workdir / "simulate.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        rc = cli_main(
            ["simulate-recursion", "--config", str(cfg_path), "--out", str(workdir)]
        )
        assert rc == 0
        fit_cfg = workdir / "fit.json.config"
        fit_cfg.write_text(
            json.dumps({"input": str(workdir / "recursion.csv")}), encoding="utf-8"
        )
        rc = cli_main(["fit", "--config", str(fit_cfg), "--out", str(workdir)])
        assert rc == 0
        fits = json.loads((workdir / "fit.json").read_text(encoding="utf-8"))

        poly_slopes = {sid: fits[sid]["slope"] for sid, *_ in cells}
        best_id = min(poly_slopes, key=poly_slopes.get)
        best = poly_slopes[best_id]
        exp_slope = fits["exp"]["slope"]
        want_id, want_rate = SLOPE_TARGETS[theta]
        if best_id != want_id:
            failures.append(f"theta={theta:g}: best decay at {best_id}, expected {want_id}")
        if abs(best + want_rate) > 0.05:
            failures.append(f"theta={theta:g}: best slope {best:.4f} vs -{want_rate:g}")
        if abs(exp_slope - best) > 0.1:
            failures.append(f"theta={theta:g}: exp slope {exp_slope:.4f} vs best {best:.4f}")
        summary.append(f"theta={theta:g}: best {best:.3f} @ {best_id}, exp {exp_slope:.3f}")
    elapsed = time.monotonic() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report(
        capsys,
        1,
        "landscape adaptivity slopes",
        not failures,
        "; ".join(summary) + f"; {elapsed:.1f}s" + ("; " + "; ".join(failures) if failures else ""),
    )
    assert not failures, failures


# --- criterion 2: every displayed bound dominates the equality recursion ---


def test_universal_bound_domination(capsys):
    """Sixteen batteries of 1000 admissible draws each, zero violations."""
    failures: list[str] = []
    batteries = 0

    for method, family in product(("sgd", "rr"), ("exp", "cos", "const", "poly")):
        report = bounds_suite(1000, 202, method=method, family=family)
        batteries += 1
        if not (report.passed and report.counts["dominated"] == "1000/1000"):
            failures.append(
                f"{method}/{family}: {report.counts} margin={report.checks[0].margin:.3e}"
            )

    for case in "abcd":
        report = bounds_suite(1000, 300 + ord(case), family="poly", poly_case=case)
        batteries += 1
        if not (report.passed and report.counts["dominated"] == "1000/1000"):
            failures.append(
                f"poly case {case}: {report.counts} margin={report.checks[0].margin:.3e}"
            )

    rng = np.random.default_rng(np.random.Philox(key=13))
    bad = 0
    for _ in range(1000):
        s0 = float(rng.uniform(1.05, 40.0))
        t0 = float(rng.uniform(0.05, 20.0))
        K = int(rng.integers(2, 200))
        a0 = float(rng.uniform(0.0, 10.0))
        spec = _flat_spec(s0, t0, K)
        cert = find_lambda_constant(spec, lambda_target=1.0)
        assert cert.certified_horizon >= K
        bound = general_bound(spec, cert, a0, K - 1)
        exact = iterate_recursion_exact(spec, a0, K)[-1]
        if bound < exact - REL_SLACK * max(1.0, abs(exact)):
            bad += 1
    batteries += 1
    if bad:
        failures.append(f"flat-coefficient lemma: {bad}/1000 violations")

    for key, nu_one, variant in ((14, False, "standard"), (15, True, "standard"), (16, False, "sigma")):
        rng = np.random.default_rng(np.random.Philox(key=key))
        bad = 0
        for _ in range(1000):
            if variant == "sigma":
                nu = float(rng.uniform(0.3, 0.95))
                c = float(rng.uniform(0.5, 2.5))
                q = float(rng.uniform(0.2, 1.5))
                vs = float(rng.uniform(0.1, 3.0))
                gamma = max(
                    c ** (1.0 / nu), ((1.0 + vs) * q / c) ** (1.0 / (1.0 - nu))
                ) * (1.0 + float(rng.uniform(0.05, 2.0)))
                params = ClassicalParams(
                    c=c, d=float(rng.uniform(0.2, 4.0)), nu=nu, q=q, gamma=gamma, varsigma=vs
                )
            else:
                params = draw_classical_params(rng, nu_one)
            K = int(rng.integers(4, 80))
            a0 = float(rng.uniform(0.0, 3.0))
            exact = iterate_recursion_exact(classical_spec(params, K), a0, K)[-1]
            bound = classical_bound(params, a0, K - 1, variant=variant)
            if bound < exact - REL_SLACK * max(1.0, abs(exact)):
                bad += 1
        batteries += 1
        if bad:
            label = {14: "decreasing-step (a)", 15: "decreasing-step (b)", 16: "slack-variant"}[key]
            failures.append(f"{label}: {bad}/1000 violations")

    _report(
        capsys,
        2,
        "universal bound domination",
        not failures,
        f"{batteries} batteries x 1000 draws"
        + (", zero violations" if not failures else "; " + "; ".join(failures)),
    )
    assert batteries == 16
    assert not failures, failures


# --- criterion 3: closed-form expansion equals exact iteration -------------


def test_expansion_matches_exact_iteration(capsys):
    rng = np.random.default_rng(np.random.Philox(key=3))
    worst = 0.0
    # the relaxed transform claims its ratio 2*zeta*eta^q is convex
    relaxed = []
    for count in range(100):
        K = max(2, min(int(10 ** rng.uniform(1.0, 4.0)), 10_000))
        a0 = float(rng.uniform(0.0, 5.0))
        mode = count % 5
        if mode == 0:
            spec = _flat_spec(
                float(rng.uniform(1.05, 30.0)), float(rng.uniform(0.1, 10.0)), K
            )
        elif mode in (1, 2):
            params = draw_classical_params(rng, nu_one=mode == 1)
            spec = classical_spec(params, K)
        else:
            theta = float(rng.uniform(0.5, 1.0))
            mu = float(rng.uniform(0.3, 1.0))
            sigma = float(rng.uniform(0.1, 1.0))
            if mode == 3:
                mc = sgd_constants(theta=theta, L=1.0, mu=mu, A=0.0, sigma=sigma)
                delta = 1.0
            else:
                N = int(rng.integers(1, 6))
                mc = rr_constants(theta=theta, L=1.0, mu=mu, A=0.0, sigma=sigma, N=N)
                delta = N ** (-1.0 / (2.0 * theta))
            cap = mc.derived.alpha_cap
            pick = int(rng.integers(0, 3))
            if pick == 0:
                schedule = Constant(alpha=cap * float(rng.uniform(0.1, 0.9)))
            elif pick == 1:
                schedule = Polynomial(
                    alpha=cap * float(rng.uniform(0.1, 0.9)),
                    gamma=float(rng.uniform(1.0, 8.0)),
                    p=float(rng.uniform(0.3, 1.0)),
                )
            else:
                schedule = Cosine(
                    alpha=cap * float(rng.uniform(0.1, 0.9)),
                    p=float(rng.uniform(0.5, 2.0)),
                    horizon=K,
                )
            spec = relaxed_recursion_transform(mc.params, delta, schedule, K)
            relaxed.append(recursion_convexity(spec))
        exact = iterate_recursion_exact(spec, a0, K)[-1]
        closed = expansion_bound(spec, a0, K)
        worst = max(worst, abs(closed - exact) / max(1.0, abs(exact)))

    spec2 = _flat_spec(2.0, 4.0, 64)
    a0 = float(np.random.default_rng(np.random.Philox(key=33)).uniform(0.0, 4.0))
    cert = find_lambda_constant(spec2, lambda_target=1.0)
    exact2 = iterate_recursion_exact(spec2, a0, 64)
    tight_gap = max(abs(general_bound(spec2, cert, a0, k) - exact2[k + 1]) for k in range(64))

    concave = [c for c in relaxed if not c.passed]
    ok = worst <= REL_SLACK and tight_gap <= 1e-12 and not concave
    _report(
        capsys,
        3,
        "expansion oracle equivalence",
        ok,
        f"100 specs worst rel diff {worst:.1e}; two-four recursion gap {tight_gap:.1e}; "
        f"{len(relaxed) - len(concave)}/{len(relaxed)} relaxed ratios convex",
    )
    assert worst <= REL_SLACK
    assert tight_gap <= 1e-12
    assert len(relaxed) == 40
    assert not concave, concave


# --- criterion 4: supporting inequalities on exhaustive grids ---------------


def test_supporting_inequality_grid(capsys):
    report = tech_inequality_suite(512, list(DEFAULT_R_GRID))
    names = [c.check for c in report.checks]
    failed = [c.check for c in report.checks if not c.passed]
    _report(
        capsys,
        4,
        "supporting inequality grid",
        report.passed,
        f"{len(names) - len(failed)}/{len(names)} checks over K<=512"
        + (f"; failing: {failed}" if failed else ""),
    )
    assert "integral-sandwich" in names
    assert report.passed, failed


# --- criterion 5: noisy quadratic recovers the tuned constant-step rate ----


def test_noisy_rate_constant_tuned(capsys):
    started = time.monotonic()
    problem = make_quadratic(1.0, 1.0, 1)
    noise = NoiseModel(kind="additive_gaussian", sigma=1.0)
    horizons = [2**e for e in range(8, 15)]
    finals = []
    for K in horizons:
        schedule = Constant(alpha=2.0 * math.log(K) / K)
        traj = sgd_run(problem, noise, schedule, [0.0], K, seeds=list(range(3000)))
        finals.append(float(traj.mean[-1]))
    fit = fit_loglog(list(zip(horizons, finals)))
    elapsed = time.monotonic() - started
    ok = -1.15 <= fit.slope <= -0.85 and elapsed < 300.0
    _report(
        capsys,
        5,
        "noisy constant-step rate",
        ok,
        f"slope {fit.slope:.3f} in -1+-0.15 over K=2^8..2^14, 3000 seeds, {elapsed:.1f}s",
    )
    assert -1.15 <= fit.slope <= -0.85, fit
    assert elapsed < 300.0


# --- criterion 6: reshuffling improves the noise-floor exponent ------------


def test_noise_floor_exponent_rr_vs_sgd(capsys):
    problem = make_quadratic(
        1.0,
        1.9,
        1,
        N=2,
        curvatures=(1.9, 0.1),
        shifts=(0.55 / 1.9, -0.55 / 0.1),
        radius=0.5,
    )
    noise = NoiseModel(kind="additive_gaussian", sigma=1.0)
    K = 2048
    seeds = list(range(48))
    alphas = [0.1, 0.05, 0.025]

    def floor_of(traj) -> float:
        return float(np.mean(traj.mean[-256:]))

    sgd_floors = [
        floor_of(sgd_run(problem, noise, Constant(alpha=a), [0.3], K, seeds=seeds))
        for a in alphas
    ]
    rr_floors = [
        floor_of(rr_run(problem, Constant(alpha=a), [0.3], K, seeds=seeds)) for a in alphas
    ]
    log_a = np.log2(alphas)
    sgd_slope = float(np.polyfit(log_a, np.log2(sgd_floors), 1)[0])
    rr_slope = float(np.polyfit(log_a, np.log2(rr_floors), 1)[0])
    ok = abs(sgd_slope - 1.0) <= 0.2 and abs(rr_slope - 2.0) <= 0.3
    _report(
        capsys,
        6,
        "noise-floor exponents",
        ok,
        f"with-replacement {sgd_slope:.2f} (1+-0.2), reshuffling {rr_slope:.2f} (2+-0.3)",
    )
    assert abs(sgd_slope - 1.0) <= 0.2, (sgd_slope, sgd_floors)
    assert abs(rr_slope - 2.0) <= 0.3, (rr_slope, rr_floors)


# --- criterion 7: noisy-regime tuning keeps noise-free step mass ------------


def test_noise_free_adaptivity(capsys):
    failures: list[str] = []
    horizons = [2**e for e in range(10, 17)]
    mc = sgd_constants(theta=0.5, L=1.0, mu=1.0, A=0.0, sigma=1.0)

    for K in horizons:
        level = 2.0 * math.log(K) / K
        got = bound_const(mc, None, 1.0, K, tuned=True).details["alpha"]
        if got != pytest.approx(level, rel=1e-12):
            failures.append(f"flat tuned step at K={K}: {got} vs {level}")
        cos_level = 4.0 * math.log(K) / K
        got = bound_cos(mc, Cosine(alpha=cos_level, p=1.0, horizon=K), 1.0, tuned=True).details[
            "alpha"
        ]
        if got != pytest.approx(cos_level, rel=1e-12):
            failures.append(f"cosine tuned step at K={K}: {got} vs {cos_level}")

    for K in horizons:
        total = step_sum(Exponential(alpha=0.5, beta=1.0, p=1.0, horizon=K), K)
        required = 0.5 * (1.0 - 1.0 / K) * K / math.log(K)
        if total < required:
            failures.append(f"exponential mass at K={K}: {total:.3f} < {required:.3f}")

    bands = {}
    for name, build, scale, limit in (
        ("flat", lambda K: Constant(alpha=2.0 * math.log(K) / K), math.log, 2.0),
        ("cosine", lambda K: Cosine(alpha=4.0 * math.log(K) / K, p=1.0, horizon=K), math.log, 2.0),
        ("polynomial", lambda K: Polynomial(alpha=4.0, gamma=4.0, p=1.0), lambda K: 1.0, 4.0),
    ):
        ratios = [step_sum(build(K), K) / scale(K) for K in horizons]
        band = max(ratios) / min(ratios)
        bands[name] = band
        if band > limit:
            failures.append(f"{name} step-mass band {band:.2f} exceeds {limit}")

    K = 2**12
    quad = make_quadratic(1.0, 1.0, 1)
    power = make_power_family(2.0 / 3.0, 0.5, 2.0)
    runs = [
        (quad, Exponential(alpha=0.5, beta=1.0, p=1.0, horizon=K), [0.7]),
        (quad, Cosine(alpha=4.0 * math.log(K) / K, p=1.0, horizon=K), [0.7]),
        (quad, Constant(alpha=2.0 * math.log(K) / K), [0.7]),
        (quad, Polynomial(alpha=4.0, gamma=4.0, p=1.0), [0.7]),
        (power, Constant(alpha=0.15), [1.5]),
    ]
    violations = 0
    for problem, schedule, x0 in runs:
        gaps = gd_run(problem, schedule, x0, K).mean
        gap0 = float(gaps[0])
        alphas = step_values(schedule, K)
        running = 0.0
        for k in range(K + 1):
            envelope = noise_free_bound(problem.pl_theta, problem.pl_mu, gap0, running)
            if gaps[k] > envelope * (1.0 + 1e-12):
                violations += 1
            if k < K:
                running += alphas[k]
    if violations:
        failures.append(f"{violations} descent-envelope violations")

    _report(
        capsys,
        7,
        "noise-free adaptivity",
        not failures,
        f"bands flat {bands['flat']:.2f}, cosine {bands['cosine']:.2f}, "
        f"polynomial {bands['polynomial']:.2f}; {len(runs)} descent runs, "
        f"{violations} violations" + ("; " + "; ".join(failures) if failures else ""),
    )
    assert not failures, failures


# --- criterion 8: rate map argmax matches the closed-form optimum ----------


def test_rate_map_argmax(capsys):
    p_grid = [(i + 1) / 101.0 for i in range(101)]
    theta_grid = [float(v) for v in np.linspace(0.5, 1.0, 51)]
    cell = p_grid[1] - p_grid[0]
    worst = {}
    for method in ("sgd", "rr"):
        grid = heatmap_grid(p_grid, theta_grid, method)
        deviation = 0.0
        for i, theta in enumerate(theta_grid):
            p_star = p_grid[int(np.argmax(grid[i]))]
            best = min(optimal_p(theta, method), 1.0)
            deviation = max(deviation, abs(p_star - best))
        worst[method] = deviation
    ok = all(v <= cell + 1e-12 for v in worst.values())
    _report(
        capsys,
        8,
        "rate-map argmax",
        ok,
        f"worst offsets sgd {worst['sgd']:.4f}, rr {worst['rr']:.4f} vs cell {cell:.4f}",
    )
    assert worst["sgd"] <= cell + 1e-12
    assert worst["rr"] <= cell + 1e-12
