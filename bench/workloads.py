"""The benchmark's workloads: inputs drawn from a seed, timed operations and their checks.

Each workload builds a list of `Op`s. An op's `run` makes the calls into
steprates that are timed; `keep` reduces the output to what the check needs
(untimed, straight after the op); `check` runs after every op has finished
and returns failure messages. The workload seed picks every random input;
the deterministic parts (recursion trajectories, fixed bound configs, GD
runs, inequality grids) are the same for every seed and are compared with
`reference.json`.

steprates is used only through `cli.main` and the public functions of
schedules, recursions, plbounds, optimizers and rates, always looked up as
module attributes at call time so that the tracer's wrappers are seen.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles
from steprates import cli, optimizers, plbounds, rates, recursions, schedules


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    keep: Callable[[object], object] = lambda out: out
    # per-layer figures this op reports, from its kept output and its seconds
    figures: Callable[[object, float], dict] | None = None
    out: Path | None = None  # output directory of a CLI call


@dataclass
class CliOutput:
    code: int
    out: Path
    rows: int
    bytes: int


SIZES = {
    "full": {
        "long-trajectories": {
            "k_exps": range(10, 17), "fs_K": 512, "fs_seeds": 48, "fs_window": 256,
            "gd_K": 4096, "mass_exps": range(10, 17),
        },
        "bound-battery": {
            "verify_draws": 1000, "bound_draws": 48, "flat": 1000, "classical": 1000,
            "all_k": 100, "expansion": 60, "expansion_kmax": 4000, "k_max": 512,
        },
        "seed-ensemble": {
            "seeds": 3000, "k_exps": range(4, 11), "run_seeds": 256, "run_K": 2048,
        },
    },
    "tiny": {
        "long-trajectories": {
            "k_exps": range(6, 12), "fs_K": 128, "fs_seeds": 16, "fs_window": 64,
            "gd_K": 256, "mass_exps": range(6, 10),
        },
        "bound-battery": {
            "verify_draws": 40, "bound_draws": 16, "flat": 20, "classical": 20,
            "all_k": 5, "expansion": 5, "expansion_kmax": 200, "k_max": 32,
        },
        "seed-ensemble": {
            "seeds": 200, "k_exps": range(4, 10), "run_seeds": 32, "run_K": 128,
        },
    },
}


class Context:
    """Seed, sizes, scratch directories and the reference values of one pass."""

    def __init__(self, workload: str, seed: int, scale: str, reference: dict | None, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.size = SIZES[scale][workload]
        self.reference = reference
        self.recorded: dict[str, float] = {}
        self.workdir = workdir
        self._dirs = 0

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, stream]))

    def new_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.workdir / f"{self._dirs:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def expect(self, key: str, value: float, margin: bool = False) -> list[str]:
        """Compare a deterministic output with its reference (or record it)."""
        value = float(value)
        if self.reference is None:
            self.recorded[key] = value
            return []
        if key not in self.reference:
            return [f"{key}: no reference value"]
        ref = self.reference[key]
        ok = oracles.close_margin(value, ref) if margin else oracles.close(value, ref)
        return [] if ok else [f"{key}: {value!r} differs from reference {ref!r}"]


def _count_outputs(out: Path) -> tuple[int, int]:
    rows = size = 0
    for path in sorted(out.iterdir()):
        size += path.stat().st_size
        if path.suffix == ".csv":
            with open(path, "rb") as fh:
                lines = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
            rows += max(lines - 1, 0)
    return rows, size


def cli_op(
    ctx: Context,
    name: str,
    argv: list[str],
    config: dict | None,
    check: Callable[[Path], list[str]],
    figures: Callable[[object, float], dict] | None = None,
) -> Op:
    """One `steprates` CLI call with its own output directory."""
    out = ctx.new_dir(name)
    args = list(argv)
    if config is not None:
        config_path = ctx.new_dir(name + "-config") / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        args += ["--config", str(config_path)]
    args += ["--out", str(out)]

    def keep(code) -> CliOutput:
        rows, size = _count_outputs(out)
        return CliOutput(code=code, out=out, rows=rows, bytes=size)

    def checked(result: CliOutput) -> list[str]:
        if result.code != 0:
            return [f"{name}: exit code {result.code}"]
        return check(result.out)

    return Op(name, lambda: cli.main(args), checked, keep, figures, out)


def make_schedule(section: dict, K: int):
    family, a = section["family"], float(section["alpha"])
    if family == "constant":
        return schedules.Constant(alpha=a)
    if family == "polynomial":
        return schedules.Polynomial(alpha=a, gamma=float(section["gamma"]), p=float(section["p"]))
    if family == "exponential":
        return schedules.Exponential(
            alpha=a, beta=float(section["beta"]), p=float(section["p"]), horizon=K
        )
    return schedules.Cosine(alpha=a, p=float(section["p"]), horizon=K)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


# --- long-trajectories -------------------------------------------------------

# theta branch -> (label, best polynomial cell of criterion 1, exponential level)
THETA_CELLS = (
    ("affine", 0.5, {"alpha": 4.0, "gamma": 8.0, "p": 1.0}, 0.5),
    ("quadratic", 1.0, {"alpha": 1.0, "gamma": 2.0, "p": 2.0 / 3.0}, 1.0),
    ("general", 2.0 / 3.0, {"alpha": 1.7, "gamma": 8.0, "p": 0.8}, 0.35),
)
FINITE_SUM = {"curvatures": [1.9, 0.1], "shifts": [0.55 / 1.9, -0.55 / 0.1], "x0": 0.3}
FLOOR_ALPHAS = (0.1, 0.05, 0.025)
# criterion 6 half-widths of the noise-floor slope windows
FLOOR_SLOPE_WINDOW = {"sgd": 0.2, "rr": 0.3}


def _recursion_ops(ctx: Context) -> list[Op]:
    ops = []
    k_grid = [2**e for e in ctx.size["k_exps"]]
    for label, theta, poly, exp_level in THETA_CELLS:
        config = {
            "params": {"l1": 1.0, "l2": 1.0, "l3": 1.0, "tau": 2.0, "theta": theta},
            "y0": 1.0,
            "k_grid": k_grid,
            "schedules": [
                {"id": "poly", "family": "polynomial", **poly},
                {"id": "exp", "family": "exponential", "alpha": exp_level, "beta": 1.0, "p": 1.0},
            ],
        }

        def check_sim(out: Path, label=label) -> list[str]:
            lines = (out / "recursion.csv").read_text(encoding="utf-8").splitlines()
            failures = [] if len(lines) == 1 + 2 * len(k_grid) else [f"{label}: row count"]
            for line in lines[1:]:
                K, sid, y = line.split(",")
                failures += ctx.expect(f"sim/{label}/{sid}/K={K}", float(y))
            return failures

        sim = cli_op(ctx, f"simulate-{label}", ["simulate-recursion"], config, check_sim)
        ops.append(sim)

        def check_fit(out: Path, label=label) -> list[str]:
            fits = _read_json(out / "fit.json")
            failures = []
            for sid in ("poly", "exp"):
                failures += ctx.expect(f"fit/{label}/{sid}/slope", fits[sid]["slope"])
            return failures

        fit_config = {"input": str(sim.out / "recursion.csv")}
        ops.append(cli_op(ctx, f"fit-{label}", ["fit"], fit_config, check_fit))
    return ops


def _floor_ops(ctx: Context) -> list[Op]:
    S, K, W = ctx.size["fs_seeds"], ctx.size["fs_K"], ctx.size["fs_window"]
    kap, cen, x0 = FINITE_SUM["curvatures"], FINITE_SUM["shifts"], FINITE_SUM["x0"]
    problem = optimizers.make_quadratic(
        1.0, 1.9, 1, N=2, curvatures=tuple(kap), shifts=tuple(cen), radius=0.5
    )
    noise = optimizers.NoiseModel(kind="additive_gaussian", sigma=1.0)
    mu = math.fsum(kap) / len(kap)
    x_star = math.fsum(k * c for k, c in zip(kap, cen)) / math.fsum(kap)
    seeds = list(range(ctx.seed * S, (ctx.seed + 1) * S))
    floors: dict[str, list] = {"sgd": [], "rr": []}

    def keep(traj):
        per_seed = traj.gaps[:, -W:].mean(axis=1)
        return float(np.mean(traj.mean[-W:])), [float(v) for v in per_seed]

    ops = []
    for method in ("sgd", "rr"):
        for alpha in FLOOR_ALPHAS:
            if method == "sgd":
                expected_gaps = [
                    oracles.sgd_mean_gap(alpha, 1.0, mu, x0 - x_star, k) for k in range(K + 1)
                ]

                def run(alpha=alpha):
                    return optimizers.sgd_run(
                        problem, noise, schedules.Constant(alpha=alpha), [x0], K, seeds
                    )

            else:
                expected_gaps = oracles.rr_mean_gaps(alpha, kap, cen, x0, K)

                def run(alpha=alpha):
                    schedule = schedules.Constant(alpha=alpha)
                    return optimizers.rr_run(problem, schedule, [x0], K, seeds)

            expected = math.fsum(expected_gaps[-W:]) / W
            last = alpha == FLOOR_ALPHAS[-1]

            def check(kept, method=method, alpha=alpha, expected=expected, last=last):
                floor, per_seed = kept
                mean, se = oracles.mean_and_se(per_seed)
                label = f"{method} floor alpha={alpha}"
                failures = oracles.within_band(mean, expected, se, label)
                if not oracles.close(floor, mean):
                    failures.append(f"{label}: library mean {floor!r} vs seed mean {mean!r}")
                floors[method].append((alpha, mean, se, expected))
                if last:
                    failures += _floor_slope_check(method, floors[method])
                return failures

            ops.append(Op(f"{method}-floor-{alpha}", run, check, keep))
    return ops


def _floor_slope_check(method: str, points: list[tuple]) -> list[str]:
    """Criterion 6: slope of log2 floor against log2 alpha.

    The window is centred on the slope of the closed-form floors at these
    sizes and widened to the band of standard errors when that is wider.
    """
    xs = [math.log2(a) for a, *_ in points]
    ys = [math.log2(m) for _, m, _, _ in points]
    slope, se = oracles.ols_slope(xs, ys, [s / (m * math.log(2)) for _, m, s, _ in points])
    want, _ = oracles.ols_slope(xs, [math.log2(e) for *_, e in points], [0.0] * len(points))
    tol = max(FLOOR_SLOPE_WINDOW[method], oracles.Z_BAND * se)
    if abs(slope - want) <= tol:
        return []
    return [f"{method} floor slope {slope:.4f} vs {want:.4f} +- {tol:.3f}"]


def _descent_ops(ctx: Context) -> list[Op]:
    K = ctx.size["gd_K"]
    lvl = math.log(K) / K
    quad = optimizers.make_quadratic(1.0, 1.0, 1)
    power = optimizers.make_power_family(2.0 / 3.0, 0.5, 2.0)
    runs = (
        ("quad-exp", quad, {"family": "exponential", "alpha": 0.5, "beta": 1.0, "p": 1.0}, 0.7),
        ("quad-cos", quad, {"family": "cosine", "alpha": 4.0 * lvl, "p": 1.0}, 0.7),
        ("quad-flat", quad, {"family": "constant", "alpha": 2.0 * lvl}, 0.7),
        ("quad-poly", quad, {"family": "polynomial", "alpha": 4.0, "gamma": 4.0, "p": 1.0}, 0.7),
        ("power-flat", power, {"family": "constant", "alpha": 0.15}, 1.5),
    )
    ops = []
    for label, problem, section, x0 in runs:
        schedule = make_schedule(section, K)
        alphas = oracles.step_alphas(section, K)

        def check(traj, label=label, problem=problem, alphas=alphas) -> list[str]:
            gaps = [float(v) for v in traj.mean]
            running, violations = 0.0, 0
            for k, gap in enumerate(gaps):
                envelope = oracles.noise_free_envelope(
                    problem.pl_theta, problem.pl_mu, gaps[0], running
                )
                violations += gap > envelope * (1.0 + 1e-12)
                if k < K:
                    running += alphas[k]
            failures = [f"gd {label}: {violations} envelope violations"] if violations else []
            for k in (K // 4, K // 2, K):
                failures += ctx.expect(f"gd/{label}/k={k}", gaps[k])
            return failures

        def run(problem=problem, schedule=schedule, x0=x0):
            return optimizers.gd_run(problem, schedule, [x0], K)

        ops.append(Op(f"gd-{label}", run, check))

    horizons = [2**e for e in ctx.size["mass_exps"]]

    def mass():
        out = {}
        for K in horizons:
            lvl = math.log(K) / K
            built = {
                "flat": schedules.Constant(alpha=2.0 * lvl),
                "cosine": schedules.Cosine(alpha=4.0 * lvl, p=1.0, horizon=K),
                "polynomial": schedules.Polynomial(alpha=4.0, gamma=4.0, p=1.0),
                "exponential": schedules.Exponential(alpha=0.5, beta=1.0, p=1.0, horizon=K),
            }
            for name, schedule in built.items():
                out[(name, K)] = schedules.step_sum(schedule, K)
        return out

    def check_mass(sums) -> list[str]:
        failures = []
        for (name, K), total in sums.items():
            failures += ctx.expect(f"mass/{name}/K={K}", total)
            if name == "exponential" and total < 0.5 * (1.0 - 1.0 / K) * K / math.log(K):
                failures.append(f"exponential step mass at K={K} below its floor")
        for name, scale, limit in (
            ("flat", math.log, 2.0), ("cosine", math.log, 2.0), ("polynomial", lambda K: 1.0, 4.0)
        ):
            ratios = [sums[(name, K)] / scale(K) for K in horizons]
            if max(ratios) / min(ratios) > limit:
                failures.append(f"{name} step-mass band exceeds {limit}")
        return failures

    ops.append(Op("step-mass", mass, check_mass))
    return ops


def long_trajectories(ctx: Context) -> tuple[list[Op], Callable[[], object]]:
    ops = _recursion_ops(ctx) + _floor_ops(ctx) + _descent_ops(ctx)
    warm = ctx.new_dir("warm")
    config = warm / "sim.json"
    config.write_text(
        json.dumps(
            {
                "params": {"l1": 1.0, "l2": 1.0, "l3": 1.0, "tau": 2.0, "theta": 0.5},
                "y0": 1.0,
                "k_grid": [8],
                "schedules": [{"id": "flat", "family": "constant", "alpha": 0.1}],
            }
        ),
        encoding="utf-8",
    )
    return ops, lambda: cli.main(
        ["simulate-recursion", "--config", str(config), "--out", str(warm)]
    )


# --- bound-battery -----------------------------------------------------------

BOUND_KINDS = ("const", "cos", "exp", "poly-a", "poly-b", "poly-c", "const-tuned", "cos-tuned")

# Fixed bound configs whose values are kept in reference.json: the README
# example plus the regimes a random draw reaches rarely (poly cases c and d,
# tuned polynomial, reshuffling exp at a long horizon).
FIXED_BOUNDS = {
    "readme-const-tuned": {
        "method": "sgd", "family": "const", "tuned": True, "K": 4096, "y0": 1.0,
        "constants": {"theta": 0.5, "L": 1.0, "mu": 1.0, "A": 0.0, "sigma": 1.0},
    },
    "sgd-cos": {
        "method": "sgd", "family": "cos", "K": 1024, "y0": 0.8,
        "constants": {"theta": 2.0 / 3.0, "L": 1.0, "mu": 0.8, "A": 0.5, "sigma": 0.7},
        "schedule": {"family": "cosine", "alpha": 0.5, "p": 1.0},
    },
    "rr-exp": {
        "method": "rr", "family": "exp", "K": 8192, "y0": 1.0,
        "constants": {"theta": 0.75, "L": 1.0, "mu": 0.6, "A": 0.0, "sigma": 0.5, "N": 4},
        "schedule": {"family": "exponential", "alpha": 0.5, "beta": 2.0, "p": 1.0},
    },
    "sgd-poly-c": {
        "method": "sgd", "family": "poly", "K": 2048, "y0": 0.4,
        "constants": {"theta": 0.8, "L": 1.0, "mu": 0.9, "A": 0.3, "sigma": 0.6},
        "schedule": {"family": "polynomial", "alpha": 0.6, "gamma": 2.0, "p": 0.9},
    },
    "sgd-poly-d": {
        "method": "sgd", "family": "poly", "K": 1024, "y0": 0.3,
        "constants": {"theta": 2.0 / 3.0, "L": 1.0, "mu": 0.8, "A": 0.5, "sigma": 0.7},
        "schedule": {"family": "polynomial", "alpha": 14.625, "gamma": 262144.0, "p": 1.0},
    },
    "rr-poly-d": {
        "method": "rr", "family": "poly", "K": 1024, "y0": 0.3,
        "constants": {"theta": 0.75, "L": 1.0, "mu": 0.6, "A": 0.0, "sigma": 0.5, "N": 4},
        "schedule": {"family": "polynomial", "alpha": 23.1, "gamma": 128.0, "p": 1.0},
    },
    "sgd-poly-tuned": {
        "method": "sgd", "family": "poly", "tuned": True, "K": 4096, "y0": 1.0,
        "constants": {"theta": 0.5, "L": 1.0, "mu": 1.0, "A": 0.0, "sigma": 1.0},
        "schedule": {"family": "polynomial", "alpha": 4.0, "gamma": 8.0, "p": 1.0},
    },
    "rr-const-tuned": {
        "method": "rr", "family": "const", "tuned": True, "K": 8192, "y0": 1.0,
        "constants": {"theta": 0.9, "L": 1.0, "mu": 0.7, "A": 0.2, "sigma": 0.8, "N": 3},
    },
}


def _method_constants(method: str, c: dict):
    if method == "sgd":
        return plbounds.sgd_constants(c["theta"], c["L"], c["mu"], c["A"], c["sigma"])
    return plbounds.rr_constants(c["theta"], c["L"], c["mu"], c["A"], c["sigma"], c["N"])


def _tuned_alpha(mc, beta: float, K: int) -> float:
    rho = mc.derived.rho
    if mc.method == "sgd":
        return (beta * math.log(K) / K) ** rho
    n_power = mc.N ** (1.0 - 1.0 / (2.0 * mc.theta))
    return (beta * math.log(math.sqrt(mc.N) * K) * n_power / K) ** rho


def draw_bound_config(rng: np.random.Generator, method: str, kind: str) -> dict | None:
    """A `bound` config of one kind whose preconditions hold by construction.

    Mirrors the admissible regions of the displayed bounds; returns None when
    the draw cannot satisfy them at a practical horizon (the caller redraws).
    """
    u = rng.uniform()
    theta = 0.5 if u < 0.25 else (1.0 if u > 0.75 else float(rng.uniform(0.5, 1.0)))
    constants = {
        "theta": theta, "L": 1.0, "mu": float(rng.uniform(0.3, 1.0)),
        "A": 0.0 if rng.uniform() < 0.5 else float(rng.uniform(0.0, 1.0)),
        "sigma": float(rng.uniform(0.1, 1.0)),
    }
    if method == "rr":
        constants["N"] = int(rng.integers(1, 9))
    mc = _method_constants(method, constants)
    d, params = mc.derived, mc.params
    cap, rho, omega, q, xi = d.alpha_cap, d.rho, d.omega, d.q, d.xi
    K = int(rng.integers(4, 257))
    y0 = float(rng.uniform(0.0, 1.0))
    config = {"method": method, "constants": constants, "K": K, "y0": y0}
    if kind == "const":
        schedule = {"family": "constant", "alpha": cap * float(rng.uniform(0.1, 1.0))}
        return {**config, "family": "const", "schedule": schedule}
    if kind == "cos":
        schedule = {
            "family": "cosine", "alpha": cap * float(rng.uniform(0.1, 1.0)),
            "p": float(rng.uniform(0.3, 2.0)),
        }
        return {**config, "family": "cos", "schedule": schedule}
    if kind == "exp":
        alpha = cap * float(rng.uniform(0.1, 1.0))
        p = float(rng.uniform(0.3, 2.0))
        beta = float(rng.uniform(1.0, 4.0))
        K = max(K, int(math.ceil(2.0 * beta)))
        if method == "rr":
            n_power = mc.N ** (1.0 - 1.0 / (2.0 * theta))
            while K / (math.log(K) - math.log(beta)) < (
                2.0 * p * math.log(math.sqrt(mc.N) * K) * n_power
                / (theta * mc.xi_bar * alpha ** (1.0 / rho))
            ):
                K *= 2
                if K > 32768:
                    return None
        schedule = {"family": "exponential", "alpha": alpha, "beta": beta, "p": p}
        return {**config, "K": K, "family": "exp", "schedule": schedule}
    if kind in ("const-tuned", "cos-tuned"):
        K = int(2 ** rng.uniform(8, 12))
        p = float(rng.uniform(0.3, 2.0))
        doubling = 2.0 ** max(1.0, p / rho) if kind == "cos-tuned" else 1.0
        beta = doubling * omega / (xi if method == "sgd" else mc.xi_bar)
        while _tuned_alpha(mc, beta, K) > cap * (1.0 - 1e-9):
            K *= 2
            if K > 65536:
                return None
        config = {**config, "K": K, "tuned": True}
        if kind == "const-tuned":
            return {**config, "family": "const"}
        alpha = _tuned_alpha(mc, beta, K)
        return {**config, "family": "cos", "schedule": {"family": "cosine", "alpha": alpha, "p": p}}
    # polynomial cases a, b, c; case c needs theta > 1/2
    tau, l2 = params.tau, params.l2
    case = kind[-1]
    if case == "c" and theta == 0.5:
        return None
    if case == "a":
        p = rho * float(rng.uniform(0.2, 0.9))
        alpha = cap * float(rng.uniform(0.1, 1.0))
        floor = (2.0 * p * q / (xi * alpha ** (1.0 / rho))) ** (1.0 / (1.0 - p / rho))
        gamma = max(floor, 1.0) * (1.0 + float(rng.uniform(0.0, 2.0)))
    elif case == "b":
        p = rho
        alpha = (2.0 * omega / xi) ** rho * (1.0 + float(rng.uniform(0.0, 1.0)))
        gamma = (alpha / cap) ** (1.0 / p) * (1.0 + float(rng.uniform(0.0, 2.0)))
    else:
        p = rho + (1.0 - rho) * float(rng.uniform(0.15, 0.9))
        u3 = (1.0 - p) / (2.0 * theta - 1.0)
        alpha = 2.0 * u3 / (theta * l2) * (1.0 + float(rng.uniform(0.0, 1.0)))
        floors = [alpha * theta * l2, (alpha * l2) ** (1.0 / p)]
        for coef, scale, shift in ((params.l1, theta * l2, 0.0), (params.l3, l2, u3)):
            if coef > 0:
                power = 1.0 / (tau * p - shift - 1.0)
                floors.append((alpha ** (tau - 1.0) * coef / scale) ** power)
                floors.append((alpha * math.sqrt(coef)) ** (1.0 / p))
        gamma = max(floors) * (1.0 + float(rng.uniform(0.0, 2.0)))
    schedule = {"family": "polynomial", "alpha": alpha, "gamma": gamma, "p": p}
    return {**config, "y0": 0.5 * y0, "family": "poly", "schedule": schedule}


def _domination_failures(label: str, config: dict, result: dict) -> list[str]:
    """The bound must dominate the worst-case recursion at the step sizes it used."""
    mc = _method_constants(config["method"], config["constants"])
    params = mc.params
    coeffs = {name: getattr(params, name) for name in ("l1", "l2", "l3", "tau", "theta")}
    K = config["K"]
    section = dict(config.get("schedule") or {"family": "constant"})
    section["alpha"] = result["details"]["alpha"]
    y = oracles.worst_case_final(coeffs, oracles.step_alphas(section, K), config["y0"])
    if result["value"] >= y - oracles.REL_TOL * max(1.0, abs(y)):
        return []
    return [f"bound {label}: value {result['value']!r} below worst-case y_K {y!r}"]


def _bound_ops(ctx: Context) -> list[Op]:
    ops = []
    rng = ctx.rng(1)
    drawn = []
    for i in range(ctx.size["bound_draws"]):
        method, kind = ("sgd", "rr")[i % 2], BOUND_KINDS[(i // 2) % len(BOUND_KINDS)]
        config = None
        while config is None:
            config = draw_bound_config(rng, method, kind)
        drawn.append((f"draw{i}-{method}-{kind}", config, False))
    fixed = [(name, config, True) for name, config in FIXED_BOUNDS.items()]
    for label, config, pinned in fixed + drawn:

        def check(out: Path, label=label, config=config, pinned=pinned) -> list[str]:
            result = _read_json(out / "bound.json")
            failures = _domination_failures(label, config, result)
            if pinned:
                failures += ctx.expect(f"bound/{label}", result["value"])
            return failures

        ops.append(cli_op(ctx, f"bound-{label}", ["bound"], config, check))
    return ops


def _verify_bounds_op(ctx: Context) -> Op:
    draws = ctx.size["verify_draws"]

    def check(out: Path) -> list[str]:
        report = _read_json(out / "report.json")
        if report["passed"] and report["dominated"] == f"{draws}/{draws}":
            return []
        return [f"verify bounds: passed={report['passed']} dominated={report['dominated']}"]

    def figures(result: CliOutput, seconds: float) -> dict:
        report = _read_json(result.out / "report.json")
        evaluated = int(report["dominated"].split("/")[1])
        return {
            "cli.verify_bounds.draws_per_s": evaluated / seconds,
            "cli.verify_bounds.yield": evaluated / (evaluated + report["resampled"]),
        }

    argv = ["verify", "bounds", "--draws", str(draws), "--seed", str(ctx.seed)]
    return cli_op(ctx, "verify-bounds", argv, None, check, figures)


def _flat_spec(s0: float, t0: float, K: int):
    FD = recursions.FunctionDescriptor
    return recursions.RecursionSpec(
        s=FD(fn=lambda x: s0, label="flat s"),
        t=FD(fn=lambda x: t0, label="flat t"),
        b=float,
        interval=(0.0, float(K)),
        horizon=K,
        ratio=FD(fn=lambda x: s0 / t0, derivative=lambda x: 0.0, label="flat r"),
    )


# Offsets above this are redrawn. The slack-variant floor
# ((1+varsigma) q/c)^(1/(1-nu)) reaches 1e19 as nu nears 0.95, where the grid
# (gamma, gamma + K) collapses in double precision and classical_spec rejects
# it as an empty interval.
GAMMA_CAP = 1e12


def _draw_classical(rng: np.random.Generator, nu_one: bool, varsigma: bool = False):
    c = float(rng.uniform(0.5, 2.5))
    if nu_one:
        return recursions.ClassicalParams(
            c=c, d=float(rng.uniform(0.2, 4.0)), nu=1.0, q=c * float(rng.uniform(0.1, 0.8)),
            gamma=c + float(rng.uniform(0.1, 6.0)),
        )
    while True:
        nu = float(rng.uniform(0.3, 0.95))
        q = float(rng.uniform(0.2, 1.5))
        vs = float(rng.uniform(0.1, 3.0)) if varsigma else None
        lift = (1.0 + vs) if varsigma else 1.0
        gamma = max(c ** (1.0 / nu), (lift * q / c) ** (1.0 / (1.0 - nu))) * (
            1.0 + float(rng.uniform(0.05, 2.0))
        )
        d = float(rng.uniform(0.2, 4.0))
        if gamma <= GAMMA_CAP:
            return recursions.ClassicalParams(c=c, d=d, nu=nu, q=q, gamma=gamma, varsigma=vs)


def _below(bound: float, exact: float) -> bool:
    return bound < exact - oracles.REL_TOL * max(1.0, abs(exact))


def _battery_ops(ctx: Context) -> list[Op]:
    """Criterion 2's flat and decreasing-step batteries plus the all-k battery."""
    rng = ctx.rng(2)
    flat = [
        (float(rng.uniform(1.05, 40.0)), float(rng.uniform(0.05, 20.0)), int(rng.integers(2, 200)),
         float(rng.uniform(0.0, 10.0)))
        for _ in range(ctx.size["flat"])
    ]

    def run_flat():
        bad = 0
        for s0, t0, K, a0 in flat:
            spec = _flat_spec(s0, t0, K)
            cert = recursions.find_lambda_constant(spec, lambda_target=1.0)
            if cert.certified_horizon < K:
                bad += 1
                continue
            bound = recursions.general_bound(spec, cert, a0, K - 1)
            bad += _below(bound, recursions.iterate_recursion_exact(spec, a0, K)[-1])
        return bad

    classical = {}
    for variant, nu_one in (("standard-nu<1", False), ("standard-nu=1", True), ("sigma", False)):
        classical[variant] = [
            (_draw_classical(rng, nu_one, variant == "sigma"), int(rng.integers(4, 80)),
             float(rng.uniform(0.0, 3.0)))
            for _ in range(ctx.size["classical"])
        ]

    def run_classical(variant: str):
        bad = 0
        for params, K, a0 in classical[variant]:
            exact = recursions.iterate_recursion_exact(recursions.classical_spec(params, K), a0, K)
            bound = recursions.classical_bound(params, a0, K - 1, variant=variant.split("-")[0])
            bad += _below(bound, exact[-1])
        return bad

    all_k = [
        (_draw_classical(rng, bool(rng.uniform() < 0.3)), int(rng.integers(4, 80)),
         float(rng.uniform(0.0, 3.0)))
        for _ in range(ctx.size["all_k"])
    ]

    def run_all_k():
        """general_bound, classical_bound and forgetting_bound at every k of each draw."""
        bad = 0
        for params, K, a0 in all_k:
            spec = recursions.classical_spec(params, K)
            cert = recursions.find_lambda_constant(
                spec, lambda_target=recursions.classical_lambda(params)
            )
            if cert.certified_horizon < K:
                bad += 1
                continue
            exact = recursions.iterate_recursion_exact(spec, a0, K)
            for k in range(K):
                general = recursions.general_bound(spec, cert, a0, k)
                bad += _below(general, exact[k + 1])
                bad += _below(recursions.classical_bound(params, a0, k), general)
                bad += _below(recursions.forgetting_bound(spec, cert, a0, k), general)
        return bad

    def no_violations(label: str):
        return lambda bad: [f"{label}: {bad} violations"] if bad else []

    ops = [Op("battery-flat", run_flat, no_violations("flat-coefficient battery"))]
    for variant in classical:
        ops.append(
            Op(f"battery-{variant}", lambda v=variant: run_classical(v), no_violations(variant))
        )
    ops.append(Op("battery-all-k", run_all_k, no_violations("all-k battery")))
    return ops


def _expansion_op(ctx: Context) -> Op:
    """Criterion 3: closed-form expansion against exact iteration."""
    rng = ctx.rng(3)
    top = math.log10(ctx.size["expansion_kmax"])
    cases = []
    for count in range(ctx.size["expansion"]):
        K = max(2, min(int(10 ** rng.uniform(1.0, top)), ctx.size["expansion_kmax"]))
        a0 = float(rng.uniform(0.0, 5.0))
        mode = count % 5
        if mode == 0:
            s0, t0 = float(rng.uniform(1.05, 30.0)), float(rng.uniform(0.1, 10.0))
            cases.append(("flat", (s0, t0), K, a0))
        elif mode in (1, 2):
            cases.append(("classical", _draw_classical(rng, mode == 1), K, a0))
        else:
            theta = float(rng.uniform(0.5, 1.0))
            mu = float(rng.uniform(0.3, 1.0))
            sigma = float(rng.uniform(0.1, 1.0))
            if mode == 3:
                mc, delta = plbounds.sgd_constants(theta, 1.0, mu, 0.0, sigma), 1.0
            else:
                N = int(rng.integers(1, 6))
                mc = plbounds.rr_constants(theta, 1.0, mu, 0.0, sigma, N)
                delta = N ** (-1.0 / (2.0 * theta))
            cap = mc.derived.alpha_cap
            pick = int(rng.integers(0, 3))
            level = cap * float(rng.uniform(0.1, 0.9))
            if pick == 0:
                schedule = schedules.Constant(alpha=level)
            elif pick == 1:
                schedule = schedules.Polynomial(
                    alpha=level, gamma=float(rng.uniform(1.0, 8.0)), p=float(rng.uniform(0.3, 1.0))
                )
            else:
                schedule = schedules.Cosine(alpha=level, p=float(rng.uniform(0.5, 2.0)), horizon=K)
            cases.append(("relaxed", (mc.params, delta, schedule), K, a0))

    def run():
        pairs = []
        for kind, data, K, a0 in cases:
            if kind == "flat":
                spec = _flat_spec(*data, K)
            elif kind == "classical":
                spec = recursions.classical_spec(data, K)
            else:
                spec = plbounds.relaxed_recursion_transform(data[0], data[1], data[2], K)
            exact = recursions.iterate_recursion_exact(spec, a0, K)[-1]
            pairs.append((exact, recursions.expansion_bound(spec, a0, K)))
        return pairs

    def check(pairs) -> list[str]:
        worst = max(abs(c - e) / max(1.0, abs(e)) for e, c in pairs)
        return [] if worst <= oracles.REL_TOL else [f"expansion vs exact: rel diff {worst:.3e}"]

    return Op("expansion-vs-exact", run, check)


def _inequality_op(ctx: Context) -> Op:
    k_max = ctx.size["k_max"]

    def check(out: Path) -> list[str]:
        report = _read_json(out / "report.json")
        failures = [] if report["passed"] else ["verify inequalities: suite failed"]
        for c in report["checks"]:
            failures += ctx.expect(f"inequalities/{c['check']}", c["margin"], margin=True)
        return failures

    argv = ["verify", "inequalities", "--k-max", str(k_max)]
    return cli_op(ctx, "verify-inequalities", argv, None, check)


def _heatmap_ops(ctx: Context) -> list[Op]:
    """Criterion 8's rate maps, checked cell by cell against the rate formulas."""
    ops = []
    for method in ("sgd", "rr"):

        def check(out: Path, method=method) -> list[str]:
            lines = (out / "heatmap.csv").read_text(encoding="utf-8").splitlines()[1:]
            cells = [tuple(float(v) for v in line.split(",")) for line in lines]
            failures = [] if len(cells) == 51 * 101 else [f"heatmap {method}: {len(cells)} cells"]
            best: dict[float, tuple[float, float]] = {}
            for theta, p, exponent in cells:
                noise = p / (2.0 * theta) if method == "sgd" else p / theta
                init = math.inf if theta == 0.5 else (1.0 - p) / (2.0 * theta - 1.0)
                if not oracles.close(exponent, min(noise, init), 1e-12):
                    failures.append(f"heatmap {method}: exponent at theta={theta} p={p}")
                    break
                if theta not in best or exponent > best[theta][0]:
                    best[theta] = (exponent, p)
            for theta, (_, p_star) in best.items():
                if method == "sgd":
                    optimum = 2 * theta / (4 * theta - 1)
                else:
                    optimum = theta / (3 * theta - 1)
                if abs(p_star - min(optimum, 1.0)) > 1.0 / 101.0 + 1e-12:
                    failures.append(f"heatmap {method}: argmax {p_star} at theta={theta}")
            return failures

        ops.append(cli_op(ctx, f"heatmap-{method}", ["heatmap"], {"method": method}, check))
    return ops


def bound_battery(ctx: Context) -> tuple[list[Op], Callable[[], object]]:
    ops = (
        [_verify_bounds_op(ctx)]
        + _bound_ops(ctx)
        + _battery_ops(ctx)
        + [_expansion_op(ctx), _inequality_op(ctx)]
        + _heatmap_ops(ctx)
    )
    warm = ctx.new_dir("warm")
    config = warm / "bound.json.config"
    config.write_text(json.dumps(FIXED_BOUNDS["readme-const-tuned"]), encoding="utf-8")
    return ops, lambda: cli.main(["bound", "--config", str(config), "--out", str(warm)])


# --- seed-ensemble -----------------------------------------------------------

# criterion 5's half-width of the window on the fitted rate
RATE_SLOPE_WINDOW = 0.15
RUN_ALPHA = 0.02
RUN_X0 = 1.0


def _ensemble_ops(ctx: Context) -> list[Op]:
    """Criterion 5: tuned constant steps on the 1-d quadratic, many seeds."""
    S = ctx.size["seeds"]
    seeds = list(range(ctx.seed * S, (ctx.seed + 1) * S))
    problem = optimizers.make_quadratic(1.0, 1.0, 1)
    noise = optimizers.NoiseModel(kind="additive_gaussian", sigma=1.0)
    horizons = [2**e for e in ctx.size["k_exps"]]
    finals: dict[int, tuple] = {}
    ops = []
    for K in horizons:
        alpha = 2.0 * math.log(K) / K

        def run(K=K, alpha=alpha):
            schedule = schedules.Constant(alpha=alpha)
            return optimizers.sgd_run(problem, noise, schedule, [0.0], K, seeds)

        def keep(traj, K=K):
            mean, se = oracles.mean_and_se(traj.gaps[:, K].tolist())
            finals[K] = (float(traj.mean[K]), float(traj.stderr[K]), mean, se)
            return finals[K]

        def check(kept, K=K, alpha=alpha) -> list[str]:
            lib_mean, lib_se, mean, se = kept
            label = f"sgd ensemble K={K}"
            expected = oracles.sgd_mean_gap(alpha, 1.0, 1.0, 0.0, K)
            failures = oracles.within_band(mean, expected, se, label)
            if not (oracles.close(lib_mean, mean) and oracles.close(lib_se, se)):
                failures.append(
                    f"{label}: library mean/stderr {lib_mean!r}/{lib_se!r} vs {mean!r}/{se!r}"
                )
            return failures

        ops.append(Op(f"sgd-ensemble-{K}", run, check, keep))

    def fit():
        return rates.fit_loglog([(K, finals[K][0]) for K in horizons])

    def check_fit(result) -> list[str]:
        """The fitted rate against the slope of the closed-form means.

        At these horizons the log factor of the tuned step keeps the
        expected slope near -0.84, so the window is centred there and
        widened to the band of standard errors when that is wider.
        """
        lo, hi = result.window
        used = horizons[lo : hi + 1]
        xs = [math.log2(K) for K in used]
        expected = [oracles.sgd_mean_gap(2.0 * math.log(K) / K, 1.0, 1.0, 0.0, K) for K in used]
        want, _ = oracles.ols_slope(xs, [math.log2(e) for e in expected], [0.0] * len(xs))
        ses = [finals[K][3] / (finals[K][2] * math.log(2)) for K in used]
        _, se = oracles.ols_slope(xs, [0.0] * len(xs), ses)
        tol = max(RATE_SLOPE_WINDOW, oracles.Z_BAND * se)
        if abs(result.slope - want) <= tol:
            return []
        return [f"ensemble rate slope {result.slope:.4f} vs {want:.4f} +- {tol:.3f}"]

    ops.append(Op("fit-ensemble-rate", fit, check_fit))
    return ops


def _run_op(ctx: Context) -> Op:
    """The README `run` command: per-seed CSV of a few hundred SGD seeds."""
    S, K = ctx.size["run_seeds"], ctx.size["run_K"]
    config = {
        "algorithm": "sgd",
        "problem": {"kind": "quadratic", "mu": 1.0, "L": 1.0, "dim": 1},
        "noise": {"kind": "additive_gaussian", "sigma": 1.0},
        "schedule": {"family": "constant", "alpha": RUN_ALPHA},
        "x0": [RUN_X0],
        "K": K,
        "seeds": list(range(ctx.seed * S, (ctx.seed + 1) * S)),
    }
    picked = (K // 8, K)

    def check(out: Path) -> list[str]:
        manifest = _read_json(out / "manifest.json")
        failures = [] if manifest["problem_check"]["passed"] else ["run: problem check failed"]
        columns: dict[int, list[float]] = {k: [] for k in picked}
        rows = 0
        with open(out / "trajectories.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                rows += 1
                k, _, gap = line.split(",")
                if int(k) in columns:
                    columns[int(k)].append(float(gap))
        if rows != S * (K + 1):
            failures.append(f"run: {rows} trajectory rows, expected {S * (K + 1)}")
        with open(out / "mean.csv", encoding="utf-8") as fh:
            means = {int(k): float(m) for k, m, _ in (line.split(",") for line in list(fh)[1:])}
        for k, gaps in columns.items():
            mean, se = oracles.mean_and_se(gaps)
            label = f"run mean gap k={k}"
            expected = oracles.sgd_mean_gap(RUN_ALPHA, 1.0, 1.0, RUN_X0, k)
            failures += oracles.within_band(mean, expected, se, label)
            if not oracles.close(means[k], mean):
                failures.append(f"{label}: mean.csv {means[k]!r} vs trajectories {mean!r}")
        return failures

    return cli_op(ctx, "run-sgd", ["run", "--seed", str(ctx.seed)], config, check)


def seed_ensemble(ctx: Context) -> tuple[list[Op], Callable[[], object]]:
    ops = _ensemble_ops(ctx) + [_run_op(ctx)]
    noise = optimizers.NoiseModel(kind="additive_gaussian", sigma=1.0)
    problem = optimizers.make_quadratic(1.0, 1.0, 1)
    return ops, lambda: optimizers.sgd_run(
        problem, noise, schedules.Constant(alpha=0.1), [0.0], 8, list(range(8))
    )


WORKLOADS = {
    "long-trajectories": long_trajectories,
    "bound-battery": bound_battery,
    "seed-ensemble": seed_ensemble,
}
