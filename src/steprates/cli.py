"""Config-driven command-line driver for recursions, bounds, runs, and rates.

Commands: simulate-recursion, bound, run, verify, fit, heatmap. Every
command takes its flags after the command name; file-writing commands need
--out and most need a strict JSON --config whose unknown keys are rejected.
All randomness is keyed by explicit seeds; nothing reads OS entropy.

Exit codes: 0 success, 1 verification-suite failure, 2 configuration error,
3 numeric failure (a trajectory left its admissible region or is not finite,
a run's gap is not finite, or fit got a value that is not finite), 4
precondition failure of a requested bound, 5 problem-verification failure
before a run.

CSV output uses UTF-8, LF line endings, a mandatory header row, and floats
printed with 17 significant digits so parsing returns the exact values.
Infinite values serialize as the strings "inf"/"-inf" in CSV and JSON.
Tables are written in blocks from prebuilt row templates, byte for byte as
csv.writer writes them with the same float formatting.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import sys
from functools import partial
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .optimizers import (
    NoiseModel,
    Problem,
    gd_run,
    keyed_generators,
    make_power_family,
    make_quadratic,
    rr_run,
    sgd_run,
    verify_pl,
    verify_variance,
)
from .plbounds import (
    MethodConstants,
    NumericFailure,
    PLParams,
    bound_const,
    bound_cos,
    bound_exp,
    bound_poly,
    rr_constants,
    sgd_constants,
    simulate_pl_grid,
    simulate_pl_recursion,
)
from .plbounds import _gamma0, _offset_admissible, _offset_grid
from .rates import fit_loglog, heatmap_grid
from .recursions import (
    CheckResult,
    ClassicalParams,
    FunctionDescriptor,
    PreconditionError,
    RecursionSpec,
    classical_bound,
    classical_lambda,
    classical_spec,
    extend_bound,
    find_lambda_constant,
    forgetting_bound,
    general_bound,
    iterate_recursion_exact,
    tech_inequality_suite,
)
from .schedules import Constant, Cosine, Exponential, Polynomial, StepSchedule

EXIT_OK = 0
EXIT_VERIFY_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERIC_FAILURE = 3
EXIT_PRECONDITION_FAILURE = 4
EXIT_PROBLEM_VERIFICATION = 5

DEFAULT_R_GRID = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
# rows per template and write when a CSV table is written
_CHUNK = 4096


class ConfigError(ValueError):
    """Raised for malformed configs or inputs; maps to exit code 2."""


def _fmt(value) -> str:
    return "%.17g" % value if isinstance(value, float) else str(value)


def _jsonable(obj):
    if isinstance(obj, Mapping):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        obj = float(obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return _fmt(obj)
    return obj


def _csv_field(text: str) -> str:
    """text as csv.writer(lineterminator="\n") writes it among other fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _write_table(
    path: Path,
    header: Sequence[str],
    line: str,
    keys: Sequence[str],
    values,
    labels: Sequence[str] | None = None,
) -> None:
    """Write a CSV table: for each label in turn, one row per key.

    line is the text of one row: the key in place of "{}", the label in
    place of "@" (keys must not hold "@" when labels are given), and %.17g
    for each value. values holds the values of label i's row j at [i, j]
    (at [j] without labels), in column order. Rows go out in blocks of at
    most _CHUNK, each made by one prebuilt template and one % operation, so
    no string holds the whole file. The bytes are csv.writer's with every
    float printed by _fmt.
    """
    groups = labels if labels is not None else ("",)
    values = np.asarray(values, dtype=float).reshape(len(groups), len(keys), -1)
    keys = [key.replace("%", "%%") for key in keys]
    blocks = [
        (lo, "".join(line.format(key) for key in keys[lo : lo + _CHUNK]))
        for lo in range(0, len(keys), _CHUNK)
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for label, rows in zip(groups, values):
            for lo, template in blocks:
                if labels is not None:
                    template = template.replace("@", label.replace("%", "%%"))
                fh.write(template % tuple(rows[lo : lo + _CHUNK].ravel().tolist()))


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_jsonable(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _check_keys(section, allowed: Mapping[str, bool], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")
    missing = [key for key, required in allowed.items() if required and key not in section]
    if missing:
        raise ConfigError(f"missing keys {missing} in {where}")


def _integer(value, field: str) -> int:
    """value if it is a JSON integer; a bool, a float (8.0 too) or a string is not."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field} must be an integer, got {value!r}")
    return value


def _reject_constant(name: str):
    raise ConfigError(f"non-finite literal {name} in config; numbers must be finite")


def _load_config(path: Path | None) -> dict:
    if path is None:
        raise ConfigError("this command requires --config")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    return config


def _out_dir(out: Path | None) -> Path:
    if out is None:
        raise ConfigError("this command requires --out")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _build_schedule(section, K: int, where: str = "schedule") -> StepSchedule:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    family = section.get("family")
    if family == "constant":
        _check_keys(section, {"family": True, "alpha": True}, where)
        return Constant(alpha=float(section["alpha"]))
    if family == "polynomial":
        _check_keys(section, {"family": True, "alpha": True, "gamma": True, "p": True}, where)
        return Polynomial(
            alpha=float(section["alpha"]), gamma=float(section["gamma"]), p=float(section["p"])
        )
    if family == "exponential":
        _check_keys(section, {"family": True, "alpha": True, "beta": True, "p": True}, where)
        return Exponential(
            alpha=float(section["alpha"]),
            beta=float(section["beta"]),
            p=float(section["p"]),
            horizon=K,
        )
    if family == "cosine":
        _check_keys(section, {"family": True, "alpha": True, "p": True}, where)
        return Cosine(alpha=float(section["alpha"]), p=float(section["p"]), horizon=K)
    raise ConfigError(f"unknown schedule family {family!r} in {where}")


def _build_params(section) -> PLParams:
    _check_keys(
        section,
        {"l1": True, "l2": True, "l3": True, "tau": True, "theta": True},
        "params",
    )
    return PLParams(
        l1=float(section["l1"]),
        l2=float(section["l2"]),
        l3=float(section["l3"]),
        tau=float(section["tau"]),
        theta=float(section["theta"]),
    )


def _build_constants(method: str, section) -> MethodConstants:
    if method == "sgd":
        _check_keys(
            section,
            {"theta": True, "L": True, "mu": True, "A": True, "sigma": True},
            "constants",
        )
        return sgd_constants(
            theta=float(section["theta"]),
            L=float(section["L"]),
            mu=float(section["mu"]),
            A=float(section["A"]),
            sigma=float(section["sigma"]),
        )
    if method == "rr":
        _check_keys(
            section,
            {"theta": True, "L": True, "mu": True, "A": True, "sigma": True, "N": True},
            "constants",
        )
        return rr_constants(
            theta=float(section["theta"]),
            L=float(section["L"]),
            mu=float(section["mu"]),
            A=float(section["A"]),
            sigma=float(section["sigma"]),
            N=section["N"],
        )
    raise ConfigError(f"unknown method {method!r}; expected sgd or rr")


def _build_problem(section) -> Problem:
    if not isinstance(section, dict):
        raise ConfigError("problem must be a JSON object")
    kind = section.get("kind")
    if kind == "quadratic":
        _check_keys(
            section,
            {
                "kind": True,
                "mu": True,
                "L": True,
                "dim": True,
                "N": False,
                "shifts": False,
                "curvatures": False,
                "radius": False,
            },
            "problem",
        )
        return make_quadratic(
            mu=float(section["mu"]),
            L=float(section["L"]),
            dim=int(section["dim"]),
            N=int(section["N"]) if "N" in section else None,
            shifts=tuple(float(v) for v in section["shifts"]) if "shifts" in section else None,
            curvatures=(
                tuple(float(v) for v in section["curvatures"])
                if "curvatures" in section
                else None
            ),
            radius=float(section.get("radius", 10.0)),
        )
    if kind == "power":
        _check_keys(section, {"kind": True, "theta": True, "c": True, "radius": True}, "problem")
        return make_power_family(
            theta=float(section["theta"]),
            c=float(section["c"]),
            radius=float(section["radius"]),
        )
    raise ConfigError(f"unknown problem kind {kind!r}")


def _normalize_tuned_config(value):
    if value is None or value is False:
        return None
    if value is True:
        return {}
    if isinstance(value, dict):
        _check_keys(value, {"beta": False}, "tuned")
        return {k: float(v) for k, v in value.items()}
    raise ConfigError("tuned must be a boolean or an object with an optional beta")


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --- commands --------------------------------------------------------------


def _cmd_simulate_recursion(config: dict, out: Path) -> int:
    _check_keys(
        config,
        {"params": True, "y0": True, "k_grid": True, "schedules": True},
        "config",
    )
    params = _build_params(config["params"])
    y0 = float(config["y0"])
    if not isinstance(config["k_grid"], list) or not config["k_grid"]:
        raise ConfigError("k_grid must be a nonempty list of positive integers")
    k_grid = [_integer(k, "k_grid entry") for k in config["k_grid"]]
    if any(k < 1 for k in k_grid):
        raise ConfigError("k_grid entries must be positive integers")
    entries = config["schedules"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("schedules must be a nonempty list")
    specs: list[tuple[str, dict]] = []
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry:
            raise ConfigError("each schedule needs an 'id' field")
        body = {k: v for k, v in entry.items() if k != "id"}
        specs.append((str(entry["id"]), body))
    ids = [sid for sid, _ in specs]
    if len(set(ids)) != len(ids):
        raise ConfigError("schedule ids must be unique")

    builders = [partial(_build_schedule, body, where=f"schedule {sid!r}") for sid, body in specs]
    finals = simulate_pl_grid(params, builders, y0, k_grid)
    fields = [_csv_field(sid) for sid in ids]
    keys = [f"{K},{field}" for K in k_grid for field in fields]
    target = out / "recursion.csv"
    _write_table(target, ["K", "schedule_id", "y_K"], "{},%.17g\n", keys, finals)
    print(f"wrote {len(finals)} rows to {target}")
    return EXIT_OK


def _cmd_bound(config: dict, out: Path) -> int:
    _check_keys(
        config,
        {
            "method": True,
            "family": True,
            "constants": True,
            "schedule": False,
            "K": True,
            "y0": True,
            "tuned": False,
            "case": False,
        },
        "config",
    )
    method = str(config["method"])
    family = str(config["family"])
    mc = _build_constants(method, config["constants"])
    K = _integer(config["K"], "K")
    if K < 1:
        raise ConfigError("K must be a positive integer")
    y0 = float(config["y0"])
    tuned = _normalize_tuned_config(config.get("tuned"))
    case = str(config.get("case", "auto"))
    if family != "poly" and "case" in config:
        raise ConfigError("case applies only to the poly family")

    def need_schedule(expected: type) -> StepSchedule:
        if "schedule" not in config:
            raise ConfigError(f"family {family!r} requires a schedule section")
        schedule = _build_schedule(config["schedule"], K)
        if not isinstance(schedule, expected):
            raise ConfigError(
                f"family {family!r} needs a {expected.__name__.lower()} schedule"
            )
        return schedule

    target = out / "bound.json"
    try:
        if family == "exp":
            if tuned is not None:
                raise ConfigError("the exp family has no tuned variant")
            result = bound_exp(mc, need_schedule(Exponential), y0)
        elif family == "cos":
            result = bound_cos(mc, need_schedule(Cosine), y0, tuned=tuned)
        elif family == "const":
            schedule = None
            if "schedule" in config or tuned is None:
                schedule = need_schedule(Constant)
            result = bound_const(mc, schedule, y0, K, tuned=tuned)
        elif family == "poly":
            result = bound_poly(mc, need_schedule(Polynomial), y0, K, case=case, tuned=tuned)
        else:
            raise ConfigError(f"unknown family {family!r}; expected exp, cos, const, or poly")
    except PreconditionError as exc:
        _write_json(target, {"error": "precondition-failure", "failed_precondition": str(exc)})
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION_FAILURE
    payload = {
        "value": result.value,
        "noise_term": result.noise_term,
        "init_term": result.init_term,
        "regime": result.regime,
        "constants_used": dataclasses.asdict(result.constants_used),
        "details": result.details,
    }
    _write_json(target, payload)
    print(f"bound value {_fmt(result.value)} ({result.regime}); wrote {target}")
    return EXIT_OK


def _cmd_run(config: dict, out: Path, seed: int, skip_verify: bool) -> int:
    _check_keys(
        config,
        {
            "algorithm": True,
            "problem": True,
            "schedule": True,
            "K": True,
            "x0": True,
            "noise": False,
            "seeds": False,
        },
        "config",
    )
    algorithm = str(config["algorithm"])
    if algorithm not in ("gd", "sgd", "rr"):
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    problem = _build_problem(config["problem"])
    K = _integer(config["K"], "K")
    schedule = _build_schedule(config["schedule"], K)
    x0 = [float(v) for v in config["x0"]]

    if algorithm == "sgd":
        if "noise" not in config:
            raise ConfigError("sgd requires a noise section")
        noise_section = config["noise"]
        _check_keys(noise_section, {"kind": True, "sigma": False, "A": False}, "noise")
        noise = NoiseModel(
            kind=str(noise_section["kind"]),
            sigma=float(noise_section.get("sigma", 0.0)),
            A=float(noise_section.get("A", 0.0)),
        )
    elif "noise" in config:
        raise ConfigError("the noise section applies only to sgd")
    else:
        noise = None

    if algorithm in ("sgd", "rr"):
        if "seeds" not in config or not isinstance(config["seeds"], list) or not config["seeds"]:
            raise ConfigError(f"{algorithm} requires a nonempty seeds list")
        seeds = [_integer(s, "seeds entry") for s in config["seeds"]]
        if len(set(seeds)) != len(seeds):
            raise ConfigError("seeds must be distinct")
    elif "seeds" in config:
        raise ConfigError("gd is deterministic and takes no seeds")
    else:
        seeds = []

    if skip_verify:
        problem_check = {"skipped": True}
    else:
        report = verify_pl(problem, sample_count=1000, seed=seed)
        problem_check = {
            "skipped": False,
            "check": report.check,
            "passed": report.passed,
            "margin": report.margin,
        }
        if not report.passed:
            _write_json(out / "manifest.json", {
                "version": __version__,
                "command": "run",
                "config": config,
                "config_sha256": _config_digest(config),
                "problem_check": problem_check,
            })
            print(
                f"problem verification failed: margin {report.margin} at {report.witness_index}",
                file=sys.stderr,
            )
            return EXIT_PROBLEM_VERIFICATION

    if algorithm == "gd":
        trajectory = gd_run(problem, schedule, x0, K)
    elif algorithm == "sgd":
        assert noise is not None
        trajectory = sgd_run(problem, noise, schedule, x0, K, seeds)
    else:
        trajectory = rr_run(problem, schedule, x0, K, seeds)

    traj_path = out / "trajectories.csv"
    mean_path = out / "mean.csv"
    steps = [str(k) for k in range(trajectory.gaps.shape[1])]
    labels = [str(s) for s in trajectory.seeds] or ["0"]
    _write_table(traj_path, ["k", "seed", "gap"], "{},@,%.17g\n", steps, trajectory.gaps, labels)
    _write_table(
        mean_path,
        ["k", "mean_gap", "stderr"],
        "{},%.17g,%.17g\n",
        steps,
        np.stack((trajectory.mean, trajectory.stderr), axis=1),
    )
    manifest = {
        "version": __version__,
        "command": "run",
        "config": config,
        "config_sha256": _config_digest(config),
        "seed": seed,
        "seeds": list(trajectory.seeds),
        "left_domain": list(trajectory.left_domain),
        "problem_check": problem_check,
        "outputs": {"trajectories": traj_path.name, "mean": mean_path.name},
    }
    _write_json(out / "manifest.json", manifest)
    print(f"wrote {traj_path}, {mean_path}, and manifest.json")
    return EXIT_OK


# --- verification suites ---------------------------------------------------


def _relabel(result: CheckResult, label: str) -> CheckResult:
    return dataclasses.replace(result, check=f"{result.check}:{label}")


def _example2_spec(K: int) -> RecursionSpec:
    return RecursionSpec(
        s=FunctionDescriptor(fn=lambda x: 2.0, label="s=2"),
        t=FunctionDescriptor(fn=lambda x: 4.0, label="t=4"),
        b=float,
        interval=(0.0, float(K)),
        horizon=K,
        ratio=FunctionDescriptor(fn=lambda x: 0.5, derivative=lambda x: 0.0, label="r=1/2"),
    )


def _draw_classical(rng: np.random.Generator) -> ClassicalParams:
    if rng.uniform() < 0.3:
        c = rng.uniform(0.5, 2.5)
        return ClassicalParams(
            c=c,
            d=rng.uniform(0.2, 4.0),
            nu=1.0,
            q=c * rng.uniform(0.1, 0.8),
            gamma=c + rng.uniform(0.1, 6.0),
        )
    nu = rng.uniform(0.3, 0.95)
    c = rng.uniform(0.5, 2.5)
    q = rng.uniform(0.2, 1.5)
    gamma = max(c ** (1.0 / nu), (q / c) ** (1.0 / (1.0 - nu))) * (1.0 + rng.uniform(0.05, 2.0))
    return ClassicalParams(c=c, d=rng.uniform(0.2, 4.0), nu=nu, q=q, gamma=gamma)


def _chung_suite(draws: int, seed: int) -> list[CheckResult]:
    checks: list[CheckResult] = []

    K = 32
    spec = _example2_spec(K)
    cert = find_lambda_constant(spec)
    exact = iterate_recursion_exact(spec, 1.0, K)
    gap = max(abs(general_bound(spec, cert, 1.0, k) - exact[k + 1]) for k in range(K))
    checks.append(
        CheckResult(check="example2-tightness", passed=gap <= 1e-12, margin=gap)
    )

    rng = keyed_generators([seed])[0]
    dom_worst = math.inf
    dom_witness = None
    cls_worst = 0.0
    ext_worst = math.inf
    forget_worst = math.inf
    consistency_worst = 0.0
    for draw in range(draws):
        params = _draw_classical(rng)
        horizon = int(rng.integers(4, 80))
        spec = classical_spec(params, horizon)
        lam = classical_lambda(params)
        cert = find_lambda_constant(spec, lambda_target=lam)
        if cert.certified_horizon < horizon:
            checks.append(
                CheckResult(
                    check="classical-lambda-feasible",
                    passed=False,
                    margin=cert.condition_margin,
                    witness_index=f"draw {draw}",
                    witness_value=float(cert.certified_horizon),
                )
            )
            return checks
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
            consistency_worst = max(
                consistency_worst, abs(gb - cb) / max(1.0, abs(cb))
            )

    checks.append(
        CheckResult(
            check="general-bound-dominates-iterates",
            passed=dom_worst >= -1e-10,
            margin=dom_worst,
            witness_index=None if dom_worst >= -1e-10 else dom_witness,
            witness_value=None if dom_worst >= -1e-10 else dom_worst,
        )
    )
    checks.append(
        CheckResult(
            check="closed-form-dominates-general",
            passed=cls_worst <= 1e-10,
            margin=cls_worst,
        )
    )
    checks.append(
        CheckResult(
            check="classical-general-consistency",
            passed=consistency_worst <= 1e-10,
            margin=consistency_worst,
        )
    )
    checks.append(
        CheckResult(
            check="extension-propagation",
            passed=ext_worst >= -1e-10,
            margin=ext_worst,
        )
    )
    checks.append(
        CheckResult(
            check="forgetting-dominates-general",
            passed=forget_worst >= -1e-10,
            margin=forget_worst,
        )
    )
    return checks


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
        ks = _offset_grid(K)
        try:
            gamma0 = _gamma0(params, alpha, ks)
        except PreconditionError:
            return None
        guards = [gamma0, alpha * l2]
        if params.l1 > 0:
            guards.append(alpha * math.sqrt(params.l1))
        if params.l3 > 0:
            guards.append(alpha * math.sqrt(params.l3))
        gamma = max(guards) * (1.0 + float(rng.uniform(0.0, 1.0)))
        if not _offset_admissible(params, alpha, ks, gamma):
            gamma = gamma0
    schedule = Polynomial(alpha=alpha, gamma=gamma, p=p)
    return schedule, K, lambda y0: bound_poly(mc, schedule, y0, K)


def _bounds_suite(
    draws: int,
    seed: int,
    method: str | None = None,
    family: str | None = None,
    poly_case: str | None = None,
) -> tuple[list[CheckResult], dict]:
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
    info = {"dominated": f"{dominated}/{evaluated}", "resampled": resampled}
    check = CheckResult(
        check="bound-dominates-simulation",
        passed=passed,
        margin=worst,
        witness_index=witness,
        witness_value=None if passed else worst,
    )
    return [check], info


def _assumptions_suite(draws: int, seed: int) -> list[CheckResult]:
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
    return checks


def _cmd_verify(suite: str, draws: int, k_max: int, seed: int, out: Path | None) -> int:
    extras: dict = {}
    if suite == "inequalities":
        checks = list(tech_inequality_suite(k_max, DEFAULT_R_GRID).checks)
    elif suite == "chung":
        # the suite runs a tenth of the requested draws; the report says so
        extras = {"draws_requested": draws, "draws_run": max(1, draws // 10)}
        checks = _chung_suite(extras["draws_run"], seed)
        print(f"  draws requested {draws}, run {extras['draws_run']}")
    elif suite == "bounds":
        checks, extras = _bounds_suite(draws, seed)
    elif suite == "assumptions":
        checks = _assumptions_suite(draws, seed)
    else:
        raise ConfigError(f"unknown suite {suite!r}")

    passed = all(c.passed for c in checks)
    report = {
        "suite": suite,
        "passed": passed,
        "checks": [
            {
                "check": c.check,
                "passed": c.passed,
                "margin": c.margin,
                "witness_index": c.witness_index,
                "witness_value": c.witness_value,
            }
            for c in checks
        ],
    }
    report.update(extras)
    for c in checks:
        status = "pass" if c.passed else "FAIL"
        print(f"  [{status}] {c.check} margin={_fmt(float(c.margin))}")
    if out is not None:
        target = _out_dir(out) / "report.json"
        _write_json(target, report)
        print(f"wrote {target}")
    else:
        print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    print(f"suite {suite}: {'pass' if passed else 'FAIL'}")
    return EXIT_OK if passed else EXIT_VERIFY_FAILURE


def _read_series(path: Path) -> dict[str, list[tuple[int, float]]]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header == ["K", "schedule_id", "y_K"]:
                series: dict[str, list[tuple[int, float]]] = {}
                for row in reader:
                    series.setdefault(row[1], []).append((int(row[0]), float(row[2])))
                return series
            if header == ["k", "mean_gap", "stderr"]:
                points = [(int(r[0]), float(r[1])) for r in reader if int(r[0]) >= 1]
                return {"mean": points}
            if header == ["k", "seed", "gap"]:
                series = {}
                for row in reader:
                    if int(row[0]) >= 1:
                        series.setdefault(f"seed-{row[1]}", []).append(
                            (int(row[0]), float(row[2]))
                        )
                return series
            raise ConfigError(f"unrecognized CSV header {header} in {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except (ValueError, IndexError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed CSV {path}: {exc}") from exc


def _cmd_fit(config: dict, out: Path) -> int:
    _check_keys(config, {"input": True, "window": False}, "config")
    series = _read_series(Path(config["input"]))
    if not series:
        raise ConfigError(f"no data rows in {config['input']}")
    window = None
    if "window" in config:
        raw = config["window"]
        if not isinstance(raw, list) or len(raw) != 2:
            raise ConfigError("window must be a two-element [lo, hi] list")
        window = (int(raw[0]), int(raw[1]))
    results = {}
    for name in sorted(series):
        fit = fit_loglog(series[name], window=window)
        results[name] = {
            "slope": fit.slope,
            "intercept": fit.intercept,
            "r_squared": fit.r_squared,
            "window_lo": fit.window[0],
            "window_hi": fit.window[1],
        }
        print(f"  {name}: slope {_fmt(fit.slope)} (r^2 {_fmt(fit.r_squared)})")
    payload = next(iter(results.values())) if len(results) == 1 else results
    target = out / "fit.json"
    _write_json(target, payload)
    print(f"wrote {target}")
    return EXIT_OK


def _cmd_heatmap(config: dict, out: Path) -> int:
    _check_keys(config, {"method": True, "p_grid": False, "theta_grid": False}, "config")
    method = str(config["method"])
    if "p_grid" in config:
        p_grid = [float(v) for v in config["p_grid"]]
    else:
        p_grid = [(i + 1) / 101.0 for i in range(101)]
    if "theta_grid" in config:
        theta_grid = [float(v) for v in config["theta_grid"]]
    else:
        theta_grid = [float(v) for v in np.linspace(0.5, 1.0, 51)]
    grid = heatmap_grid(p_grid, theta_grid, method)
    target = out / "heatmap.csv"
    _write_table(
        target,
        ["theta", "p", "exponent"],
        "@,{},%.17g\n",
        [_fmt(p) for p in p_grid],
        grid,
        [_fmt(theta) for theta in theta_grid],
    )
    print(f"wrote {len(theta_grid) * len(p_grid)} cells to {target}")
    return EXIT_OK


# --- argument parsing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, default=None, help="path to a JSON config")
    common.add_argument("--out", type=Path, default=None, help="output directory")
    common.add_argument("--seed", type=int, default=0, help="seed for any randomized step")
    common.add_argument(
        "--skip-verify", action="store_true", help="skip the pre-run problem verification"
    )
    parser = argparse.ArgumentParser(
        prog="steprates",
        description="Recursion bounds, reference runs, and rate maps for step-size schedules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "simulate-recursion",
        parents=[common],
        help="iterate the worst-case progress recursion over a K-grid",
    )
    sub.add_parser("bound", parents=[common], help="evaluate one theorem bound")
    sub.add_parser("run", parents=[common], help="run gd/sgd/rr on a synthetic problem")
    verify = sub.add_parser("verify", parents=[common], help="run a verification suite")
    verify.add_argument(
        "suite", choices=("chung", "bounds", "inequalities", "assumptions")
    )
    verify.add_argument("--draws", type=int, default=1000, help="randomized draw count")
    verify.add_argument("--k-max", type=int, default=512, help="largest horizon for grids")
    sub.add_parser("fit", parents=[common], help="fit log-log rates to an emitted CSV")
    sub.add_parser("heatmap", parents=[common], help="emit the theoretical rate map")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "simulate-recursion":
            return _cmd_simulate_recursion(_load_config(args.config), _out_dir(args.out))
        if args.command == "bound":
            return _cmd_bound(_load_config(args.config), _out_dir(args.out))
        if args.command == "run":
            return _cmd_run(
                _load_config(args.config),
                _out_dir(args.out),
                args.seed,
                args.skip_verify,
            )
        if args.command == "verify":
            return _cmd_verify(args.suite, args.draws, args.k_max, args.seed, args.out)
        if args.command == "fit":
            return _cmd_fit(_load_config(args.config), _out_dir(args.out))
        if args.command == "heatmap":
            return _cmd_heatmap(_load_config(args.config), _out_dir(args.out))
        raise ConfigError(f"unknown command {args.command!r}")
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_FAILURE
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION_FAILURE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
