"""End-to-end tests of the command-line interface: exit codes and artifacts."""
from __future__ import annotations

import csv
import errno
import functools
import hashlib
import inspect
import json
import math
import os
import random
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import steprates.cli as cli
from steprates.optimizers import (
    NoiseModel,
    Trajectory,
    gd_run,
    make_quadratic,
    rr_run,
    sgd_run,
)
from steprates.plbounds import PLParams, simulate_pl_recursion
from steprates.rates import fit_loglog
from steprates.schedules import Constant
from steprates.verify import CheckResult, verify_pl


def skip_verify(command):
    """--skip-verify where the command reads it: run alone."""
    return ["--skip-verify"] if command == "run" else []


def run_cli(tmp_path, command, config=None, extra=None, name="config.json"):
    argv = [command]
    if config is not None:
        path = tmp_path / name
        path.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(path)]
    argv += ["--out", str(tmp_path / "out")]
    if extra:
        argv += extra
    return cli.main(argv)


SIM_CONFIG = {
    "params": {"l1": 0.0, "l2": 1.0, "l3": 0.5, "tau": 2.0, "theta": 0.5},
    "y0": 1.0,
    "k_grid": [8, 16, 32],
    "schedules": [
        {"id": "flat", "family": "constant", "alpha": 0.2},
        {"id": "poly", "family": "polynomial", "alpha": 1.0, "gamma": 4.0, "p": 1.0},
    ],
}


def test_simulate_recursion_rows_match_library(tmp_path):
    assert run_cli(tmp_path, "simulate-recursion", SIM_CONFIG) == 0
    with open(tmp_path / "out" / "recursion.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["K", "schedule_id", "y_K"]
    assert len(rows) == 1 + 3 * 2
    params = PLParams(l1=0.0, l2=1.0, l3=0.5, tau=2.0, theta=0.5)
    flat8 = [r for r in rows[1:] if r[0] == "8" and r[1] == "flat"][0]
    expected = simulate_pl_recursion(params, Constant(alpha=0.2), 1.0, 8)[-1]
    assert float(flat8[2]) == expected  # %.17g survives the round trip


def test_threads_option_is_gone(tmp_path):
    assert run_cli(tmp_path, "simulate-recursion", SIM_CONFIG, extra=["--threads", "2"]) == 2


# the commands that read each flag besides --out, which every command reads
FLAG_READERS = {
    ("--config", "x.json"): {"simulate-recursion", "bound", "run", "fit", "heatmap"},
    ("--seed", "3"): {"run"},
    ("--skip-verify",): {"run"},
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@pytest.mark.parametrize("flag", FLAG_READERS, ids=lambda flag: flag[0])
def test_a_command_takes_only_the_flags_it_reads(capsys, command, flag):
    """A flag the command does not read (10 flag/command pairs) exits 2
    before any work."""
    argv = [command, *(["inequalities"] if command == "verify" else []), *flag]
    if command in FLAG_READERS[flag]:
        assert cli.build_parser().parse_args(argv).command == command
    else:
        assert cli.main(argv) == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


def test_simulate_recursion_numeric_failure_exit(tmp_path):
    config = dict(SIM_CONFIG)
    config["schedules"] = [{"id": "wild", "family": "constant", "alpha": 2.5}]
    config["params"] = {"l1": 0.0, "l2": 1.0, "l3": 0.01, "tau": 2.0, "theta": 0.5}
    assert run_cli(tmp_path, "simulate-recursion", config) == 3


def test_simulate_recursion_builds_every_schedule_before_any_walk(tmp_path, capsys):
    # the constant cell at K = 8 fails numerically, but the exponential
    # schedule cannot be built at K = 2 (beta must be below K): a config error
    config = dict(SIM_CONFIG, k_grid=[8, 2])
    config["params"] = {"l1": 0.0, "l2": 1.0, "l3": 0.01, "tau": 2.0, "theta": 0.5}
    config["schedules"] = [
        {"id": "wild", "family": "constant", "alpha": 2.5},
        {"id": "exp", "family": "exponential", "alpha": 0.5, "beta": 4.0, "p": 1.0},
    ]
    assert run_cli(tmp_path, "simulate-recursion", config) == 2
    assert "need beta < horizon, got beta=4.0, horizon=2" in capsys.readouterr().err
    assert not (tmp_path / "out" / "recursion.csv").exists()


def test_simulate_recursion_non_finite_value_exit(tmp_path, capsys):
    config = dict(SIM_CONFIG, y0=1e300, k_grid=[8])
    config["params"] = {"l1": 1.0, "l2": 1.0, "l3": 1.0, "tau": 2.0, "theta": 0.5}
    config["schedules"] = [{"id": "big", "family": "constant", "alpha": 50}]
    assert run_cli(tmp_path, "simulate-recursion", config) == 3
    assert "not finite at step 3" in capsys.readouterr().err
    assert not (tmp_path / "out" / "recursion.csv").exists()


def test_simulate_recursion_names_the_first_bad_step(tmp_path, capsys):
    # y is inf from step 1 and -inf from step 7; the failure names step 1
    config = dict(SIM_CONFIG, y0=1e308, k_grid=[8])
    config["params"] = {"l1": 1.0, "l2": 3.0, "l3": 0.0, "tau": 2.0, "theta": 0.5}
    config["schedules"] = [
        {"id": "poly", "family": "polynomial", "alpha": 40.0, "gamma": 10.0, "p": 1.0}
    ]
    assert run_cli(tmp_path, "simulate-recursion", config) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: trajectory value inf is not finite at step 1\n"
    assert not (tmp_path / "out" / "recursion.csv").exists()


def test_simulate_recursion_power_past_the_floats_is_numeric_failure(tmp_path, capsys):
    config = dict(SIM_CONFIG, k_grid=[8])
    config["params"] = {"l1": 1.0, "l2": 1.0, "l3": 1.0, "tau": 2.5, "theta": 0.5}
    config["schedules"] = [{"id": "big", "family": "constant", "alpha": 1e200}]
    assert run_cli(tmp_path, "simulate-recursion", config) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: trajectory value inf is not finite at step 1\n"
    assert not (tmp_path / "out" / "recursion.csv").exists()


@pytest.mark.parametrize("gamma, p", [(0.5, 2000), (0.5, 1e30), (1e-300, 2.0)])
def test_simulate_recursion_infinite_first_step_is_config_error(tmp_path, capsys, gamma, p):
    schedules = [{"id": "s", "family": "polynomial", "alpha": 0.5, "gamma": gamma, "p": p}]
    assert run_cli(tmp_path, "simulate-recursion", dict(SIM_CONFIG, schedules=schedules)) == 2
    assert "alpha/gamma^p overflows for gamma" in capsys.readouterr().err
    assert not (tmp_path / "out" / "recursion.csv").exists()


def test_simulate_recursion_steps_past_the_floats_are_zero(tmp_path):
    # 4^(1e30) passes the floats: every step is 0.0 and y stays at y0
    schedules = [{"id": "s", "family": "polynomial", "alpha": 1.0, "gamma": 4.0, "p": 1e30}]
    assert run_cli(tmp_path, "simulate-recursion", dict(SIM_CONFIG, schedules=schedules)) == 0
    with open(tmp_path / "out" / "recursion.csv", newline="", encoding="utf-8") as fh:
        assert [float(row[2]) for row in list(csv.reader(fh))[1:]] == [1.0, 1.0, 1.0]


def test_unknown_config_key_rejected(tmp_path):
    config = dict(SIM_CONFIG)
    config["typo"] = 1
    assert run_cli(tmp_path, "simulate-recursion", config) == 2


@pytest.mark.parametrize(
    "body, message",
    [
        ({"family": "polynomial", "alpha": 1.0, "p": 1.0}, "missing keys ['gamma']"),
        ({"family": "cosine"}, "missing keys ['alpha', 'p']"),
        ({"family": "constant", "alpha": 0.1, "gamma": 1.0}, "unknown keys ['gamma']"),
        (
            {"family": "exponential", "alpha": 0.5, "beta": 1.0, "p": 1.0, "horizon": 8},
            "unknown keys ['horizon']",
        ),
        ({"family": "harmonic", "alpha": 0.1}, "unknown family 'harmonic'"),
    ],
)
def test_schedule_fields_are_named(tmp_path, capsys, body, message):
    # a schedule's fields are its family's; horizon comes from each K
    config = dict(SIM_CONFIG, schedules=[{"id": "s", **body}])
    assert run_cli(tmp_path, "simulate-recursion", config) == 2
    assert f"{message} in schedule 's'" in capsys.readouterr().err


def test_duplicate_schedule_ids_rejected(tmp_path):
    config = dict(SIM_CONFIG)
    config["schedules"] = [
        {"id": "x", "family": "constant", "alpha": 0.1},
        {"id": "x", "family": "constant", "alpha": 0.2},
    ]
    assert run_cli(tmp_path, "simulate-recursion", config) == 2


BOUND_CONST = {
    "method": "sgd",
    "family": "const",
    "constants": {"theta": 0.5, "L": 1.0, "mu": 1.0, "A": 0.0, "sigma": 1.0},
    "schedule": {"family": "constant", "alpha": 0.1},
    "K": 100,
    "y0": 1.0,
}


# the README's bound: horizon-tuned constant steps, no schedule
BOUND_TUNED = dict({k: v for k, v in BOUND_CONST.items() if k != "schedule"}, tuned=True, K=4096)


def test_bound_const_payload(tmp_path):
    assert run_cli(tmp_path, "bound", BOUND_CONST) == 0
    payload = json.loads((tmp_path / "out" / "bound.json").read_text(encoding="utf-8"))
    assert payload["value"] == pytest.approx(0.10673794699908547, rel=1e-15)
    assert payload["regime"] == "constant"
    assert payload["constants_used"]["xi"] == 0.5
    assert payload["details"]["alpha"] == 0.1


def test_bound_const_tuned_without_schedule(tmp_path):
    assert run_cli(tmp_path, "bound", BOUND_TUNED) == 0
    payload = json.loads((tmp_path / "out" / "bound.json").read_text(encoding="utf-8"))
    assert payload["details"]["tuned_beta"] == 2.0


@pytest.mark.parametrize("literal", [math.inf, -math.inf])
def test_simulate_recursion_rejects_infinite_literal(tmp_path, capsys, literal):
    config = dict(SIM_CONFIG, y0=literal)
    assert "Infinity" in json.dumps(config)
    assert run_cli(tmp_path, "simulate-recursion", config) == 2
    name = "Infinity" if literal > 0 else "-Infinity"
    assert f"non-finite literal {name} in config" in capsys.readouterr().err
    assert not (tmp_path / "out" / "recursion.csv").exists()


def test_bound_rejects_nan_literal(tmp_path, capsys):
    config = dict(BOUND_CONST, constants=dict(BOUND_CONST["constants"], sigma=math.nan))
    assert run_cli(tmp_path, "bound", config) == 2
    err = capsys.readouterr().err
    assert "non-finite literal NaN in config" in err
    assert "nonnegative" not in err
    assert not (tmp_path / "out" / "bound.json").exists()


@pytest.mark.parametrize(
    "method, field, value", [("sgd", "sigma", 1e200), ("rr", "sigma", 1e200), ("rr", "L", 1e160)]
)
def test_bound_overflowing_coefficient_is_config_error(tmp_path, capsys, method, field, value):
    constants = dict(BOUND_CONST["constants"], **{field: value})
    if method == "rr":
        constants["N"] = 4
    config = dict(BOUND_CONST, method=method, constants=constants)
    assert run_cli(tmp_path, "bound", config) == 2
    err = capsys.readouterr().err
    assert "overflows a float" in err and f"{field} = {value!r}" in err
    assert not (tmp_path / "out" / "bound.json").exists()


FAMILY_SCHEDULES = {
    "const": {"family": "constant", "alpha": 0.1},
    "exp": {"family": "exponential", "alpha": 0.1, "beta": 1.0, "p": 1.0},
    "cos": {"family": "cosine", "alpha": 0.1, "p": 1.0},
    "poly": {"family": "polynomial", "alpha": 1.0, "gamma": 8.0, "p": 1.0},
}


@pytest.mark.parametrize("family", FAMILY_SCHEDULES)
def test_bound_overflowing_noise_scale_is_config_error(tmp_path, capsys, family):
    # each coefficient is finite (l3 = 5e199, l2 = 1e-300) but l3/l2 is not;
    # the bound named a cap of 0.0 or a floor of 5e300 instead (exit 4)
    constants = {"theta": 0.75, "L": 1.0, "mu": 1e-300, "A": 0.0, "sigma": 1e100}
    config = dict(BOUND_CONST, family=family, constants=constants)
    config["schedule"] = FAMILY_SCHEDULES[family]
    assert run_cli(tmp_path, "bound", config) == 2
    err = capsys.readouterr().err
    assert "zeta = (l3/l2)^(1/(2*theta)) overflows a float for l3 = 5e+199, l2 = 1e-300" in err
    assert not (tmp_path / "out" / "bound.json").exists()


def test_bound_overflowing_growth_cap_does_not_bind(tmp_path):
    # the growth cap (l2/l1)^2 = 4e600 overflows float ** (it ended in an
    # OverflowError); a cap past the floats does not bind
    constants = dict(BOUND_CONST["constants"], theta=1.0, A=1e-300)
    for config in (BOUND_CONST, BOUND_TUNED):
        assert run_cli(tmp_path, "bound", dict(config, constants=constants)) == 0
        payload = json.loads((tmp_path / "out" / "bound.json").read_text(encoding="utf-8"))
        assert payload["constants_used"]["alpha_cap"] == 1.0
        assert math.isfinite(payload["value"])


@pytest.mark.parametrize("mu", [1e-320, 5e-324])
def test_bound_overflowing_step_cap_is_config_error(tmp_path, capsys, mu):
    # xi = mu/2 is subnormal, or 0.0 at mu = 5e-324, so the cap xi^(-rho)
    # overflows; it ended in an OverflowError (ZeroDivisionError) traceback
    constants = dict(BOUND_CONST["constants"], mu=mu, sigma=0.0)
    assert run_cli(tmp_path, "bound", dict(BOUND_CONST, constants=constants)) == 2
    assert "alpha cap xi^(-rho) overflows a float for xi = " in capsys.readouterr().err
    assert not (tmp_path / "out" / "bound.json").exists()


@pytest.mark.parametrize("family", ["cos", "exp"])
def test_bound_value_that_is_not_finite_is_numeric_failure(tmp_path, capsys, family):
    # xi = 5e-321 makes the noise term's log argument overflow to inf; the
    # bound was written as inf with exit 0
    constants = {"theta": 1.0, "L": 1.0, "mu": 1e-320, "A": 0.0, "sigma": 1e-170}
    config = dict(BOUND_CONST, family=family, constants=constants, K=4096)
    config["schedule"] = FAMILY_SCHEDULES[family]
    assert run_cli(tmp_path, "bound", config) == 3
    assert "bound value inf is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out" / "bound.json").exists()


def test_bound_power_past_the_floats_is_numeric_failure(tmp_path, capsys):
    # 2^(p/rho) at p = 1e30 raised OverflowError, a traceback with exit 1; the
    # power is its limit inf, and so are (pi^2/4)^(p*q) and the noise term
    config = {
        "method": "sgd",
        "family": "cos",
        "constants": {"theta": 0.75, "L": 1.0, "mu": 1.0, "A": 0.5, "sigma": 1.0},
        "schedule": {"family": "cosine", "alpha": 0.01, "p": 1e30},
        "K": 64,
        "y0": 1.0,
    }
    assert run_cli(tmp_path, "bound", config) == 3
    assert capsys.readouterr().err == (
        "numeric failure: bound value inf is not finite (case II: noise term inf, init term 1.0)\n"
    )
    assert not (tmp_path / "out" / "bound.json").exists()


def test_bound_missing_schedule_is_config_error(tmp_path):
    config = {k: v for k, v in BOUND_CONST.items() if k != "schedule"}
    assert run_cli(tmp_path, "bound", config) == 2


def test_bound_precondition_failure_writes_error_file(tmp_path, capsys):
    config = dict(BOUND_CONST)
    config["schedule"] = {"family": "constant", "alpha": 1.5}
    assert run_cli(tmp_path, "bound", config) == 4
    captured = capsys.readouterr()
    assert captured.err == "precondition failed: alpha 1.5 exceeds admissible cap 1.0\n"
    assert captured.out == ""
    payload = json.loads((tmp_path / "out" / "bound.json").read_text(encoding="utf-8"))
    assert payload["error"] == "precondition-failure"
    assert "cap" in payload["failed_precondition"]


def test_bound_exp_rejects_tuned_and_case(tmp_path):
    config = {
        "method": "sgd",
        "family": "exp",
        "constants": BOUND_CONST["constants"],
        "schedule": {"family": "exponential", "alpha": 1.0, "beta": 1.0, "p": 1.0},
        "K": 100,
        "y0": 1.0,
    }
    assert run_cli(tmp_path, "bound", config) == 0
    payload = json.loads((tmp_path / "out" / "bound.json").read_text(encoding="utf-8"))
    assert payload["value"] == pytest.approx(0.36843508628578564, rel=1e-13)
    bad = dict(config)
    bad["tuned"] = True
    assert run_cli(tmp_path, "bound", bad) == 2
    bad = dict(config)
    bad["case"] = "a"
    assert run_cli(tmp_path, "bound", bad) == 2


def test_bound_rr_poly_tuned(tmp_path):
    config = {
        "method": "rr",
        "family": "poly",
        "constants": {"theta": 0.5, "L": 1.0, "mu": 1.0, "A": 0.0, "sigma": 1.0, "N": 4},
        "schedule": {"family": "polynomial", "alpha": 1.0, "gamma": 222.0, "p": 1.0},
        "K": 512,
        "y0": 1.0,
        "tuned": {},
    }
    assert run_cli(tmp_path, "bound", config) == 0
    payload = json.loads((tmp_path / "out" / "bound.json").read_text(encoding="utf-8"))
    assert payload["regime"] == "case b"
    assert payload["details"]["tuned_beta"] == 16.0


def test_bound_rr_rejects_bool_and_non_integral_N(tmp_path):
    config = {
        "method": "rr",
        "family": "const",
        "constants": {"theta": 0.5, "L": 1.0, "mu": 1.0, "A": 0.0, "sigma": 1.0, "N": 4},
        "schedule": {"family": "constant", "alpha": 0.1},
        "K": 100,
        "y0": 1.0,
    }
    assert run_cli(tmp_path, "bound", config) == 0
    for bad in (True, 2.5):
        config["constants"]["N"] = bad
        assert run_cli(tmp_path, "bound", config) == 2


@pytest.mark.parametrize("method", ["sgd", "rr"])
@pytest.mark.parametrize("theta", [0.0, -0.0])
def test_bound_theta_outside_its_range_is_config_error(tmp_path, capsys, method, theta):
    constants = {"theta": theta, "L": 1.0, "mu": 1.0, "A": 0.0, "sigma": 1.0, "N": 4}
    if method == "sgd":
        del constants["N"]
    config = {"method": method, "family": "const", "constants": constants, "tuned": True}
    assert run_cli(tmp_path, "bound", dict(config, y0=1.0, K=100)) == 2
    assert "theta must lie in [1/2, 1]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "bound.json").exists()


RUN_GD = {
    "algorithm": "gd",
    "problem": {"kind": "quadratic", "mu": 1.0, "L": 1.0, "dim": 1},
    "schedule": {"family": "constant", "alpha": 0.5},
    "K": 6,
    "x0": [1.0],
}


def test_run_gd_artifacts_and_reproducibility(tmp_path):
    assert run_cli(tmp_path, "run", RUN_GD) == 0
    out = tmp_path / "out"
    with open(out / "trajectories.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "seed", "gap"]
    problem = make_quadratic(1.0, 1.0, 1)
    ref = gd_run(problem, Constant(alpha=0.5), [1.0], 6)
    assert [float(r[2]) for r in rows[1:]] == [float(g) for g in ref.gaps[0]]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["problem_check"]["passed"] is True
    assert manifest["left_domain"] == [False]
    canonical = json.dumps(RUN_GD, sort_keys=True, separators=(",", ":"))
    assert manifest["config_sha256"] == hashlib.sha256(canonical.encode()).hexdigest()
    first = (out / "trajectories.csv").read_bytes()
    assert run_cli(tmp_path, "run", RUN_GD) == 0
    assert (out / "trajectories.csv").read_bytes() == first


def test_subnormal_smoothness_constant_gives_a_cap_that_does_not_bind(tmp_path):
    # 1/L overflows to inf for L = 5e-324; run exited 2 on that cap
    problem = {"kind": "quadratic", "mu": 5e-324, "L": 5e-324, "dim": 1}
    assert run_cli(tmp_path, "run", dict(RUN_GD, problem=problem)) == 0
    constants = dict(BOUND_CONST["constants"], L=5e-324)
    for config in (BOUND_CONST, BOUND_TUNED):
        assert run_cli(tmp_path, "bound", dict(config, constants=constants)) == 0


def test_run_non_finite_gap_is_numeric_failure(tmp_path, capsys):
    config = dict(RUN_GD, x0=[1e200])  # the first gap, 0.5 * 1e400, overflows
    assert run_cli(tmp_path, "run", config, extra=["--skip-verify"]) == 3
    assert "not finite for the deterministic run at step 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectories.csv").exists()


def test_run_stderr_past_the_floats_is_numeric_failure(tmp_path, capsys):
    # the noise grows with the gap, so the seeds' gaps square past the floats
    config = dict(
        RUN_SGD,
        noise={"kind": "additive_gaussian", "sigma": 1.0, "A": 1e30},
        schedule={"family": "cosine", "alpha": 0.02, "p": 1.0},
        K=8,
    )
    assert run_cli(tmp_path, "run", config) == 3
    err = capsys.readouterr().err
    assert err == "numeric failure: standard error nan is not finite at step 7\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_run_step_above_the_descent_cap_is_precondition_failure(tmp_path, capsys):
    config = dict(RUN_GD, schedule={"family": "constant", "alpha": 2.0})
    assert run_cli(tmp_path, "run", config) == 4
    err = capsys.readouterr().err
    assert err == "precondition failed: largest step 2.0 exceeds the descent cap 1.0\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_run_sgd_requires_noise_and_seeds(tmp_path):
    config = dict(RUN_GD)
    config["algorithm"] = "sgd"
    assert run_cli(tmp_path, "run", config) == 2
    config["noise"] = {"kind": "additive_gaussian", "sigma": 0.5}
    assert run_cli(tmp_path, "run", config) == 2
    config["seeds"] = [0, 0]
    assert run_cli(tmp_path, "run", config) == 2
    config["seeds"] = [0, 1]
    assert run_cli(tmp_path, "run", config) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["seeds"] == [0, 1]


@pytest.mark.parametrize("algorithm", ["sgd", "rr"])
def test_run_with_a_repeated_seed_exits_2_naming_it(tmp_path, capsys, algorithm):
    # the rule is the library's: sgd_run and rr_run raise, after the problem check
    config = dict(RUN_SGD, seeds=[1, 1], K=8)
    if algorithm == "rr":
        del config["noise"]
        config.update(algorithm="rr", problem=dict(config["problem"], N=2))
    assert run_cli(tmp_path, "run", config) == 2
    assert capsys.readouterr().err == "config error: seeds must be distinct, got seed 1 twice\n"
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


def test_run_gd_rejects_stochastic_sections(tmp_path):
    config = dict(RUN_GD)
    config["seeds"] = [1]
    assert run_cli(tmp_path, "run", config) == 2
    config = dict(RUN_GD)
    config["noise"] = {"kind": "none"}
    assert run_cli(tmp_path, "run", config) == 2


def test_run_problem_verification_gate(tmp_path, capsys, monkeypatch):
    failed = CheckResult(
        check="pl-inequality",
        passed=False,
        margin=-0.5,
        witness_index="sample 3",
        witness_value=-0.5,
    )
    monkeypatch.setattr(cli, "verify_pl", lambda problem, sample_count, seed: failed)
    assert run_cli(tmp_path, "run", RUN_GD) == 5
    captured = capsys.readouterr()
    assert captured.err == "problem verification failed: margin -0.5 at sample 3\n"
    assert captured.out == ""
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["problem_check"]["passed"] is False
    assert manifest["problem_check"]["witness_index"] == "sample 3"
    assert not (out / "trajectories.csv").exists()
    assert run_cli(tmp_path, "run", RUN_GD, extra=["--skip-verify"]) == 0


def test_run_rr_matches_gd_for_single_component(tmp_path):
    config = {
        "algorithm": "rr",
        "problem": {"kind": "quadratic", "mu": 2.0, "L": 2.0, "dim": 1, "N": 1},
        "schedule": {"family": "constant", "alpha": 0.2},
        "K": 10,
        "x0": [1.0],
        "seeds": [3],
    }
    assert run_cli(tmp_path, "run", config) == 0
    with open(tmp_path / "out" / "trajectories.csv", newline="", encoding="utf-8") as fh:
        rr_rows = [r[2] for r in list(csv.reader(fh))[1:]]
    gd_config = {
        "algorithm": "gd",
        "problem": {"kind": "quadratic", "mu": 2.0, "L": 2.0, "dim": 1},
        "schedule": {"family": "constant", "alpha": 0.2},
        "K": 10,
        "x0": [1.0],
    }
    assert run_cli(tmp_path, "run", gd_config) == 0
    with open(tmp_path / "out" / "trajectories.csv", newline="", encoding="utf-8") as fh:
        gd_rows = [r[2] for r in list(csv.reader(fh))[1:]]
    assert rr_rows == gd_rows


def test_run_finite_sum_whose_curvatures_overflow_is_config_error(tmp_path, capsys):
    # math.fsum of the curvatures 1e308 + 1e308 raised OverflowError (exit 1)
    config = {
        "algorithm": "rr",
        "problem": {"kind": "quadratic", "mu": 1.0, "L": 1e308, "dim": 1, "N": 2},
        "schedule": {"family": "constant", "alpha": 1e-309},
        "K": 4,
        "x0": [1.0],
        "seeds": [0],
    }
    assert run_cli(tmp_path, "run", config) == 2
    assert "curvatures [1e+308, 1e+308]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectories.csv").exists()


def test_run_with_shifts_or_curvatures_but_no_n_is_config_error(tmp_path, capsys):
    # without N, make_quadratic ignored them and gd ran the unshifted quadratic (exit 0)
    config = {
        "algorithm": "gd",
        "problem": {"kind": "quadratic", "mu": 1.0, "L": 2.0, "dim": 1,
                    "shifts": [5.0], "curvatures": [9.0]},
        "schedule": {"family": "constant", "alpha": 0.1},
        "K": 4,
        "x0": [1.0],
    }
    assert run_cli(tmp_path, "run", config) == 2
    assert "shifts and curvatures define a finite sum and need N" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectories.csv").exists()


def test_fit_round_trip_from_run(tmp_path):
    config = {
        "algorithm": "gd",
        "problem": {"kind": "quadratic", "mu": 0.02, "L": 0.02, "dim": 1},
        "schedule": {"family": "polynomial", "alpha": 1.0, "gamma": 1.0, "p": 1.0},
        "K": 64,
        "x0": [1.0],
    }
    assert run_cli(tmp_path, "run", config) == 0
    fit_config = {"input": str(tmp_path / "out" / "mean.csv"), "window": [31, 63]}
    assert run_cli(tmp_path, "fit", fit_config, name="fit.json.cfg") == 0
    payload = json.loads((tmp_path / "out" / "fit.json").read_text(encoding="utf-8"))
    assert {"slope", "intercept", "r_squared", "window_lo", "window_hi"} <= set(payload)
    assert payload["window_lo"] == 31


def test_fit_multiple_series_keyed_by_id(tmp_path):
    assert run_cli(tmp_path, "simulate-recursion", SIM_CONFIG) == 0
    fit_config = {"input": str(tmp_path / "out" / "recursion.csv"), "window": [0, 2]}
    assert run_cli(tmp_path, "fit", fit_config, name="fit.json.cfg") == 0
    payload = json.loads((tmp_path / "out" / "fit.json").read_text(encoding="utf-8"))
    assert set(payload) == {"flat", "poly"}


def test_fit_trajectories_gives_one_series_per_seed(tmp_path):
    config = dict(RUN_SGD, K=64, seeds=[3, 11])
    assert run_cli(tmp_path, "run", config) == 0
    table = tmp_path / "out" / "trajectories.csv"
    with open(table, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    assert run_cli(tmp_path, "fit", {"input": str(table)}, name="fit.json.cfg") == 0
    payload = json.loads((tmp_path / "out" / "fit.json").read_text(encoding="utf-8"))
    assert set(payload) == {"seed-3", "seed-11"}
    for seed in (3, 11):
        points = [(int(k), float(gap)) for k, s, gap in rows if s == str(seed) and int(k) >= 1]
        assert payload[f"seed-{seed}"]["slope"] == fit_loglog(points).slope


def test_fit_rejects_malformed_csv(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("k,mean_gap,stderr\n1,not-a-number,0\n", encoding="utf-8")
    assert run_cli(tmp_path, "fit", {"input": str(bad)}) == 2
    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n", encoding="utf-8")
    assert run_cli(tmp_path, "fit", {"input": str(other)}) == 2
    assert run_cli(tmp_path, "fit", {"input": str(tmp_path / "missing.csv")}) == 2


def test_fit_non_finite_value_exit(tmp_path, capsys):
    table = tmp_path / "table.csv"
    rows = "".join(f"{2**i},s,{0.5**i!r}\n" for i in range(1, 6)).replace("0.125", "inf")
    table.write_text("K,schedule_id,y_K\n" + rows, encoding="utf-8")
    assert run_cli(tmp_path, "fit", {"input": str(table)}) == 3
    assert "K=8" in capsys.readouterr().err


def test_heatmap_default_grid(tmp_path):
    assert run_cli(tmp_path, "heatmap", {"method": "sgd"}) == 0
    with open(tmp_path / "out" / "heatmap.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["theta", "p", "exponent"]
    assert len(rows) == 1 + 101 * 51
    assert float(rows[1][0]) == 0.5
    assert run_cli(tmp_path, "heatmap", {"method": "newton"}) == 2
    for grid in ("p_grid", "theta_grid"):
        assert run_cli(tmp_path, "heatmap", {"method": "sgd", grid: []}) == 2


def test_heatmap_custom_grid(tmp_path):
    config = {"method": "rr", "p_grid": [0.5, 1.0], "theta_grid": [0.5, 0.75, 1.0]}
    assert run_cli(tmp_path, "heatmap", config) == 0
    with open(tmp_path / "out" / "heatmap.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 7
    assert float(rows[2][2]) == 2.0  # theta=1/2, p=1 under reshuffling


def test_verify_inequalities_report(tmp_path):
    assert cli.main(["verify", "inequalities", "--k-max", "64", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["suite"] == "inequalities"
    assert report["passed"] is True
    assert len(report["checks"]) == 9


def test_verify_small_randomized_suites(tmp_path):
    assert cli.main(["verify", "bounds", "--draws", "40", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert report["dominated"] == "40/40"
    code = cli.main(["verify", "chung", "--draws", "30", "--seed", "1", "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert (report["draws_requested"], report["draws_run"]) == (30, 3)
    assert cli.main(["verify", "assumptions", "--draws", "200", "--seed", "0"]) == 0


@pytest.mark.parametrize("suite", ["chung", "bounds", "assumptions"])
@pytest.mark.parametrize("draws", ["0", "-3"])
def test_verify_with_fewer_than_one_draw_is_a_config_error(tmp_path, capsys, suite, draws):
    assert cli.main(["verify", suite, "--draws", draws, "--out", str(tmp_path)]) == 2
    message = f"config error: draws must be a positive integer, got {draws}\n"
    assert capsys.readouterr().err == message
    assert not (tmp_path / "report.json").exists()


def test_verify_unknown_suite_is_usage_error():
    assert cli.main(["verify", "spectral"]) == 2


# the flags each verify suite reads besides --out, which every suite reads
SUITE_FLAGS = {
    "chung": {"--draws", "--seed"},
    "bounds": {"--draws", "--seed"},
    "inequalities": {"--k-max"},
    "assumptions": {"--draws", "--seed"},
}


@pytest.mark.parametrize("suite", sorted(SUITE_FLAGS))
@pytest.mark.parametrize("flag", ["--draws", "--seed", "--k-max", "--out"])
def test_a_verify_suite_takes_only_the_flags_it_reads(capsys, suite, flag):
    """A flag the suite does not read (8 flag/suite pairs) exits 2 before any work."""
    assert sorted(SUITE_FLAGS) == sorted(cli._SUITES)
    argv = ["verify", suite, flag, "3"]
    if flag == "--out" or flag in SUITE_FLAGS[suite]:
        assert cli.build_parser().parse_args(argv).suite == suite
    else:
        assert cli.main(argv) == 2
        assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_one_parser_serves_every_call_as_a_fresh_process_would(tmp_path, capsys, monkeypatch):
    config = tmp_path / "bound.json"
    config.write_text(json.dumps(BOUND_CONST), encoding="utf-8")
    out = tmp_path / "out"
    argvs = [
        ["bound", "--config", str(config), "--out", str(out)],
        ["verify", "spectral"],
        ["verify", "inequalities", "--k-max", "8", "--out", str(out)],
    ]
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        in_process = []
        for argv in argvs:
            code = cli.main(argv)
            captured = capsys.readouterr()
            in_process.append((code, captured.out, captured.err))
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert [code for code, _, _ in in_process] == [0, 2, 0]
    for argv, expected in zip(argvs, in_process):
        proc = subprocess.run(
            [sys.executable, "-m", "steprates", *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == expected


def test_cli_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "steprates", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate-recursion" in proc.stdout
    proc = subprocess.run([sys.executable, "-m", "steprates"], capture_output=True, text=True)
    assert proc.returncode == 2


# --- CSV tables against the cell-by-cell writer in tests/oracles.py -----------

# floats whose text is easy to get wrong: signed zeros, subnormals, the
# extreme normals, and decimal exponents from 1e-300 to 1e300
EDGE_FLOATS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
    ),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 10.0), st.integers(-300, 300)),
    st.floats(0.0, 1e-300, allow_subnormal=True),
)
# nonnegative, as a trajectory's gaps are (-0.0 included)
GAPS = st.one_of(EDGE_FLOATS, st.floats(0.0, 1e300))
# any value, infinities and NaN included
VALUES = st.one_of(EDGE_FLOATS, EDGE_FLOATS.map(lambda v: -v), st.floats())
FINITE = st.one_of(
    EDGE_FLOATS, EDGE_FLOATS.map(lambda v: -v), st.floats(allow_nan=False, allow_infinity=False)
)


GRID = st.lists(FINITE, min_size=1, max_size=4)


def exactly(n, elements):
    return st.lists(elements, min_size=n, max_size=n)


RUN_SGD = {
    "algorithm": "sgd",
    "problem": {"kind": "quadratic", "mu": 1.0, "L": 1.0, "dim": 1},
    "noise": {"kind": "additive_gaussian", "sigma": 1.0},
    "schedule": {"family": "constant", "alpha": 0.02},
    "x0": [2.0],
    "K": 512,
    "seeds": [0, 1, 2, 3],
}


def written_by_both(command, config, table, header, rows, **patches):
    """The bytes of one table as the command writes it and as the reference
    writer writes the rows; patches replace cli attributes meanwhile."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.multiple(cli, **patches):
        tmp = Path(tmp)
        assert run_cli(tmp, command, config, extra=skip_verify(command)) == 0
        oracles.write_csv(tmp / "reference.csv", header, rows)
        return (tmp / "out" / table).read_bytes(), (tmp / "reference.csv").read_bytes()


@settings(max_examples=60)
@given(st.data())
def test_run_tables_equal_the_cell_by_cell_writer(data):
    seeds = data.draw(st.lists(st.integers(0, 2**128 - 1), min_size=1, max_size=4, unique=True))
    K = data.draw(st.integers(1, 9))
    gaps = np.array([data.draw(exactly(K + 1, GAPS)) for _ in seeds])
    mean, stderr = (np.array(data.draw(exactly(K + 1, VALUES))) for _ in range(2))
    trajectory = Trajectory(gaps, tuple(seeds), mean, stderr, (False,) * len(seeds))
    config = dict(RUN_SGD, K=K, seeds=seeds)
    # run reads its runner's keys from the runner's signature, which wraps keeps
    runners = dict(cli._RUNNERS, sgd=functools.wraps(sgd_run)(lambda **kwargs: trajectory))
    patches = {"_RUNNERS": runners, "_CHUNK": data.draw(st.integers(1, 5))}
    rows = ((k, seed, float(g)) for row, seed in zip(gaps, seeds) for k, g in enumerate(row))
    ours, reference = written_by_both(
        "run", config, "trajectories.csv", ["k", "seed", "gap"], rows, **patches
    )
    assert ours == reference
    rows = ((k, float(m), float(se)) for k, (m, se) in enumerate(zip(mean, stderr)))
    ours, reference = written_by_both(
        "run", config, "mean.csv", ["k", "mean_gap", "stderr"], rows, **patches
    )
    assert ours == reference


@settings(max_examples=60)
@given(GRID, GRID, st.data())
def test_heatmap_table_equals_the_cell_by_cell_writer(theta_grid, p_grid, data):
    shape = (len(theta_grid), len(p_grid))
    grid = np.array(data.draw(exactly(shape[0] * shape[1], VALUES))).reshape(shape)
    config = {"method": "sgd", "p_grid": p_grid, "theta_grid": theta_grid}
    patches = {"heatmap_grid": lambda *args: grid, "_CHUNK": data.draw(st.integers(1, 5))}
    rows = (
        (theta, p, float(grid[i, j]))
        for i, theta in enumerate(theta_grid)
        for j, p in enumerate(p_grid)
    )
    ours, reference = written_by_both(
        "heatmap", config, "heatmap.csv", ["theta", "p", "exponent"], rows, **patches
    )
    assert ours == reference


@settings(max_examples=60)
@given(
    st.lists(st.text(',"\n\r %@{}aé', max_size=5), min_size=1, max_size=4, unique=True),
    st.lists(st.integers(1, cli.MAX_HORIZON), min_size=1, max_size=3),
    st.data(),
)
def test_recursion_table_equals_the_cell_by_cell_writer(ids, k_grid, data):
    finals = data.draw(exactly(len(ids) * len(k_grid), VALUES))
    config = dict(SIM_CONFIG, k_grid=k_grid)
    config["schedules"] = [{"id": sid, "family": "constant", "alpha": 0.1} for sid in ids]
    patches = {
        "simulate_pl_finals": lambda cells: finals,
        "_CHUNK": data.draw(st.integers(1, 5)),
    }
    rows = zip((K for K in k_grid for _ in ids), (sid for _ in k_grid for sid in ids), finals)
    ours, reference = written_by_both(
        "simulate-recursion", config, "recursion.csv", ["K", "schedule_id", "y_K"], rows, **patches
    )
    assert ours == reference


def test_run_table_of_32_seeds_equals_the_cell_by_cell_writer():
    """Two of _format17's blocks, each across labels, at the bench's step size."""
    seeds = list(range(32))
    config = dict(RUN_SGD, K=2048, seeds=seeds)
    problem, noise = make_quadratic(1.0, 1.0, 1), NoiseModel(kind="additive_gaussian", sigma=1.0)
    trajectory = sgd_run(problem, noise, Constant(alpha=0.02), [2.0], 2048, seeds)
    assert trajectory.gaps.size > cli._BLOCK
    gaps = trajectory.gaps.tolist()
    rows = ((k, seed, g) for row, seed in zip(gaps, seeds) for k, g in enumerate(row))
    ours, reference = written_by_both(
        "run", config, "trajectories.csv", ["k", "seed", "gap"], rows,
        sgd_run=lambda *args: trajectory,
    )
    assert ours == reference


# --- _format17 against '%.17g' itself ------------------------------------------


def printed(values):
    return [("%.17g" % v).encode() for v in values]


# every float64 bit pattern, hypothesis's floats, and the kernel's own range
FLOAT64 = st.one_of(
    st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
    st.floats(),
    st.floats(1e-11, 1e16),
)


@pytest.mark.fuzz
@given(st.lists(FLOAT64, min_size=1, max_size=64))
def test_format17_prints_every_float_as_percent_17g(values):
    assert cli._format17(np.array(values)) == printed(values)


def test_format17_prints_the_hard_floats_as_percent_17g():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # k + 0.5 near 10^15 and 2^52; k + 0.25 and k + 0.75 have 18 digits, a 5 last
    k = np.concatenate([np.arange(-1000, 1000) + 1e15, np.arange(-1000, 1000) + 2.0**52])
    ties = (k[:, None] + np.array([0.25, 0.5, 0.75])).ravel()
    edges = np.array([1e-11, 1e16, 3557546453977090.5, 1e-6, 0.0, -0.0, math.inf, -math.inf,
                      math.nan, 5e-324, 2.225073858507201e-308, -1.5, -1e-6, -1e300])
    values = np.concatenate([tens, edges, ties])
    values = np.concatenate([values, np.nextafter(values, 0), np.nextafter(values, math.inf)])
    assert cli._format17(values) == printed(values.tolist())


def test_nothing_reads_os_entropy(tmp_path, monkeypatch):
    def no_entropy(n):
        raise AssertionError("OS entropy was read")

    monkeypatch.setattr(random, "_urandom", no_entropy)
    with pytest.raises(AssertionError):
        np.random.Philox(key=1)  # numpy's SeedSequence draws its entropy here
    problem = make_quadratic(1.0, 1.0, 1)
    noise = NoiseModel(kind="additive_gaussian", sigma=1.0)
    sgd_run(problem, noise, Constant(alpha=0.1), [1.0], 8, [0, 2**64])
    rr_run(make_quadratic(1.0, 1.0, 1, N=3), Constant(alpha=0.1), [1.0], 8, [0, 1])
    assert verify_pl(problem, 50, 2**100).passed
    assert run_cli(tmp_path, "run", RUN_SGD) == 0
    for suite in ("chung", "bounds", "assumptions"):
        assert cli.main(["verify", suite, "--draws", "10", "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "command, config, key, index, field",
    [
        ("simulate-recursion", SIM_CONFIG, "k_grid", 1, "k_grid entry"),
        ("bound", BOUND_CONST, "K", None, "K"),
        ("run", RUN_GD, "K", None, "K"),
        ("run", RUN_SGD, "seeds", 2, "seeds entry"),
    ],
    ids=["k_grid", "bound-K", "run-K", "seeds"],
)
@pytest.mark.parametrize("literal", ["2.5", "8.0", "true", '"8"', "1e400"])
def test_integer_fields_take_json_integers_only(
    tmp_path, capsys, command, config, key, index, field, literal
):
    """A bool, a float (integral or inf) or a string integer exits 2, where
    int() used to truncate, parse or overflow it. The message names the
    field, or for 1e400 the literal, which the JSON parser already rejects."""
    config = json.loads(json.dumps(config))
    if index is None:
        config[key] = "@bad"
    else:
        config[key][index] = "@bad"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config).replace('"@bad"', literal), encoding="utf-8")
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), *skip_verify(command)]
    assert cli.main(argv) == 2
    expected = f"{field} must be an integer, got "
    if literal == "1e400":
        expected = "non-finite literal 1e400 in config"
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())


# --- every config field is typed: a wrong type exits 2, never a traceback ----

# valid configs of every config command; each real field holds a float and
# each integer field an integer, so that any numeric leaf can be swapped for
# a value of the wrong type. fit's "@input" is a small recursion table.
TYPED_CONFIGS = [
    ("simulate-recursion", SIM_CONFIG),
    ("bound", BOUND_CONST),
    ("bound", dict(BOUND_CONST, family="exp", schedule={
        "family": "exponential", "alpha": 1.0, "beta": 1.0, "p": 1.0})),
    ("bound", {
        "method": "rr",
        "family": "poly",
        "constants": {"theta": 0.5, "L": 1.0, "mu": 1.0, "A": 0.0, "sigma": 1.0, "N": 4},
        "schedule": {"family": "polynomial", "alpha": 1.0, "gamma": 222.0, "p": 1.0},
        "K": 512,
        "y0": 1.0,
        "tuned": {"beta": 16.0},
    }),
    ("run", RUN_GD),
    ("run", dict(RUN_SGD, K=8, schedule={"family": "cosine", "alpha": 0.02, "p": 1.0},
                 noise={"kind": "additive_gaussian", "sigma": 1.0, "A": 0.0})),
    ("run", {
        "algorithm": "rr",
        "problem": {"kind": "quadratic", "mu": 1.0, "L": 1.5, "dim": 1, "N": 2,
                    "shifts": [-1.0, 1.0], "curvatures": [0.5, 1.5], "radius": 10.0},
        "schedule": {"family": "polynomial", "alpha": 0.1, "gamma": 4.0, "p": 1.0},
        "K": 8,
        "x0": [1.0],
        "seeds": [0, 1],
    }),
    ("run", {
        "algorithm": "gd",
        "problem": {"kind": "power", "theta": 0.75, "c": 1.0, "radius": 2.0},
        "schedule": {"family": "exponential", "alpha": 0.01, "beta": 1.0, "p": 1.0},
        "K": 8,
        "x0": [0.5],
    }),
    ("fit", {"input": "@input", "window": [0, 2]}),
    ("heatmap", {"method": "rr", "p_grid": [0.5, 1.0], "theta_grid": [0.5, 0.75, 1.0]}),
]


def numeric_leaves(node, path=()):
    """Paths of the numbers (not the bools) in a JSON value."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, child in items for leaf in numeric_leaves(child, path + (key,))]
    return [path] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


def run_typed(tmp, command, config, path=None, text="", out="out"):
    """Run command on config with the leaf at path written as the JSON text."""
    config = json.loads(json.dumps(config))
    if command == "fit":
        table = tmp / "series.csv"
        table.write_text("K,schedule_id,y_K\n8,a,0.5\n16,a,0.25\n32,a,0.125\n", encoding="utf-8")
        config["input"] = str(table)
    if path is not None:
        node = config
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = "@bad"
    (tmp / "config.json").write_text(json.dumps(config).replace('"@bad"', text), "utf-8")
    argv = [command, "--config", str(tmp / "config.json"), "--out", str(tmp / out)]
    return cli.main(argv + skip_verify(command))


def test_every_parameter_of_a_section_call_has_a_parser():
    """Each library call that a config feeds, a bound evaluator and a runner
    included, takes only parameters whose annotation cli._PARSERS parses, but
    those its command fills itself (an evaluator's method constants and
    schedule, a runner's schedule, K and x0). So a call that gains one of
    another type (say Optional[float]) fails here, not in a user's run."""
    calls = [PLParams, NoiseModel, *cli._CONSTANTS.values(), *cli._PROBLEMS.values(),
             *cli._SCHEDULES.values()]
    owns = [(call, ()) for call in calls]
    owns += [(evaluate, cli._BOUND_OWN) for evaluate in cli._BOUNDS.values()]
    owns += [(runner, tuple(cli._RUN_KEYS)) for runner in cli._RUNNERS.values()]
    for call, own in owns:
        for name, parameter in inspect.signature(call).parameters.items():
            assert name in own or parameter.annotation in cli._PARSERS, (call.__name__, name)
    for evaluate in cli._BOUNDS.values():  # its schedule annotation names a schedule class
        assert cli._bound_parameters(evaluate)[2] in cli._SCHEDULES.values()


@pytest.mark.parametrize("command, config", TYPED_CONFIGS)
def test_typed_configs_run(tmp_path, command, config):
    assert run_typed(tmp_path, command, config) == 0


DIGITS_400 = st.integers(10**399, 10**400 - 1)


@pytest.mark.fuzz
@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_numeric_field_rejects_a_wrong_type(data):
    """A bool, a numeric string, a 400-digit integer, or 1.5 where an integer
    is needed, in any numeric field of any command: exit 2, no traceback."""
    command, config = data.draw(st.sampled_from(TYPED_CONFIGS))
    path = data.draw(st.sampled_from(numeric_leaves(config)))
    leaf = config
    for key in path:
        leaf = leaf[key]
    wrong = [
        st.booleans(),
        st.one_of(st.integers(-9, 10**6), st.floats(allow_nan=False)).map(str),
        DIGITS_400,
        DIGITS_400.map(lambda v: -v),
    ]
    if isinstance(leaf, int):
        wrong.append(st.just(1.5))
    value = data.draw(st.one_of(wrong))
    with tempfile.TemporaryDirectory() as tmp:
        assert run_typed(Path(tmp), command, config, path, json.dumps(value)) == 2


# extreme finite floats for real fields (and any finite float); small
# integers for integer fields, and a horizon or seed of 10^18


@pytest.mark.fuzz
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_every_numeric_field_ends_in_a_documented_exit(data):
    """An extreme or any finite value in any numeric field of any command
    exits 0, 2, 3 or 4 without raising, and a config error or numeric
    failure writes no file."""
    command, config = data.draw(st.sampled_from(TYPED_CONFIGS))
    path = data.draw(st.sampled_from(numeric_leaves(config)))
    leaf = config
    for key in path:
        leaf = leaf[key]
    if isinstance(leaf, int):
        values = [-1, 0, 1, 2, 3] + ([10**18] if "K" in path or "seeds" in path else [])
        value = data.draw(st.sampled_from(values))
    else:
        value = data.draw(st.one_of(st.sampled_from(oracles.EXTREME_FLOATS), FINITE))
    with tempfile.TemporaryDirectory() as tmp:
        code = run_typed(Path(tmp), command, config, path, json.dumps(value))
        out = Path(tmp) / "out"
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert not out.exists() or not any(out.iterdir())


RUN_DIM = ("problem", "dim")
RUN_POWER = dict(RUN_GD, problem={"kind": "power", "theta": 0.9, "c": 1.0, "radius": 0.5})


@pytest.mark.parametrize(
    "command, config, path, text",
    [
        ("run", RUN_GD, RUN_DIM, "1.7"),
        ("run", RUN_GD, RUN_DIM, "1" + "0" * 399),
        ("run", RUN_GD, ("x0",), '"12"'),
        ("run", RUN_GD, ("x0", 0), "true"),
        ("run", RUN_GD, ("K",), str(cli.MAX_HORIZON + 1)),
        ("fit", {"input": "@input", "window": [0, 2]}, ("window",), "[1.5, 3]"),
        ("heatmap", {"method": "rr"}, ("method",), '"rr", "theta_grid": [true]'),
        ("simulate-recursion", SIM_CONFIG, ("params", "l3"), "1e400"),
        ("simulate-recursion", SIM_CONFIG, ("schedules", 0, "alpha"), '"0.1"'),
        ("simulate-recursion", SIM_CONFIG, ("k_grid",), "[9999999999999]"),
        ("simulate-recursion", SIM_CONFIG, ("k_grid",), f"[8, {cli.MAX_HORIZON + 1}]"),
        ("bound", BOUND_CONST, ("K",), "1" + "0" * 399),
        # power problems whose smoothness constant overflows, or underflows to 0
        ("run", RUN_POWER, ("problem", "radius"), "1e40"),
        ("run", RUN_POWER, ("problem", "theta"), "0.9999"),
    ],
)
def test_reproduced_config_gaps_exit_2(tmp_path, capsys, command, config, path, text):
    assert run_typed(tmp_path, command, config, path, text) == 2
    assert capsys.readouterr().err.startswith("config error: ")


# the file each command writes into --out
WRITTEN = {
    "simulate-recursion": "recursion.csv",
    "bound": "bound.json",
    "run": "trajectories.csv",
    "fit": "fit.json",
    "heatmap": "heatmap.csv",
    "verify": "report.json",
}
# --out paths under a directory that holds a regular file "afile" and, at
# out/<the command's file>, a directory
BAD_OUTS = {"a-file": "afile", "below-a-file": "afile/sub", "file-is-a-directory": "out"}


def work_not_reached(*args, **kwargs):
    raise AssertionError("the command worked before it checked --out")


@pytest.mark.parametrize("bad", BAD_OUTS)
@pytest.mark.parametrize("command", WRITTEN)
def test_unusable_out_is_config_error(tmp_path, capsys, monkeypatch, command, bad):
    """It raised FileExistsError, NotADirectoryError or IsADirectoryError
    (exit 1), and verify ran its whole suite first."""
    (tmp_path / "afile").write_text("", encoding="utf-8")
    (tmp_path / "out" / WRITTEN[command]).mkdir(parents=True)
    out = tmp_path / BAD_OUTS[bad]
    if command == "verify":
        monkeypatch.setitem(cli._SUITES, "inequalities", work_not_reached)
        code = cli.main(["verify", "inequalities", "--k-max", "8", "--out", str(out)])
    else:
        config = next(config for name, config in TYPED_CONFIGS if name == command)
        code = run_typed(tmp_path, command, config, out=BAD_OUTS[bad])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(out) in err


@pytest.mark.parametrize(
    "command, target",
    [("run", "trajectories.csv"), ("run", "mean.csv"), ("run", "manifest.json"),
     ("verify", "report.json")],
)
def test_unwritable_target_stops_before_any_work(tmp_path, capsys, monkeypatch, command, target):
    """run wrote trajectories.csv before it failed on a mean.csv that is a
    directory, and verify ran its whole suite before it failed on report.json."""
    out = tmp_path / "out"
    (out / target).mkdir(parents=True)
    listing = sorted(out.rglob("*"))
    monkeypatch.setattr(cli, "verify_pl", work_not_reached)
    monkeypatch.setitem(cli._RUNNERS, "gd", work_not_reached)
    monkeypatch.setitem(cli._SUITES, "inequalities", work_not_reached)
    if command == "verify":
        code = cli.main(["verify", "inequalities", "--out", str(out)])
    else:
        code = run_cli(tmp_path, command, RUN_GD)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out / target}: it is not a regular file\n"
    assert sorted(out.rglob("*")) == listing


class FullDisk:
    """An open file whose every write fails as on a full disk."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_run_whose_mean_table_fails_midway_leaves_no_file(tmp_path, capsys, monkeypatch):
    """trajectories.csv, written before mean.csv failed, was left behind."""

    def full_at_mean(path, *args, **kwargs):
        fh = open(path, *args, **kwargs)
        return FullDisk(fh) if Path(path).name == "mean.csv" else fh

    monkeypatch.setattr(cli, "open", full_at_mean, raising=False)
    assert run_cli(tmp_path, "run", RUN_SGD, extra=["--skip-verify"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "config error: [Errno 28] No space left on device\n"
    assert captured.out == ""
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("after_open", [False, True], ids=["as-is", "encoded-after-open"])
def test_schedule_id_that_utf8_cannot_encode_leaves_no_file(
    tmp_path, capsys, monkeypatch, after_open
):
    """A lone surrogate in an id fails the table's UTF-8 encoding (exit 2);
    encoded-after-open writes a byte to the open file before the table."""
    if after_open:
        table = cli._table
        monkeypatch.setattr(
            cli, "_table", lambda *a: lambda fh: (fh.write(b"K"), table(*a)(fh))
        )
    config = dict(SIM_CONFIG, schedules=[{"id": "a\ud800", "family": "constant", "alpha": 0.2}])
    assert run_cli(tmp_path, "simulate-recursion", config) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: 'utf-8' codec can't encode character '\\ud800'")
    assert list((tmp_path / "out").iterdir()) == []


@pytest.mark.parametrize("command, config", TYPED_CONFIGS)
def test_each_command_writes_exactly_its_declared_files(tmp_path, capsys, command, config):
    assert run_typed(tmp_path, command, config) == 0
    _, _, names = cli._COMMANDS[command]
    assert sorted(path.name for path in (tmp_path / "out").iterdir()) == sorted(names)
    written = [f"wrote {tmp_path / 'out' / name}" for name in names]
    assert capsys.readouterr().out.splitlines()[-len(names) :] == written


def test_config_nested_past_the_recursion_limit_is_config_error(tmp_path, capsys):
    # json.loads raised RecursionError (exit 1)
    config = tmp_path / "deep.json"
    config.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    argv = ["heatmap", "--config", str(config), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"config error: config {config} nests too deeply to parse\n"
    assert not (tmp_path / "out").exists()


def test_largest_horizon_is_accepted(tmp_path):
    config = dict(SIM_CONFIG, k_grid=[cli.MAX_HORIZON])
    config["schedules"] = [{"id": "flat", "family": "constant", "alpha": 0.2}]
    with mock.patch.object(cli, "simulate_pl_finals", lambda cells: [0.5]):
        assert run_cli(tmp_path, "simulate-recursion", config) == 0


# sha256 of verify's report.json for these arguments, taken before the suites
# moved from the command-line module into steprates.verify
VERIFY_REPORTS = {
    ("bounds", "--draws", "40"): "b368248417111c1e357d4cb9b2ccd12fa1c94cc0105c8ba7dc952a8af5effda9",
    ("inequalities", "--k-max", "64"): (
        "2e76d67e6bd5386c970c2f3555444a2734aa4667fe8e6039c142e6bab08fbf7b"
    ),
    ("assumptions", "--draws", "200"): (
        "529a29004d3967b4a8a87a40a075126b884b980b2936d3e7a2ac84d7f09dae36"
    ),
    # taken before the draw read its floors from steprates.plbounds
    ("bounds", "--draws", "200", "--seed", "7"): (
        "4ffeb6a2510c38b39a78df8c2a90c0fbcd0e77daeeaa719625eb14e5d798723a"
    ),
    # taken before the cosine checks shared one row per K
    ("inequalities", "--k-max", "512"): (
        "e47003983c89f22c75398b314cb3e6d0ede0f4648e17cc547664590a389222de"
    ),
    # taken after ratio-convex ran once per draw, relative to each ratio's scale
    ("chung", "--draws", "200"): (
        "db6fb6a0555a36a09321d1ff1a6c437f7e5fae8e1861e7637635aec4e231e075"
    ),
}


def verify_report_id(argv):
    """The suite and the flags after its size; a suite's later pins add the size."""
    name = argv[0] + "".join(argv[3:]).replace("--", "-")
    first = next(a for a in VERIFY_REPORTS if a[0] == argv[0] and a[3:] == argv[3:])
    return name if argv == first else name + "".join(argv[1:3]).replace("--", "-")


@pytest.mark.parametrize("argv", VERIFY_REPORTS, ids=verify_report_id)
def test_verify_reports_keep_their_bytes(tmp_path, argv):
    assert cli.main(["verify", *argv, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == VERIFY_REPORTS[argv]


PIN_CONSTANTS = {"theta": 0.75, "L": 1.0, "mu": 0.8, "A": 0.3, "sigma": 0.7}
# one bound.json per (family, method, tuned) and its sha256, taken before the
# evaluators' preconditions and results moved into shared helpers
BOUND_PINS = {
    ("const", "sgd", False): (
        {"schedule": {"family": "constant", "alpha": 0.05}, "K": 300},
        "916d5feffb2d012df8bdebb25c7a2b51faadc81869dc425b3824a8ccb02b4416",
    ),
    ("const", "rr", False): (
        {"schedule": {"family": "constant", "alpha": 0.05}, "K": 300},
        "116c0c9c26ed60f942a952aab55e5db0bbc0666538199e137d3aacac9c08f732",
    ),
    ("const", "sgd", True): (
        {"K": 4096, "tuned": True},
        "ec036f7e316a9caff977dce8c599070765af68fd03cd0759c6ad876f8c6e45ab",
    ),
    ("const", "rr", True): (
        {"K": 8192, "tuned": {"beta": 4.0}},
        "91ae0e0d0b582e03963c1abe3b242c8622ceeac8bde2a8e5678a17d60453e1f8",
    ),
    ("cos", "sgd", False): (
        {"schedule": {"family": "cosine", "alpha": 0.05, "p": 1.5}, "K": 200},
        "b4729f1f8405a1419d72237af60c416b8850645d1b170e858fb166ee6566ae43",
    ),
    ("cos", "rr", False): (
        {"schedule": {"family": "cosine", "alpha": 0.05, "p": 0.8}, "K": 200},
        "b461db84fdd5df3dd93444d607ce5bd72b70ed54862cd8528ce9fcbc172652fa",
    ),
    ("cos", "sgd", True): (
        {"schedule": {"family": "cosine", "alpha": 0.05, "p": 0.8}, "K": 65536, "tuned": True},
        "f816c89a6e60a236dc2a833915c1775989784991735bdfaa7aee1c30d0dceb41",
    ),
    ("cos", "rr", True): (
        {"schedule": {"family": "cosine", "alpha": 0.05, "p": 1.5}, "K": 65536, "tuned": {}},
        "0ef4b6935c3574b25cf5d8e9330e15f90fc7754c55657e76ae43643f999e15c1",
    ),
    ("exp", "sgd", False): (
        {"schedule": {"family": "exponential", "alpha": 0.05, "beta": 2.0, "p": 1.0}, "K": 1000},
        "33ee892bd8fae1de3114874a48f00dc2b34a3f75c276fe169392284f4274bb2f",
    ),
    ("exp", "rr", False): (
        {"schedule": {"family": "exponential", "alpha": 0.4, "beta": 2.0, "p": 0.5}, "K": 20000},
        "34fecff797ef57930579cf454fe07f57bcb66a3816d05f6f1cdceeb0f8234d4e",
    ),
    ("poly", "sgd", False): (
        {"schedule": {"family": "polynomial", "alpha": 9.0, "gamma": 60.0, "p": 0.9}, "K": 500},
        "29fd1d6bb7125e9a798e674dfeaeb0d2be307f738070a6b0304905f2d20f0b0e",
    ),
    ("poly", "rr", False): (
        {
            "schedule": {"family": "polynomial", "alpha": 1.0, "gamma": 40.0, "p": 0.3},
            "K": 500,
            "case": "a",
        },
        "06acffc9c34f81f3df617e12cfd8f6bdcf5433dea6c727ac98622a05fa74cf72",
    ),
    ("poly", "sgd", True): (
        {
            "schedule": {"family": "polynomial", "alpha": 8.0, "gamma": 400.0, "p": 0.75},
            "K": 1000,
            "tuned": True,
        },
        "c25f1bf4fbc10f241076e9a3fb2267b84d3b4f35781db28d255d9b8e5dcb46e7",
    ),
    ("poly", "rr", True): (
        {
            "schedule": {"family": "polynomial", "alpha": 1.0, "gamma": 3000.0, "p": 0.6},
            "K": 8000,
            "tuned": True,
        },
        "7847b77ab9f80c6096f260c33106c91a6de7c999bddd80db15b6689feca32b94",
    ),
}


@pytest.mark.parametrize("key", BOUND_PINS, ids=lambda key: "-".join(map(str, key)))
def test_bound_json_keeps_its_bytes(tmp_path, key):
    family, method, _ = key
    fields, digest = BOUND_PINS[key]
    constants = PIN_CONSTANTS if method == "sgd" else dict(PIN_CONSTANTS, N=3)
    config = {"method": method, "family": family, "constants": constants, "y0": 1.0, **fields}
    assert run_cli(tmp_path, "bound", config) == 0
    assert hashlib.sha256((tmp_path / "out" / "bound.json").read_bytes()).hexdigest() == digest


# --- each configuration error in the command layer exits 2, naming it ---------

# (argv, config file content, the message); argv [command] stands for
# [command, --config, config.json, --out, out], and fit's input series.csv
# holds a header and no rows
CONFIG_ERRORS = {
    "section-not-an-object": (
        ["simulate-recursion"], dict(SIM_CONFIG, params=3), "params must be a JSON object"
    ),
    "schedule-not-an-object": (
        ["bound"], dict(BOUND_CONST, schedule=3), "schedule must be a JSON object"
    ),
    "unknown-method": (
        ["bound"], dict(BOUND_CONST, method="gd"), "unknown method 'gd'; expected sgd or rr"
    ),
    "tuned-not-a-bool-or-object": (
        ["bound"],
        dict(BOUND_CONST, tuned=3),
        "tuned must be a boolean or an object with an optional beta",
    ),
    "no-config": (["bound", "--out", "{tmp}/out"], None, "this command requires --config"),
    "unreadable-config": (
        ["bound", "--config", "{tmp}/missing.json", "--out", "{tmp}/out"],
        None,
        "cannot read config {tmp}/missing.json",
    ),
    "config-not-json": (["bound"], "{", "config {tmp}/config.json is not valid JSON"),
    "config-root-not-an-object": (["bound"], "[]", "config root must be a JSON object"),
    "no-out": (
        ["bound", "--config", "{tmp}/config.json"], BOUND_CONST, "this command requires --out"
    ),
    "empty-k_grid": (
        ["simulate-recursion"],
        dict(SIM_CONFIG, k_grid=[]),
        "k_grid must be a nonempty list of positive integers",
    ),
    "no-schedules": (
        ["simulate-recursion"], dict(SIM_CONFIG, schedules=[]), "schedules must be a nonempty list"
    ),
    "schedule-without-id": (
        ["simulate-recursion"],
        dict(SIM_CONFIG, schedules=[{"family": "constant", "alpha": 0.2}]),
        "each schedule needs an 'id' field",
    ),
    "schedule-of-another-family": (
        ["bound"], dict(BOUND_CONST, family="exp"), "family 'exp' needs a exponential schedule"
    ),
    "unknown-bound-family": (
        ["bound"],
        dict(BOUND_CONST, family="step"),
        "unknown family 'step'; expected exp, cos, const, or poly",
    ),
    "unknown-algorithm": (["run"], dict(RUN_GD, algorithm="adam"), "unknown algorithm 'adam'"),
    "window-not-a-pair": (
        ["fit"],
        {"input": "{tmp}/series.csv", "window": [1]},
        "window must be a two-element [lo, hi] list",
    ),
    "fit-input-without-rows": (["fit"], {"input": "{tmp}/series.csv"}, "no data rows in"),
}


@pytest.mark.parametrize("argv, config, message", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS)
def test_each_config_error_exits_2_naming_it(tmp_path, capsys, argv, config, message):
    tmp = str(tmp_path)
    (tmp_path / "series.csv").write_text("K,schedule_id,y_K\n", encoding="utf-8")
    if config is not None:
        text = config if isinstance(config, str) else json.dumps(config).replace("{tmp}", tmp)
        (tmp_path / "config.json").write_text(text, encoding="utf-8")
    if len(argv) == 1:
        argv = [*argv, "--config", "{tmp}/config.json", "--out", "{tmp}/out"]
    assert cli.main([arg.replace("{tmp}", tmp) for arg in argv]) == 2
    assert f"config error: {message.replace('{tmp}', tmp)}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
