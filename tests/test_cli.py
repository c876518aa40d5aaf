"""End-to-end tests of the command-line interface: exit codes and artifacts."""
from __future__ import annotations

import csv
import hashlib
import json
import math
import random
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
    verify_pl,
)
from steprates.plbounds import PLParams, simulate_pl_recursion
from steprates.recursions import CheckResult
from steprates.schedules import Constant


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


def test_simulate_recursion_numeric_failure_exit(tmp_path):
    config = dict(SIM_CONFIG)
    config["schedules"] = [{"id": "wild", "family": "constant", "alpha": 2.5}]
    config["params"] = {"l1": 0.0, "l2": 1.0, "l3": 0.01, "tau": 2.0, "theta": 0.5}
    assert run_cli(tmp_path, "simulate-recursion", config) == 3


def test_simulate_recursion_non_finite_value_exit(tmp_path, capsys):
    config = dict(SIM_CONFIG, y0=1e300, k_grid=[8])
    config["params"] = {"l1": 1.0, "l2": 1.0, "l3": 1.0, "tau": 2.0, "theta": 0.5}
    config["schedules"] = [{"id": "big", "family": "constant", "alpha": 50}]
    assert run_cli(tmp_path, "simulate-recursion", config) == 3
    assert "not finite at step 3" in capsys.readouterr().err
    assert not (tmp_path / "out" / "recursion.csv").exists()


def test_unknown_config_key_rejected(tmp_path):
    config = dict(SIM_CONFIG)
    config["typo"] = 1
    assert run_cli(tmp_path, "simulate-recursion", config) == 2


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


def test_bound_const_payload(tmp_path):
    assert run_cli(tmp_path, "bound", BOUND_CONST) == 0
    payload = json.loads((tmp_path / "out" / "bound.json").read_text(encoding="utf-8"))
    assert payload["value"] == pytest.approx(0.10673794699908547, rel=1e-15)
    assert payload["regime"] == "constant"
    assert payload["constants_used"]["xi"] == 0.5
    assert payload["details"]["alpha"] == 0.1


def test_bound_const_tuned_without_schedule(tmp_path):
    config = {k: v for k, v in BOUND_CONST.items() if k != "schedule"}
    config["tuned"] = True
    config["K"] = 4096
    assert run_cli(tmp_path, "bound", config) == 0
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


def test_bound_missing_schedule_is_config_error(tmp_path):
    config = {k: v for k, v in BOUND_CONST.items() if k != "schedule"}
    assert run_cli(tmp_path, "bound", config) == 2


def test_bound_precondition_failure_writes_error_file(tmp_path):
    config = dict(BOUND_CONST)
    config["schedule"] = {"family": "constant", "alpha": 1.5}
    assert run_cli(tmp_path, "bound", config) == 4
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


def test_run_non_finite_gap_is_numeric_failure(tmp_path, capsys):
    config = dict(RUN_GD, x0=[1e200])  # the first gap, 0.5 * 1e400, overflows
    assert run_cli(tmp_path, "run", config, extra=["--skip-verify"]) == 3
    assert "not finite for the deterministic run at step 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectories.csv").exists()


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


def test_run_gd_rejects_stochastic_sections(tmp_path):
    config = dict(RUN_GD)
    config["seeds"] = [1]
    assert run_cli(tmp_path, "run", config) == 2
    config = dict(RUN_GD)
    config["noise"] = {"kind": "none"}
    assert run_cli(tmp_path, "run", config) == 2


def test_run_problem_verification_gate(tmp_path, monkeypatch):
    failed = CheckResult(
        check="pl-inequality",
        passed=False,
        margin=-0.5,
        witness_index="sample 3",
        witness_value=-0.5,
    )
    monkeypatch.setattr(cli, "verify_pl", lambda problem, sample_count, seed: failed)
    assert run_cli(tmp_path, "run", RUN_GD) == 5
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["problem_check"]["passed"] is False
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


def test_verify_unknown_suite_is_usage_error():
    assert cli.main(["verify", "spectral"]) == 2


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
        assert run_cli(tmp, command, config, extra=["--skip-verify"]) == 0
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
    patches = {"sgd_run": lambda *args: trajectory, "_CHUNK": data.draw(st.integers(1, 5))}
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
        "simulate_pl_grid": lambda *args: finals,
        "_CHUNK": data.draw(st.integers(1, 5)),
    }
    rows = zip((K for K in k_grid for _ in ids), (sid for _ in k_grid for sid in ids), finals)
    ours, reference = written_by_both(
        "simulate-recursion", config, "recursion.csv", ["K", "schedule_id", "y_K"], rows, **patches
    )
    assert ours == reference


README_SIM = {
    "params": {"l1": 1.0, "l2": 1.0, "l3": 1.0, "tau": 2.0, "theta": 0.5},
    "y0": 1.0,
    "k_grid": [4096, 8192, 16384, 32768, 65536],
    "schedules": [
        {"id": "poly", "family": "polynomial", "alpha": 4.0, "gamma": 8.0, "p": 1.0},
        {"id": "exp", "family": "exponential", "alpha": 0.5, "beta": 1.0, "p": 1.0},
    ],
}
# sha256 of the README examples' tables as the cell-by-cell csv.writer wrote
# them, before the block writer replaced it
README_TABLES = {
    "recursion.csv": "fe7f559e39110467b4fb82aead2187979370873df430aceacaa31916f52c962b",
    "trajectories.csv": "03fc33e73698de0d5e4395a22ff84f88839e744b0d731c79bfad921a2f954bea",
    "mean.csv": "e53357f375c9ce6b5e88cfe7ddc3c4c0711188a6bedcc50eb1fde2933a37a2ca",
    "heatmap.csv": "1163906f8c9e3882a94348c0eb2ca6caa3d9a7ff2b9c84564cde2a369720284a",
}


def test_readme_tables_keep_their_bytes(tmp_path):
    assert run_cli(tmp_path, "simulate-recursion", README_SIM) == 0
    assert run_cli(tmp_path, "run", RUN_SGD) == 0
    assert run_cli(tmp_path, "heatmap", {"method": "rr"}) == 0
    for name, digest in README_TABLES.items():
        assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name


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
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--skip-verify"]
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


def run_typed(tmp, command, config, path=None, text=""):
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
    return cli.main(
        [command, "--config", str(tmp / "config.json"), "--out", str(tmp / "out"), "--skip-verify"]
    )


@pytest.mark.parametrize("command, config", TYPED_CONFIGS)
def test_typed_configs_run(tmp_path, command, config):
    assert run_typed(tmp_path, command, config) == 0


DIGITS_400 = st.integers(10**399, 10**400 - 1)


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


RUN_DIM = ("problem", "dim")


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
    ],
)
def test_reproduced_config_gaps_exit_2(tmp_path, capsys, command, config, path, text):
    assert run_typed(tmp_path, command, config, path, text) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def test_largest_horizon_is_accepted(tmp_path):
    config = dict(SIM_CONFIG, k_grid=[cli.MAX_HORIZON])
    config["schedules"] = [{"id": "flat", "family": "constant", "alpha": 0.2}]
    with mock.patch.object(cli, "simulate_pl_grid", lambda *args: [0.5]):
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
}


@pytest.mark.parametrize("argv", VERIFY_REPORTS, ids=lambda argv: argv[0])
def test_verify_reports_keep_their_bytes(tmp_path, argv):
    assert cli.main(["verify", *argv, "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == VERIFY_REPORTS[argv]
