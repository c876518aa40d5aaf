"""Smoke test and public-surface guard for the benchmark.

    python3 -m pytest bench/test_bench.py

Each workload runs once at the tiny scale, untraced and traced; every metric
named in BENCHMARK.json must be printed with its unit, and a perturbed
reference value must make the run report a failure.
"""
from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = {"schedules", "recursions", "plbounds", "optimizers", "rates", "cli"}


COPY_IGNORE = shutil.ignore_patterns("__pycache__", "*.egg-info")


def copy_checkout(dest: Path, with_src: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    shutil.copytree(BENCH, dest / "bench", ignore=COPY_IGNORE)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=COPY_IGNORE)


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
        "--seconds", "0", "--trace", str(trace), "--scale", "tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = run_bench(ROOT, workload, 0)
    result = result_of(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.split()[:3] == ["fail_frac", "0", "1"] for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    result = result_of(run_bench(ROOT, workload, 1))
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }


def test_spans_cover_all_six_layers_with_nested_children():
    layers, nested = set(), set()
    for workload in WORKLOADS:
        result_of(run_bench(ROOT, workload, 1))
        path = ROOT / ".bench_runs" / "spans" / f"{workload}-seed7-pass1.jsonl"
        spans = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        layers |= {s[1] for s in spans}
        nested |= {(spans[s[4]][1], s[1]) for s in spans if s[4] >= 0}
    assert LAYERS <= layers
    assert {("cli", "plbounds"), ("plbounds", "schedules")} <= nested


def test_perturbed_reference_makes_the_run_fail(tmp_path):
    copy_checkout(tmp_path, with_src=True)
    path = tmp_path / "bench" / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8"))
    key = sorted(reference["tiny"]["long-trajectories"])[0]
    reference["tiny"]["long-trajectories"][key] *= 1.0 + 1e-6
    path.write_text(json.dumps(reference), encoding="utf-8")
    proc = run_bench(tmp_path, "long-trajectories", 0)
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    fail_frac = next(
        line.split()[1] for line in proc.stdout.splitlines() if line.split()[:1] == ["fail_frac"]
    )
    assert float(fail_frac) > 0
    assert key in proc.stderr


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    copy_checkout(tmp_path, with_src=False)
    cmd = [
        sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
        "--seconds", "1", "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_net_durations_take_wrapper_cost_out_of_every_enclosing_span():
    sys.path.insert(0, str(BENCH))
    import tracing

    costs = {"span": 10.0, "passed": 3.0, "inner": 1.0}
    spans = [
        ["main", "cli", 0, 1000, -1, 1, None, 0],
        ["simulate_pl_recursion", "plbounds", 100, 600, 0, 1, None, 2],
        ["step_values", "schedules", 200, 300, 1, 1, None, 0],
    ]
    net = tracing.net_durations(spans, costs)
    # step_values: 100 - 1; simulate: 500 - 1 - 2*3 - (10 + 0); main: 1000 - 1 - (10 + 16)
    assert net == [973.0, 483.0, 99.0]
    assert tracing.self_times(spans, net) == [490.0, 384.0, 99.0]


def test_rescaler_scales_each_segment_by_the_probes_around_it():
    sys.path.insert(0, str(BENCH))
    import speed

    ref = speed.REFERENCE_S
    probes = iter([ref, 2 * ref, ref / 2])
    rescaler = speed.Rescaler(probe=lambda: next(probes))
    rescaler.before_op()  # nothing timed yet: no probe
    rescaler.add(0.06)
    rescaler.before_op()  # less than SEGMENT_S since the last probe: no probe
    rescaler.add(0.06)
    rescaler.before_op()  # closes 0.12 s at speed 2 * ref / (ref + 2 * ref)
    rescaler.add(0.3)
    total = rescaler.finish()  # closes 0.3 s at speed 2 * ref / (2 * ref + ref / 2)
    assert rescaler.wall == pytest.approx(0.42)
    assert total == pytest.approx(0.12 * 2 / 3 + 0.3 * 0.8)
    assert rescaler.probes == [ref, 2 * ref, ref / 2]


# --- public-surface guard ------------------------------------------------------

GUARDED = sorted(p for p in BENCH.glob("*.py") if p.name != Path(__file__).name)
# Parameters and flags that are due to be deleted, and a suite whose draw count
# is due to change; driving them would shift the benchmark's work under it.
DOOMED_KEYWORDS = {"workers", "vectorize"}
DOOMED_STRINGS = {"--threads", "chung"}


def surface_violations(source: str) -> list[str]:
    tree = ast.parse(source)
    package_names = set()
    problems = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "steprates":
            for alias in node.names:
                if alias.name.startswith("_"):
                    problems.append(f"imports private name {alias.name}")
                package_names.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "steprates":
                    package_names.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr[:1] == "_" and node.attr[:2] != "__":
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in package_names:
                problems.append(f"uses private attribute {node.attr}")
        elif isinstance(node, ast.keyword) and node.arg in DOOMED_KEYWORDS:
            problems.append(f"passes {node.arg}=")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for text in DOOMED_STRINGS:
                if text in node.value:
                    problems.append(f"mentions {text!r}")
    return problems


@pytest.mark.parametrize("path", GUARDED, ids=lambda p: p.name)
def test_benchmark_uses_only_the_public_surface(path):
    assert surface_violations(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    [
        "from steprates.cli import _bounds_suite",
        "from steprates import optimizers\noptimizers._aggregate([], [], [])",
        "sgd_run(p, n, s, x, K, seeds, workers=2)",
        "sgd_run(p, n, s, x, K, seeds, vectorize='never')",
        "cli.main(['run', '--threads', '2'])",
        "cli.main(['verify', 'chung'])",
    ],
)
def test_guard_catches_each_forbidden_use(source):
    assert surface_violations(source)
