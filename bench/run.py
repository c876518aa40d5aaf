"""Benchmark entry point: runs one workload for a stated time and prints its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload bound-battery --seed 3 --seconds 30 --trace 0

The run starts one fresh single-threaded interpreter per pass (bench/worker.py),
one at a time, for about --seconds (and at least one pass of each kind).
Pass i draws its inputs from seed*100 + i, so a seed fixes every pass's
inputs. Each pass sets up, runs the workload's fixed work, and
checks its outputs. The run reports the median over passes of each metric.

With --trace 0 the metrics are the end-to-end ones in BENCHMARK.json. With
--trace 1 the run alternates untraced and traced passes and reports the
per-layer metrics: those from spans come from the traced passes;
process.wall_s, process.cpu_s and the figures a pass counts itself
(cli.rows_written, cli.bytes_written, cli.verify_bounds.*) from the
untraced passes; and process.tracing_overhead from both kinds.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics. A record of the run, with machine facts and every pass, is written
to .bench_runs/records/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("long-trajectories", "bound-battery", "seed-ensemble")
# No pass starts after LAST_START_S, and every pass is killed at RUN_LIMIT_S.
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0
SEED_STRIDE = 100  # pass seeds are seed*100 + index, so a run has at most 100 passes
MIN_PASSES = 1  # of each kind, however short --seconds is


def _git_commit(root: Path) -> str:
    # the ceiling keeps git from reporting the commit of an enclosing repository
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)}
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_facts() -> dict:
    facts = {"model": platform.processor() or "unknown", "flags": []}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    facts["model"] = value.strip()
                elif key.strip() == "flags":
                    facts["flags"] = value.split()
                    break
    except OSError:
        pass
    return facts


def _versions() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def _summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _run_pass(root: Path, args, index: int, traced: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    runs = root / ".bench_runs"
    tag = f"{args.workload}-seed{args.seed}-pass{index}"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed * SEED_STRIDE + index),
        "--scale", args.scale,
        "--trace", str(int(traced)),
        "--reference", str(BENCH / "reference.json"),
        "--workdir", str(runs / "work" / tag),
    ]
    if traced:
        cmd += ["--spans", str(runs / "spans" / f"{tag}.jsonl")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"pass {index} timed out"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        error = f"pass {index} exit {proc.returncode}: {proc.stderr[-2000:]}"
        return {"traced": traced, "error": error}
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready_at") - spawned
    result["traced"] = traced
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="steprates benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument(
        "--scale", default="full", choices=("full", "tiny"), help="tiny is for the smoke test"
    )
    args = parser.parse_args(argv)
    # SystemExit unwinds subprocess.run, which kills the running pass and waits for it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    root = Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not (root / "src" / "steprates" / "__init__.py").is_file() or not spec_path.is_file():
        print(
            "run from the root of a steprates checkout (src/steprates and BENCHMARK.json)",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "commit": _git_commit(root),
        "nproc": os.cpu_count(),
        "cpu": _cpu_facts(),
        **_versions(),
        "loadavg_before": os.getloadavg(),
    }
    kinds = (False, True) if args.trace else (False,)
    passes: list[dict] = []
    lengths: list[float] = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        done = min(sum(1 for p in passes if p["traced"] == k) for k in kinds)
        # start no pass that would end more than half a pass after --seconds
        late = lengths and elapsed + statistics.median(lengths) / 2 >= args.seconds
        if (done >= MIN_PASSES and late) or elapsed >= LAST_START_S:
            break
        if len(passes) == SEED_STRIDE:
            break
        kind = kinds[len(passes) % len(kinds)]
        passes.append(_run_pass(root, args, len(passes), kind, RUN_LIMIT_S - elapsed))
        lengths.append(time.monotonic() - start - elapsed)
    record["loadavg_after"] = os.getloadavg()

    good = [p for p in passes if "error" not in p]
    plain = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    attempted = sum(p["attempted"] for p in good) + len(passes) - len(good)
    failed = sum(p["failed"] for p in good) + len(passes) - len(good)
    stats: dict[str, dict] = {}
    if plain:
        for name in ("setup_s", "ref_wall_s", "wall_s", "peak_rss_mb", "cpu_s"):
            stats[name] = _summary([p[name] for p in plain])
        for name in plain[0]["figures"]:
            stats[name] = _summary([p["figures"][name] for p in plain])
    stats["fail_frac"] = _summary([failed / max(attempted, 1)])
    if traced:
        for name in traced[0]["layers"]:
            stats[name] = _summary([p["layers"][name] for p in traced])
    if plain and traced:
        stats["process.cpu_s"] = dict(stats["cpu_s"])
        stats["process.wall_s"] = dict(stats["wall_s"])
        traced_wall = statistics.median(p["ref_wall_s"] for p in traced)
        ratio = traced_wall / stats["ref_wall_s"]["median"]
        stats["process.tracing_overhead"] = {**_summary([ratio]), "n": len(traced)}

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {}
    for m in wanted:
        if m["name"] in stats:
            metrics[m["name"]] = {"value": stats[m["name"]]["median"], "unit": m["unit"]}
    for name, s in stats.items():
        s["unit"] = units.get(name, "s" if name in ("cpu_s", "wall_s") else "1")

    record.update(
        attempted=attempted,
        failed=failed,
        failures=[f for p in good for f in p["failures"]][:50]
        + [p["error"] for p in passes if "error" in p],
        metrics=stats,
        passes=[{k: v for k, v in p.items() if k != "layers"} for p in passes],
    )
    records = root / ".bench_runs" / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1), encoding="utf-8")

    for failure in record["failures"][:10]:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced passes;"
        f" record {record_path}"
    )
    for name, s in stats.items():
        print(
            f"  {name:52s} {s['median']:.6g} {s['unit']}"
            f"  (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
        )
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"no measurement for {missing}", file=sys.stderr)
        return 1
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
