"""Run the benchmark over several seeds and summarise its spread; writes a BENCH file.

    python3 bench/baseline.py --seeds 1-10 --sets 2 --out bench/BENCH_1.json

Runs bench/run.py once per seed untraced for every workload, --sets times
over, then once traced per workload (first seed), one run at a time. For
each set and end-to-end metric it reports the medians of the runs, their
median and quartiles, and the spread (q3 - q1) / median next to the
metric's bound in BENCHMARK.json; and each later set's median over the
first's.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = Path(".bench_runs") / "records" / f"{workload}-seed{seed}-trace{trace}.json"
    result["record"] = json.loads(record_path.read_text(encoding="utf-8"))
    return result


def _summarise(workload: str, runs: list[dict], spec: dict) -> dict:
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median
        summary[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": metric["bound"], "values": values,
        }
        print(
            f"  {workload} {metric['name']:12s} median {median:.5g} spread {spread:.3f}"
            f" (bound {metric['bound']})",
            flush=True,
        )
    return summary


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--sets", type=int, default=1, help="sets of runs of every workload")
    parser.add_argument("--workloads", nargs="*", help="default: every workload in BENCHMARK.json")
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    summary: dict = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for number in range(1, args.sets + 1):
        for workload in names:
            runs = []
            for seed in args.seeds:
                runs.append(_run(workload, seed, seconds, 0))
                line = " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items())
                print(
                    f"set {number} {workload} seed {seed}: correct={runs[-1]['correct']} {line}",
                    flush=True,
                )
            entry = summary["workloads"].setdefault(workload, {"correct": True, "sets": []})
            entry["correct"] = entry["correct"] and all(r["correct"] for r in runs)
            entry["sets"].append(_summarise(workload, runs, spec))
            record = runs[0]["record"]
            machine = {k: record[k] for k in ("commit", "nproc", "python", "numpy")}
            summary.setdefault("machine", {**machine, "cpu": record["cpu"]["model"]})
    for workload in names:
        entry = summary["workloads"][workload]
        for metric in spec["end_to_end"]:
            medians = [s[metric["name"]]["median"] for s in entry["sets"]]
            entry.setdefault("later_set_over_first", {})[metric["name"]] = [
                m / medians[0] for m in medians[1:]
            ]
        if not args.no_trace:
            traced = _run(workload, args.seeds[0], seconds, 1)
            entry["traced"] = {
                "seed": args.seeds[0], "correct": traced["correct"], "metrics": traced["metrics"]
            }
    if args.out is not None:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
