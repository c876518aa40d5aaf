"""One pass of one workload in a fresh interpreter; prints its result as JSON.

Started by run.py, once per pass, with PYTHONPATH pointing at the
checkout's src/. The pass sets up (imports, inputs drawn from the seed, one
warm-up call), runs every op of the workload under a timer, records the
memory high-water mark, then checks every output. Between ops it times
the probe of speed.py, which rescales the ops' time to a reference speed of
the host. With --trace 1 the public steprates functions are wrapped first,
the wrappers' own cost is measured, and the spans of the ops are turned
into per-layer metrics, net of that cost, and written to --spans.
"""
from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy  # noqa: F401  (imported before timing starts, like steprates)

import steprates  # noqa: F401
import oracles
import speed
import tracing
import workloads


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=sorted(workloads.SIZES))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--reference", type=Path, help="reference.json; omit to record values")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced pass writes its spans")
    args = parser.parse_args()

    reference = None
    if args.reference is not None:
        reference = json.loads(args.reference.read_text(encoding="utf-8"))
        reference = reference[args.scale][args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install([workloads, oracles, sys.modules[__name__]])
        tracer.calibrate()
    args.workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run_pass(args, reference, tracer)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_pass(args, reference: dict | None, tracer: tracing.Tracer | None) -> dict:
    ctx = workloads.Context(args.workload, args.seed, args.scale, reference, args.workdir)
    ops, warm_up = workloads.WORKLOADS[args.workload](ctx)
    warm_up()
    ready = time.monotonic()

    kept: list[tuple] = []
    cpu = 0.0
    rescaler = speed.Rescaler()
    for index, op in enumerate(ops, start=1):
        rescaler.before_op()
        if tracer is not None:
            tracer.op = index
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            output, error = op.run(), None
        except Exception:
            output, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
        cpu += time.process_time() - cpu_start
        if tracer is not None:
            tracer.op = None
        rescaler.add(seconds)
        kept.append((op, None if error else op.keep(output), error, seconds))
        del output
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ref_wall = rescaler.finish()

    failures: list[str] = []
    failed = 0
    figures = dict.fromkeys(
        (
            "cli.rows_written",
            "cli.bytes_written",
            "cli.verify_bounds.draws_per_s",
            "cli.verify_bounds.yield",
        ),
        0.0,
    )
    for op, summary, error, seconds in kept:
        if error is None:
            try:
                problems = op.check(summary)
            except Exception:
                problems = [f"{op.name}: check raised\n{traceback.format_exc(limit=3)}"]
        else:
            problems = [f"{op.name}: raised\n{error}"]
        if problems:
            failed += 1
            failures += problems
            continue
        if isinstance(summary, workloads.CliOutput):
            figures["cli.rows_written"] += summary.rows
            figures["cli.bytes_written"] += summary.bytes
        if op.figures is not None:
            figures.update(op.figures(summary, seconds))

    result = {
        "ready_at": ready,
        "wall_s": rescaler.wall,
        "ref_wall_s": ref_wall,
        "probes": len(rescaler.probes),
        "cpu_s": cpu,
        "peak_rss_mb": peak_mb,
        "attempted": len(ops),
        "failed": failed,
        "failures": failures[:20],
        "op_seconds": {op.name: seconds for op, _, _, seconds in kept},
        "recorded": ctx.recorded if reference is None else None,
    }
    result["figures"] = figures
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.costs)
        result["spans"] = len(tracer.spans)
        result["tracer_costs_ns"] = tracer.costs
        if args.spans is not None:
            tracer.write(args.spans)
    return result


if __name__ == "__main__":
    sys.exit(main())
