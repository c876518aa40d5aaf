"""Regenerate reference.json from the code in this checkout.

    python3 bench/record_reference.py

Runs one pass of every workload at every scale without a reference, so the
workers record their deterministic outputs instead of checking them, and
writes those values to bench/reference.json. Recording with two seeds and
requiring equal values guards against a seed-dependent entry. Only record
from a commit whose outputs are known to be right.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402

SCALES = ("full", "tiny")


def record(root: Path, workload: str, scale: str, seed: int) -> dict:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--scale", scale, "--workdir", str(root / ".bench_runs" / "work" / "record"),
    ]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["failed"]:
        raise SystemExit(f"{workload}/{scale}: checks failed while recording: {result['failures']}")
    return result["recorded"]


def main() -> int:
    root = Path.cwd()
    reference: dict = {}
    for scale in SCALES:
        reference[scale] = {}
        for workload in WORKLOADS:
            first, second = (record(root, workload, scale, seed) for seed in (0, 1))
            if first != second:
                raise SystemExit(f"{workload}/{scale}: recorded values depend on the seed")
            reference[scale][workload] = first
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (BENCH / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
