#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload wide --seeds 0-9 --seconds 30

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance between
the quartiles as a share of the median. Runs go one after another.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9")
    p.add_argument("--seconds", default="30")
    p.add_argument("--trace", default="0")
    args = p.parse_args()
    values: dict[str, list[float]] = {}
    failed_shares = set()
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed",
             str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, text=True, timeout=600)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"attempted {result['attempted']} failed {result['failed']}", flush=True)
        failed_shares.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"failed shares seen: {sorted(failed_shares)}")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
