#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 rloopbench/spread.py --workload loop_storm --seeds 1-10 \
        [--seconds 10] [--trace 0] [--bench BENCHMARK.json]

For every metric it prints the median over the runs and the distance
between the first and third quartile (statistics.quantiles(values, n=4))
as a share of that median; with --bench, next to a third of the metric's
bound from that file — the steadiness target for the benchmark. Run from
the root of a checkout; each run goes through rloopbench/run.py.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bench", default=None)
    args = ap.parse_args()

    bounds = {}
    if args.bench:
        spec = json.loads(Path(args.bench).read_text())
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    ok = True
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(ROOT / "rloopbench" / "run.py"),
               "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
            return 1
        result = json.loads(lines[-1])
        ok &= result["correct"] and result["failed"] == 0
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(row), flush=True)

    print(f"{'metric':34} {'median':>12} {'iqr/median':>11} {'bound/3':>8}")
    for name, vals in sorted(values.items()):
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q = statistics.quantiles(vals, n=4)
            spread = f"{(q[2] - q[0]) / abs(med):.4f}"
        else:
            spread = "-"
        third = f"{bounds[name] / 3:.4f}" if name in bounds else ""
        print(f"{name:34} {med:12.5g} {spread:>11} {third:>8}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
