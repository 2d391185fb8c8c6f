"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/repeat.py --workload linear-grid --seeds 0-9 --out runs.json

Each run is an untraced run with run.py's defaults. For every metric it
prints the median, the quartiles (as ``statistics.quantiles(values, n=4)``
gives them), and the spread: the distance between the quartiles as a share
of the median. Runs go one at a time, so they never compete for cores.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from measure import spread
from run import spawn


def parse_seeds(text: str) -> list[int]:
    """'0-4' or '0,3,7' -> list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in parse_seeds(args.seeds):
        lines, result = spawn(args.workload, seed)
        digest = next((ln.split()[-1] for ln in lines if "row digest" in ln), "")
        runs.append({"seed": seed, "digest": digest, **result, "lines": lines})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} digest={digest[:16]}", flush=True)

    print(f"{'metric':<36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if len(values) < 2:
            break
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = spread(values) if median else float("nan")
        print(f"{name:<36} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {share:>8.4f}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
