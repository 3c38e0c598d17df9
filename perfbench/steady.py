"""Repeated-steadiness mode: one workload over several seeds.

    python3 perfbench/steady.py --workload map --seeds 1-10

Runs ``run.py`` once per seed (untraced, ``run_seconds`` from
``BENCHMARK.json``), then prints, for every end-to-end metric, the
median of the runs and the spread: the distance between the first and
third quartile (``statistics.quantiles(n=4)``) as a share of the
median.  A spread above the metric's bound in ``BENCHMARK.json`` fails
the run (exit 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list) -> tuple:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict = {name: [] for name in bounds}
    attempted: list = []
    for seed in seed_range(args.seeds):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            print(out.stderr, file=sys.stderr)
            return 1
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
            return 1
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        attempted.append(result["attempted"])
        print(f"seed {seed}: ops={attempted[-1]}, " + ", ".join(
            f"{n}={values[n][-1]:.4g}" for n in bounds), flush=True)
    ok = True
    for name, bound in bounds.items():
        median, share = spread(values[name])
        held = share <= bound
        ok &= held
        print(f"{args.workload:6s} {name:14s} median {median:10.4g}  "
              f"spread {share:6.3f}  bound {bound:.3f}  "
              f"{'ok' if held else 'OVER'}"
              f"{'' if share <= bound / 3 else '  (above a third)'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
