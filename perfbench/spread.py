#!/usr/bin/env python3
"""Steadiness check: runs perfbench/run.py once per seed on one workload and
reports, for every metric, the median and the quartile spread
(Q3 - Q1) / median across the runs, next to the metric's bound from
BENCHMARK.json. A benchmark is steady when every spread (setup_s aside)
is below a third of its bound.

    python3 perfbench/spread.py --workload field_r24 --runs 10
    python3 perfbench/spread.py --workload fleet_lease --seeds 1,2,3 --trace 1
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seeds", default="",
                   help="comma-separated seeds (default 1..runs)")
    p.add_argument("--seconds", type=int, default=0,
                   help="run length (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = ([int(s) for s in args.seeds.split(",")] if args.seeds
             else list(range(1, args.runs + 1)))

    values = {}
    units = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True, cwd=ROOT)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print("seed %d: correct=%s failed=%d" % (seed, result["correct"],
                                                     result["failed"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, ", ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items()
            if k in bounds)), flush=True)

    steady = True
    print("\n%-28s %14s %10s %10s %8s" % ("metric", "median", "spread",
                                        "bound", "verdict"))
    for name, xs in values.items():
        med = statistics.median(xs)
        spread = 0.0
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / abs(med)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and name != "setup_s":
            ok = spread < bound / 3
            steady = steady and ok
            verdict = "ok" if ok else "WIDE"
        print("%-28s %14.6g %9.2f%% %10s %8s  %s" % (
            name, med, 100 * spread, "" if bound is None else bound, verdict,
            units[name]))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
