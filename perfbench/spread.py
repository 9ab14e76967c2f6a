#!/usr/bin/env python3
"""Steadiness check: runs the benchmark over several seeds and reports, per
end-to-end metric, the median and the quartile spread as a share of the median
(the number BENCHMARK.json's bounds are judged against).

    python3 perfbench/spread.py --workloads migrate_churn,hog_spread \\
        [--seeds 1-10] [--seconds S] [--trace 0]

--seconds defaults to BENCHMARK.json's run_seconds.

Run from the repository root. Exits 1 if any run fails its gate.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: gate failed")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(args.seeds)} seeds")
        for name, xs in values.items():
            spread = stats.relative_spread(xs) if len(xs) > 1 and stats.median(xs) else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"  {name:34s} median {stats.median(xs):>14.6g}  spread {spread:8.4f}"
                  f"  bound {bound if bound is not None else '-'}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
