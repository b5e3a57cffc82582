#!/usr/bin/env python3
"""Steadiness check: repeat each workload and print the spread of every
end-to-end metric against its bound.

    python3 perfbench/steady.py [--runs 10] [--workloads decide,cli]

Runs run.py once per seed (1 to --runs) for each workload, for
run_seconds from BENCHMARK.json, one process at a time, and prints for
every end-to-end metric its median, the distance between the first and
third quartile as a share of the median (the spread), the same spread of
the raw wall-clock figure where there is one, and the bound from
BENCHMARK.json.  A spread above a third of its bound is flagged.  All
runs of a workload must fail the same share of their operations.  The
figures are also written to perfbench/out/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds) -> tuple:
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    raw = next((json.loads(line[4:]) for line in lines
                if line.startswith("raw ")), {})
    raw["elapsed_s"] = time.monotonic() - start
    return json.loads(lines[-1]), raw


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report, ok = {}, True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(1, args.runs + 1):
            result, raw = run_once(workload, seed, spec["run_seconds"])
            results.append((result, raw))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
                + f" (run took {raw['elapsed_s']:.1f} s)", flush=True)
        shares = {r["failed"] / r["attempted"] for r, _ in results}
        correct = all(r["correct"] for r, _ in results)
        print(f"{workload}: correct in every run: {correct}; "
              f"failed shares: {sorted(shares)}")
        ok = ok and correct and len(shares) == 1
        rows = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            raws = [raw[name] for _, raw in results if name in raw]
            s = spread(values)
            flag = "ok" if s <= bound / 3 else "UNSTEADY"
            ok = ok and flag == "ok"
            rows[name] = {"median": statistics.median(values), "spread": s,
                          "raw_spread": spread(raws) if len(raws) > 1 else None,
                          "bound": bound, "values": values}
            raw_text = (f"{rows[name]['raw_spread']:7.2%}"
                        if rows[name]["raw_spread"] is not None else "      -")
            print(f"  {name:16s} median {rows[name]['median']:10.4g}  "
                  f"spread {s:7.2%}  raw {raw_text}  bound {bound:.0%}  {flag}")
        rows["elapsed_s"] = [raw["elapsed_s"] for _, raw in results]
        report[workload] = rows
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
