#!/usr/bin/env python3
"""The iplkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program under test is the iplkit
package in its `src` directory.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A line starting with "raw " before it gives the same end-to-end figures
from uncorrected wall time, for reference only.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types

import refclock

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("decide", "universe", "algebra", "cli")
SETUP_REPEATS = 3
CLI_PROBES = 5
BENCH_MODULES = ("workload", "families", "checkers", "tracing", "wl_decide",
                 "wl_universe", "wl_algebra", "wl_cli")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _purge() -> None:
    """Forget iplkit and every benchmark module that holds its classes, so
    the next import starts from scratch with cold module caches."""
    for name in list(sys.modules):
        if name == "iplkit" or name.startswith("iplkit.") \
                or name in BENCH_MODULES:
            del sys.modules[name]
    gc.collect()


class Run:
    """One workload in one process: set-up, measured passes, metrics."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.ctx = types.SimpleNamespace(root=ROOT, src=SRC, out_dir=OUT_DIR,
                                         tracer=None)
        self.problems: list = []
        self.failures: dict = {}

    def _check(self, op, out) -> None:
        try:
            found = op.check(out)
        except Exception as exc:  # a check that cannot read the answer
            found = [f"check raised {exc!r}"]
        if found and len(self.problems) < 20:
            self.problems += [f"{op.name}: {p}" for p in found[:3]]

    def setup(self):
        """Import, input generation and one warm-up pass, each step timed
        between reference calls.  Returns (ops, corrected s, raw s)."""
        _purge()
        iplkit, raw, corr = refclock.timed(importlib.import_module, "iplkit")
        if not os.path.abspath(iplkit.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"perfbench: imported iplkit from {iplkit.__file__},"
                             f" not from {SRC}")
        module = importlib.import_module("wl_" + self.workload)
        ops, r, c = refclock.timed(module.build, self.seed, self.ctx)
        raw, corr = raw + r, corr + c
        for op in ops:
            try:
                out, r, c = refclock.timed(op.run)
            except Exception:
                continue
            raw, corr = raw + r, corr + c
            self._check(op, out)
        return ops, corr / 1e9, raw / 1e9

    def passes(self, ops, seconds: float, tracer=None):
        """Whole passes over the operation list until `seconds` have gone
        by (at least one).  Returns per-operation corrected and raw samples
        in ns, and the number of operations attempted and failed."""
        corr = [[] for _ in ops]
        raw = [[] for _ in ops]
        attempted = failed = 0
        deadline = time.monotonic() + seconds
        done = 0
        while done == 0 or time.monotonic() < deadline:
            for i, op in enumerate(ops):
                attempted += 1
                if tracer is not None:
                    tracer.begin_op()
                try:
                    out, r, c = refclock.timed(op.run)
                except Exception as exc:
                    failed += 1
                    self.failures.setdefault(op.name, repr(exc)[:200])
                    if tracer is not None:
                        tracer.end_op(1.0)
                    continue
                if tracer is not None:
                    tracer.end_op(c / r if r else 1.0)
                corr[i].append(c)
                raw[i].append(r)
                self._check(op, out)
            done += 1
        return corr, raw, attempted, failed


def hd_quantile(values, q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta((n+1)q, (n+1)(1-q))
    weighted mean of all order statistics.  It averages the operations
    ranked near the quantile instead of taking one, so one operation's
    noise moves it less than it moves the plain sample quantile."""
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(steps):   # midpoint rule over [i/n, (i+1)/n]
            x = (i + (k + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def latency_metrics(samples) -> dict:
    """Quantiles over the operations' median times, and operations per
    second of busy time at those medians."""
    med = [statistics.median(s) for s in samples if s]
    return {
        "ops_per_s": (len(med) / (sum(med) / 1e9), "1/s"),
        "latency_p50_ms": (hd_quantile(med, 0.5) / 1e6, "ms"),
        "latency_p90_ms": (hd_quantile(med, 0.9) / 1e6, "ms"),
    }


def peak_rss_mb(workload: str) -> float:
    """Peak resident set of the process that does the work: this one, or
    for cli the largest CLI child."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def cli_probes(ctx) -> dict:
    """cli.import_ms: a child that only imports iplkit, timed inside the
    child between reference calls; cli.startup_ms: `iplkit parse p0` as a
    whole process.  Neither depends on the workload, so every traced run
    measures them."""
    import wl_cli
    env = wl_cli.child_env(SRC)
    imports, startups = [], []
    for _ in range(CLI_PROBES):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "cli_child.py"), "--import-only"],
            cwd=ROOT, env=env, capture_output=True, text=True, check=True)
        imports.append(float(out.stdout.split()[-1]))
        _, _, c = refclock.timed(wl_cli.run_child, ctx, ["parse", "p0"])
        startups.append(c)
    return {"cli.import_ms": (statistics.median(imports) / 1e6, "ms"),
            "cli.startup_ms": (statistics.median(startups) / 1e6, "ms")}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "iplkit", "__init__.py")):
        print(f"perfbench: no iplkit package under {SRC}; run from the root "
              "of an iplkit checkout", file=sys.stderr)
        return 2
    # Bytecode first, so set-up time does not depend on __pycache__.
    compileall.compile_dir(os.path.join(SRC, "iplkit"), quiet=1)
    compileall.compile_dir(HERE, quiet=1, maxlevels=0)
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)

    run = Run(args.workload, args.seed)
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        ops, corr_s, raw_s = run.setup()
        setups.append((corr_s, raw_s))
    gc.collect()

    if not args.trace:
        corr, raw, attempted, failed = run.passes(ops, args.seconds)
        metrics = latency_metrics(corr)
        metrics["setup_s"] = (statistics.median(s[0] for s in setups), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(args.workload), "MB")
        raw_metrics = latency_metrics(raw)
        raw_metrics["setup_s"] = (statistics.median(s[1] for s in setups), "s")
        passes = attempted // len(ops)
    else:
        import tracing
        corr, _, attempted, failed = run.passes(ops, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install(tracing.LIBRARY_SPECS + tracing.WORKLOAD_SPECS)
        run.ctx.tracer = tracer
        traced, _, t_attempted, t_failed = run.passes(ops, args.seconds / 2,
                                                      tracer)
        attempted += t_attempted
        failed += t_failed
        run.ctx.tracer = None
        metrics = tracer.metrics()
        untraced_sum = sum(statistics.median(s) for s in corr if s)
        traced_sum = sum(statistics.median(s) for s in traced if s)
        metrics["trace.overhead_pct"] = (
            100.0 * (traced_sum / untraced_sum - 1.0), "%")
        metrics.update(cli_probes(run.ctx))
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
        tracer.dump(spans_path)
        raw_metrics = None
        passes = None

    for op_name, reason in run.failures.items():
        print(f"failed: {op_name}: {reason}")
    for problem in run.problems:
        print(f"wrong: {problem}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations"
          f" per pass, {attempted} attempted, {failed} failed"
          + (f", {passes} passes" if passes else ""))
    if raw_metrics is not None:
        print("raw " + json.dumps({k: round(v, 6) for k, (v, _) in
                                   raw_metrics.items()}, sort_keys=True))
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
