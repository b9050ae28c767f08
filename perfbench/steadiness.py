#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

    python3 perfbench/steadiness.py

Run from the root of a checkout. It makes two sets of ten runs of every
workload, each run as long as BENCHMARK.json's run_seconds; set 0 uses seeds
1-10 and set 1 seeds 1001-1010. Each round runs every workload once in both
sets, so the workloads and the two sets interleave and share the host's
slow and fast phases. Per run it prints each end-to-end metric and the share
of operations within 1.25x of that run's p10 (a run spent in the host's slow
mode shows a low share). Per set it prints, for every workload and metric,
the median, the quartiles and the spread (interquartile range over the
median) -- the figures the bounds in BENCHMARK.json are derived from -- and
how far the second set's median lies from the first's, in the metric's worse
direction.
"""

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flow-local", "farm-remote", "farm-store", "exec-cosim")
RUNS = 10
SETS = 2
LOWER_IS_BETTER = {"setup_s": True, "points_per_s": False, "op_p10_ms": True,
                   "peak_rss_mb": True}


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
    if not result["correct"]:
        raise SystemExit("incorrect output: %s" % " ".join(cmd))
    return result, detail


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main():
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]

    values = {}  # (set, workload, metric) -> [values]
    for r in range(RUNS):
        for s in range(SETS):
            for w in WORKLOADS:
                seed = 1 + 1000 * s + r
                result, detail = one_run(w, seed, seconds)
                cells = []
                for name, m in result["metrics"].items():
                    values.setdefault((s, w, name), []).append(m["value"])
                    cells.append("%s=%.6g" % (name, m["value"]))
                print("set %d run %2d %-12s seed %5d fast_share=%.2f ops=%d wall=%.1fs %s"
                      % (s, r, w, seed, detail.get("fast_share", 0), detail.get("ops", 0),
                         detail.get("wall_s", 0), " ".join(cells)), flush=True)

    print()
    print("%-3s %-12s %-13s %12s %12s %12s %8s %8s" %
          ("set", "workload", "metric", "q1", "median", "q3", "spread", "drift"))
    for w in WORKLOADS:
        for name in LOWER_IS_BETTER:
            base = None
            for s in range(SETS):
                v = values.get((s, w, name))
                if not v:
                    continue
                q1, med, q3, sp = spread(v)
                drift = ""
                if base is None:
                    base = med
                else:
                    worse = (med - base) / base if LOWER_IS_BETTER[name] else (base - med) / base
                    drift = "%+.3f" % worse
                print("%-3d %-12s %-13s %12.6g %12.6g %12.6g %8.3f %8s" %
                      (s, w, name, q1, med, q3, sp, drift))
    return 0


if __name__ == "__main__":
    sys.exit(main())
