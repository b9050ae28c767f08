#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a checkout. It
  1. builds and runs the C++ self-tests (tests/selftest.cpp): the p10
     minimum, the fold's interval algebra, and every correctness check
     failing on a one-ulp or off-by-one perturbation;
  2. runs every workload briefly, untraced and traced, and checks that the
     last output line parses, carries exactly correct/attempted/failed/
     metrics, and names every metric of BENCHMARK.json with its unit;
  3. checks that a directory holding only BENCHMARK.json and the benchmark's
     own files makes run.py fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("flow-local", "farm-remote", "farm-store", "exec-cosim")


def fail(msg):
    print("FAILED: " + msg)
    sys.exit(1)


def check_result(line, expected, what):
    try:
        result = json.loads(line)
    except ValueError:
        fail("%s: last line is not JSON: %r" % (what, line[:200]))
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (what, sorted(result)))
    if result["correct"] is not True:
        fail("%s: correct is %r" % (what, result["correct"]))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        fail("%s: attempted %r" % (what, result["attempted"]))
    if not (isinstance(result["failed"], int) and result["failed"] == 0):
        fail("%s: failed %r" % (what, result["failed"]))
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, unit mismatch %s" % (
            what, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
            sorted(n for n in set(got) & set(want) if got[n] != want[n])))
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail("%s: metric %s has no numeric value" % (what, name))


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")

    # 1. C++ self-tests (run.py configures the build directory).
    if subprocess.call([sys.executable, os.path.join(HERE, "run.py"), "--workload", "farm-store",
                        "--seed", "1", "--seconds", "0.1", "--trace", "0"],
                       stdout=subprocess.DEVNULL) != 0:
        fail("build or first run")
    if subprocess.call(["cmake", "--build", build_dir, "--target", "perfbench_selftest"],
                       stdout=subprocess.DEVNULL) != 0:
        fail("building perfbench_selftest")
    if subprocess.call([os.path.join(build_dir, "perfbench_selftest")]) != 0:
        fail("C++ self-tests")

    # 2. Output format of every workload in both modes.
    for w in WORKLOADS:
        for trace, expected in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            what = "%s --trace %s" % (w, trace)
            proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                                   "--seed", "7", "--seconds", "1",
                                   "--trace", trace], stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                fail("%s exited %d" % (what, proc.returncode))
            lines = proc.stdout.strip().splitlines()
            check_result(lines[-1] if lines else "", expected, what)
            print("ok  %s" % what)

    # 3. Without the repository's sources there is nothing to build.
    bare = os.path.join(build_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(p, os.path.join(bare, p))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = subprocess.run([sys.executable, os.path.join(bare, "perfbench", "run.py"),
                           "--workload", "flow-local", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a bare directory must fail without a result (exit %d)" % proc.returncode)
    print("ok  bare directory fails without a result")
    print("perfbench self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
