#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench_driver).

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --self-test

The first form configures and builds perfbench/ (which builds the library
from the checkout's sources) under .bench_build/perfbench, runs one
workload and passes the driver's output through: the last line of stdout
is the result JSON, and the exit code is the driver's. Build output and
progress go to stderr. --workload all runs every workload in
BENCHMARK.json in turn and prints one result line per workload, each with
a "workload" key; it exits nonzero if any workload does.

--self-test runs every workload in BENCHMARK.json at tiny sizes, traced and
untraced, checks that every declared metric is emitted with its unit and
that traced and untraced runs print the same digests, and checks that a
forged digest or payload makes the driver fail.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no library sources under %s/src; run from a "
            "checkout of the repository" % ROOT)
        sys.exit(2)
    build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, build_root, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench_driver",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(build_dir, "perfbench_driver"), out_dir


def run_driver(driver, out_dir, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout, stderr)."""
    command = [driver, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--out-dir", out_dir] + list(extra)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def digests_of(stderr):
    return sorted(line for line in stderr.splitlines()
                  if line.startswith("digest "))


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_all(driver, out_dir, args):
    worst = 0
    for workload in [w["name"] for w in benchmark_spec()["workloads"]]:
        code, out, err = run_driver(driver, out_dir, workload, args.seed,
                                    args.seconds, args.trace)
        sys.stderr.write(err)
        result = result_of(out) or {"correct": False}
        print(json.dumps(dict(workload=workload, **result)), flush=True)
        worst = max(worst, code)
    return worst


def self_test(driver, out_dir):
    spec = benchmark_spec()
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        digests = {}
        for trace in (0, 1):
            code, out, err = run_driver(driver, out_dir, workload, 7, 0.5,
                                        trace, ["--tiny"])
            result = result_of(out)
            where = "%s --trace %d" % (workload, trace)
            if code != 0 or not result or not result["correct"]:
                problems.append("%s failed (exit %d)\n%s" % (where, code, err))
                continue
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != declared[trace]:
                problems.append("%s emits %s, BENCHMARK.json declares %s"
                                % (where, got, declared[trace]))
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s counts %s" % (where, result))
            digests[trace] = digests_of(err)
        if len(digests) == 2 and digests[0] != digests[1]:
            problems.append("%s: traced digests %s differ from untraced %s"
                            % (workload, digests[1], digests[0]))
        forge = "payload" if workload == "serve_mixed" else "digest"
        code, out, _ = run_driver(driver, out_dir, workload, 7, 0.5, 0,
                                  ["--tiny", "--forge", forge])
        result = result_of(out)
        caught = result and not result["correct"] and result["failed"]
        if code == 0 or not caught:
            problems.append("%s: a forged %s was not caught (exit %d)"
                            % (workload, forge, code))
        log("self-test %s: done" % workload)
    for problem in problems:
        log("SELF-TEST FAILURE: " + problem)
    log("self-test: %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and None in (args.workload, args.seed,
                                       args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    driver, out_dir = build()
    if args.self_test:
        return self_test(driver, out_dir)
    if args.workload == "all":
        return run_all(driver, out_dir, args)
    code, out, err = run_driver(driver, out_dir, args.workload, args.seed,
                                args.seconds, args.trace)
    sys.stderr.write(err)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
