#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N --seconds S]
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The build tree is $CARGO_TARGET_DIR when
set, else .bench_build/ at the checkout root.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  A metric a workload does not exercise
(for example a convolution timing on the MLP workload) reads 0 there.
The exit code is non-zero when the build fails, when a correctness check
fails, or when the program's metrics do not match BENCHMARK.json.  --all
runs every workload untraced in turn and fails if any of them fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.abspath(target)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(cmd) + "\n")
        log.flush()
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=timeout)
    return proc.returncode


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the repository sources (src/) are missing next to perfbench/")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "perfbench-build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            code = run_logged(cmd, log_path, timeout=800)
        except subprocess.TimeoutExpired:
            fail("build timed out; see " + log_path)
        if code != 0:
            with open(log_path) as log:
                sys.stderr.write("".join(log.readlines()[-40:]))
            fail("build failed; see " + log_path)
    return out


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args()

    contract = load_contract()
    out = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if args.all:
        codes = []
        for workload in contract["workloads"]:
            print("== " + workload["name"], flush=True)
            codes.append(subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", workload["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds)]).returncode)
        sys.exit(max(codes))

    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(out, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-dir", trace_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        fail("the program printed no result (exit code %d)" % proc.returncode)

    expected = contract["per_layer" if args.trace else "end_to_end"]
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - {m["name"] for m in expected})
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown), 3)
    final = {}
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            if not args.trace:
                fail("end-to-end metric %s was not measured" % m["name"], 3)
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s"
                 % (m["name"], got["unit"], m["unit"]), 3)
        final[m["name"]] = got
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": final}))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
