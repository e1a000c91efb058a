#!/usr/bin/env python3
"""Fig-20 replay benchmark entry point.

    python3 perfbench/run.py --workload fig20-4k-sns --seed 1 --seconds 30 --trace 0

Run from the repository root. The first call configures and builds the
replay program (perfbench/CMakeLists.txt) into .bench_build/; later calls
only re-check the build. The program's stdout is passed through, so the last
line printed is the result JSON. Traced runs (--trace 1) also write their
spans to .bench_out/spans-<workload>-seed<seed>.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD, "fig20_replay")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
sys.path.insert(0, HERE)
import test_api_surface  # noqa: E402


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout carries only the result.
            rc = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step failed: %s" % e)
        if rc != 0:
            fail("build step exited %d: %s" % (rc, " ".join(cmd)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    bad = test_api_surface.violations(HERE)
    if bad:
        fail("benchmark sources use simulator API slated for removal:\n  " +
             "\n  ".join(bad))

    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed == golden["default_seed"]:
        digest = golden["digests"].get(args.workload)
        if digest is None:
            fail("no golden digest recorded for workload %s" % args.workload)
        cmd += ["--expect-digest", ",".join(digest)]
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        cmd += ["--spans", os.path.join(
            OUT, "spans-%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    try:
        rc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("fig20_replay failed: %s" % e)
    sys.exit(rc)


if __name__ == "__main__":
    main()
