#!/usr/bin/env python3
"""Build and run the scheduler benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload table1|certify|serve \\
        --seed N --seconds S --trace 0|1 [--smoke]

The first run configures and builds perfbench/ (the scheduler library
from src/ plus the benchmark's own sources, Release) into
.bench_build/perfbench; later runs only re-check the build. The last
line of standard output is the workload's JSON result; build output
and diagnostics go to standard error. The exit code is non-zero when
the build fails, the checkout has no library sources, an output check
fails, or the result does not name exactly the metrics BENCHMARK.json
lists.

    python3 perfbench/run.py --smoke

with no workload runs every workload once in smoke mode, traced and
untraced, and checks each result; perfbench/test_smoke.py does that.
"""

import argparse
import ctypes
import json
import os
import subprocess
import sys

WORKLOADS = ("table1", "certify", "serve")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
# A run takes --seconds plus a few seconds of set-up and checks; a hung
# binary is killed so the command still ends within three minutes.
RUN_TIMEOUT_S = 170
# personality(2) flag that turns off address-space randomisation.
ADDR_NO_RANDOMIZE = 0x0040000


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def fixed_layout():
    """Run the child with the same memory layout every time: under
    address-space randomisation, each process lands its heap and stacks
    differently, which moves its cache behaviour and so its timings from
    run to run."""
    libc = ctypes.CDLL(None, use_errno=True)
    current = libc.personality(0xFFFFFFFF)
    if current != -1:
        libc.personality(current | ADDR_NO_RANDOMIZE)


def run(workload, seed, seconds, trace, smoke):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd += ["--spans-out",
                os.path.join(BUILD, "spans-%s.tsv" % workload)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S,
                              preexec_fn=fixed_layout)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed no result (exit %d)" % (workload, done.returncode))
    result = json.loads(lines[-1])
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        fail("%s metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (workload, sorted(set(want) - set(got)),
                sorted(set(got) - set(want))))
    return result, done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke")

    build()
    if args.workload is not None:
        result, code = run(args.workload, args.seed, args.seconds,
                           args.trace == 1, args.smoke)
        print(json.dumps(result))
        sys.exit(code)

    for workload in WORKLOADS:
        for trace in (False, True):
            result, code = run(workload, args.seed, 1, trace, True)
            if code != 0 or not result["correct"] or result["failed"]:
                fail("smoke %s trace=%d failed: %s"
                     % (workload, trace, json.dumps(result)))
            print("smoke %s trace=%d ok (%d items)"
                  % (workload, trace, result["attempted"]))


if __name__ == "__main__":
    main()
