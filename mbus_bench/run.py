#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload (or all of them).

Run from the root of a checkout:

    python3 mbus_bench/run.py --workload tables --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ (CMake, Release); the first run configures
and compiles the libraries, mbusd and mbus_bench, later runs only relink what
changed. Build output goes to stderr, so the last line of standard output is
the benchmark's JSON result. `--workload all` runs every workload, each in
its own process, one after another.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["tables", "simulate", "serve_light", "serve_mixed"]


def build():
    """Configure (once) and build; returns the benchmark binary's path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "mbus_bench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            sys.exit(f"mbus_bench: build step failed: {' '.join(step)}")
    return os.path.join(BUILD, "mbus_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    binary = build()
    status = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        sys.stdout.flush()
        done = subprocess.run(
            [binary, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--workdir", os.path.join(".bench_build", "run")],
            cwd=ROOT)
        status = status or done.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
