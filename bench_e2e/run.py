#!/usr/bin/env python3
"""Builds bench_e2e from the checkout's sources and runs one workload.

    python3 bench_e2e/run.py --workload tenants --seed 1 --seconds 30 --trace 0

Run from the root of an AD-PROM checkout. The first run configures and
builds the benchmark (and the library under src/) into $CARGO_TARGET_DIR,
default .bench_build; later runs rebuild only what changed. Every argument
but --workload goes to the benchmark unchanged. It prints one
"workload metric value unit" line per metric and, as its last line, the
JSON result object; it exits non-zero when an output is wrong.

    --workload all      runs every workload of BENCHMARK.json, each in its
                        own process
    --smoke             shortened phases, every check on
    --trace-out PATH    with --trace 1: write the traced pass as Chrome
                        trace-event JSON
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configures (once) and builds bench_e2e; returns the binary path."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    if not any(os.path.exists(os.path.join(build_dir, name))
               for name in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "bench_e2e")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    args, rest = parser.parse_known_args()
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    else:
        workloads = [args.workload]

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print("bench_e2e: build failed: %s" % error, file=sys.stderr)
        return 1
    status = 0
    for workload in workloads:
        sys.stdout.flush()
        command = [binary, "--workload", workload] + rest
        status = subprocess.run(command, cwd=ROOT).returncode or status
    return status


if __name__ == "__main__":
    sys.exit(main())
