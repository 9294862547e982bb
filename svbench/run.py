#!/usr/bin/env python3
"""Builds the two-clock benchmark from source and runs one workload.

    python3 svbench/run.py --workload large-swap --seed 1 --seconds 15 --trace 0

Every argument is passed to the svbench binary (see README.md). The build
goes to .bench_build/svbench under the repository root, or under
$CARGO_TARGET_DIR when that is set; build output goes to stderr so that the
last line of stdout stays the binary's JSON result. With --trace 1 the
traced replay's spans are written next to the build as a Perfetto file.
"""
import argparse
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "svbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("svbench: simulator sources not found at %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print("svbench: build failed: %s" % " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload", default="")
    parser.add_argument("--seed", default="0")
    parser.add_argument("--trace", default="0")
    known, _ = parser.parse_known_args()

    out = build_dir()
    if not build(out):
        return 1
    command = [os.path.join(out, "svbench")] + sys.argv[1:]
    if known.trace == "1" and "--trace-out" not in sys.argv:
        name = re.sub(r"[^A-Za-z0-9_-]", "_",
                      "trace-%s-seed%s" % (known.workload, known.seed))
        name += ".json"
        command += ["--trace-out", os.path.join(out, name)]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
