#!/usr/bin/env python3
"""Build and run the host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --test      # the benchmark's own tests

The simulator library and the benchmark are built from source into
.bench_build/ (Release), then the perfbench binary runs with the given
arguments. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. A failed build exits nonzero and prints no
result.

--test runs perfbench_tests, then checks BENCHMARK.json against what the
binary prints: a short run of the TestSmall workload in each trace mode
must emit exactly the listed metrics, with the listed units.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
SPEC = os.path.join(HERE, "..", "BENCHMARK.json")


def build(target):
    """Configure once, then build target incrementally; True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", target, "-j4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            print(f"perfbench: build step failed: {' '.join(step)}",
                  file=sys.stderr)
            return False
    return True


def check_spec():
    """Emitted metrics match BENCHMARK.json; returns a list of problems."""
    with open(SPEC) as f:
        spec = json.load(f)
    problems = []
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = subprocess.run(
            [os.path.join(BUILD, "perfbench"), "--workload",
             "multihart4_trr", "--seed", "0", "--seconds", "1", "--trace",
             trace], capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            problems.append(f"--trace {trace} run failed: {out.stderr}")
            continue
        listed = {m["name"]: m["unit"] for m in spec[key]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if listed != emitted:
            problems.append(
                f"--trace {trace}: BENCHMARK.json {key} lists "
                f"{sorted(set(listed.items()) ^ set(emitted.items()))} "
                "differently from the binary")
    return problems


def main(argv):
    if argv == ["--test"]:
        if not build("perfbench_tests") or not build("perfbench"):
            return 1
        if subprocess.run([os.path.join(BUILD, "perfbench_tests")]).returncode:
            return 1
        problems = check_spec()
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        if not problems:
            print("BENCHMARK.json matches the emitted metrics")
        return 1 if problems else 0
    if not build("perfbench"):
        return 1
    return subprocess.run([os.path.join(BUILD, "perfbench")] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
