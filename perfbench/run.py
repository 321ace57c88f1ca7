#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The driver is built with dune (release
profile, no shared cache) into .bench_build/, then run with the same
arguments. Its last line of standard output is the JSON result; this
script checks that the result carries exactly the metrics BENCHMARK.json
declares for the chosen --trace mode before passing it on. See
perfbench/README.md for the workloads and metrics.
"""

import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def main(argv):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "dune-project")):
        fail("no dune-project in %s: the program's sources are missing" % root)
    build_dir = os.path.join(root, ".bench_build")
    build = subprocess.run(
        ["dune", "build", "--root", root, "--profile", "release",
         "--cache", "disabled", "--build-dir", build_dir,
         "./perfbench/main.exe"],
        cwd=root, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        fail("build failed (exit %d)" % build.returncode)
    exe = os.path.join(build_dir, "default", "perfbench", "main.exe")
    try:
        run = subprocess.run([exe] + argv, cwd=root, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    # usage errors and failed runs keep the driver's exit code
    if run.returncode != 0:
        sys.stdout.write(run.stdout)
        sys.exit(run.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last output line is not JSON: %r" % lines[-1])
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    trace = argv[argv.index("--trace") + 1] == "1"
    declared = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if "--metric" not in argv and set(result["metrics"]) != declared:
        fail("metrics differ from BENCHMARK.json: missing %s, undeclared %s" % (
            sorted(declared - set(result["metrics"])),
            sorted(set(result["metrics"]) - declared)))
    sys.stdout.write(run.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main(sys.argv[1:])
