#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
benchmark binary (perfbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later runs only rebuild what changed.  The binary's
output is passed through; its last line is the JSON result.  Spans of a
traced run are written next to the build, under traces/.
"""

import argparse
import fcntl
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170  # the binary; building is not counted against it


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    # Concurrent runs in one checkout build once, in turn.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            steps = []
            if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                              "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
            steps.append(["cmake", "--build", build_dir, "--parallel",
                          str(os.cpu_count() or 1)])
            for step in steps:
                try:
                    done = subprocess.run(step, stdout=log,
                                          stderr=subprocess.STDOUT)
                except FileNotFoundError:
                    fail("cmake not found", 3)
                if done.returncode != 0:
                    log.flush()
                    with open(log_path) as text:
                        sys.stderr.write("".join(text.readlines()[-30:]))
                    fail(f"build failed (see {log_path})", 3)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1", 2)

    root = os.getcwd()
    for needed in ("src", "perfbench/CMakeLists.txt"):
        if not os.path.exists(os.path.join(root, needed)):
            fail(f"run from the root of a checkout: {needed} is missing", 2)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(root, build_dir)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, f"{args.workload}-{args.seed}.csv")]
    sys.stdout.flush()
    child = subprocess.Popen(command)
    try:
        code = child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    sys.exit(code)


if __name__ == "__main__":
    main()
