#!/usr/bin/env python3
"""Wall-clock benchmark for move decisions and serving.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench/ (which compiles ../src) under the build directory named
by CARGO_TARGET_DIR (default .bench_build), runs the named workload
(block-flagship, cpu-seq or serve-tenants) and passes the runner's output
through; the last line is the JSON result. --emit-expected (with --trace 0)
writes the reference results for the seed to perfbench/expected/ for
committing.
"""
import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    log_path = os.path.join(build_dir, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target",
                  "perfbench_runner", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_runner")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--emit-expected", action="store_true")
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no program sources next to perfbench/ (expected ../src)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = target if os.path.isabs(target) else os.path.join(ROOT, target)
    build_dir = os.path.join(build_root, "perfbench")
    runner = build(build_dir)

    expected_dir = os.path.join(HERE, "expected", args.workload)
    if args.emit_expected:
        os.makedirs(expected_dir, exist_ok=True)
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--expected", os.path.join(expected_dir,
                                      "seed-%d.txt" % args.seed)]
    if args.emit_expected:
        cmd.append("--emit-expected")
    if args.trace == "1":
        spans_dir = os.path.join(build_root, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans_dir, "%s-seed%d.jsonl" % (args.workload, args.seed))]

    # The runner pins exec threads and warp backend itself; a stray knob in
    # the caller's environment must not reach it either way.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("GPU_MCTS_")}
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT)

    def stop(signum, frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("runner exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
