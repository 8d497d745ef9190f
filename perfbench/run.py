#!/usr/bin/env python3
"""SAFELOC repository benchmark: build from source, then run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and builds
perfbench/ (which pulls in the repository's own CMake targets) into
.bench_build/perfbench; later runs only re-check the build. Workload
parameters (offered rates) are frozen in perfbench/workloads.json.
Build output and the program's progress lines go to stderr; stdout carries
the metric lines and, last, the one-line JSON result.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("command failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)["workloads"]
    if args.workload not in workloads:
        fail("unknown workload " + args.workload)
    params = workloads[args.workload]

    # The benchmark builds the program it measures from this checkout.
    for needed in ("CMakeLists.txt", os.path.join("src", "engine", "engine.h"),
                   os.path.join("tools", "shard_server.cpp")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("run from the root of a SAFELOC source checkout "
                 "(missing " + needed + ")")

    # Pinned environment: no SAFELOC_* knob from the caller reaches the
    # program, and nothing is written outside the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SAFELOC_")}
    env["CCACHE_DIR"] = os.path.join(ROOT, ".bench_build", "ccache")
    run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
              env)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], env)
    exe = os.path.join(BUILD, "perfbench")
    run_quiet([exe, "--self-test"], env)

    run_dir = os.path.join(BUILD, "run-%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    out_dir = os.path.join(BUILD, "traces")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--lo-qps", repr(params["lo_qps"]),
           "--hi-qps", repr(params["hi_qps"]),
           "--saturate-qps", repr(params["saturate_qps"]),
           "--shard-exe", os.path.join(BUILD, "shard_server"),
           "--run-dir", run_dir, "--out-dir", out_dir]
    # Own process group, so a timeout also reaps the shard_server children.
    proc = subprocess.Popen(cmd, env=env, process_group=0)
    try:
        returncode = proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("workload timed out")
    finally:
        for name in os.listdir(run_dir):
            os.remove(os.path.join(run_dir, name))
        os.rmdir(run_dir)
    sys.exit(returncode)


if __name__ == "__main__":
    main()
