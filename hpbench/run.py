#!/usr/bin/env python3
"""Builds and runs the hyperpath end-to-end benchmark.

    python3 hpbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hpbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The benchmark (hpbench.cpp) and the library
sources under src/ are compiled into $CARGO_TARGET_DIR/hpbench, or
.bench_build/hpbench when that variable is unset; an up-to-date build is
a no-op.  Build output goes to stderr, so the last line of stdout is the
benchmark's result object.  `--workload all` runs every workload, one
process each, and exits non-zero if any check failed.
"""

import argparse
import os
import signal
import subprocess
import sys

# The workloads of BENCHMARK.json, then two more that run by hand; the
# traced runs of the first two also trace the last two (see README.md).
WORKLOADS = ["oracle_phase_q24", "mat_phase_q16", "campaign_q10",
             "route_verify_q30"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and returns its exit code.  On
    timeout the whole group (make and compiler children included) is
    killed and reaped before the error propagates."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    """Configures (once) and builds the benchmark; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hpbench: library sources (src/) not found next to "
                 "hpbench/; run from a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "hpbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "hpbench",
                  "-j", jobs])
    # Compiler temporaries stay inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if run_group(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr,
                     stderr=sys.stderr, env=env) != 0:
            sys.exit("hpbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "hpbench")


def run_one(binary, workload, args):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    return run_group(cmd, RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    if args.workload != "all":
        return run_one(binary, args.workload, args)
    status = 0
    for workload in WORKLOADS:
        print(f"# workload {workload}", flush=True)
        code = run_one(binary, workload, args)
        if code != 0:
            print(f"# workload {workload} FAILED (exit {code})", flush=True)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
