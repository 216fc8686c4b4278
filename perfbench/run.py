#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload paper|serve-live|campaign-10x \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
perfbench/ (which compiles the libraries under src/) into
$CARGO_TARGET_DIR, default .bench_build; later runs only re-check the
build.  The benchmark's report goes to stdout and its last line is the
result JSON.  A traced run also writes a Chrome trace-event file under
the build directory.  Exits non-zero, without a result line, when the
build fails or the run crashes or times out.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper", "serve-live", "campaign-10x")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configure (once) and build the benchmark; return the binary path."""
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(os.path.join(out, ".lock"), "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
                         + generator)
        # Compiler temporaries stay inside the build directory too.
        tmp = os.path.join(out, "tmp")
        os.makedirs(tmp, exist_ok=True)
        env = dict(os.environ, TMPDIR=tmp)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT, env=env).returncode != 0:
                # A failed configure must not leave a cache that skips it next time.
                if step[1] == "-S":
                    cache = os.path.join(out, "CMakeCache.txt")
                    if os.path.exists(cache):
                        os.remove(cache)
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
                return None
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="executor size for campaign-10x (0: min(4, nproc))")
    parser.add_argument("--shrink", type=int, default=1,
                        help="divide campaign-10x trial counts (self-tests)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    out = build_dir()
    binary = build(out)
    if binary is None:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--shrink", str(args.shrink)]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, "%s-%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: %s timed out after %d s\n" % (args.workload, RUN_TIMEOUT_S))
        return 1
    lines = proc.stdout.decode().splitlines()
    if proc.returncode < 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("".join(line + "\n" for line in lines if not line.startswith("{")))
        sys.stderr.write("perfbench: %s exited with %d and no result\n"
                         % (args.workload, proc.returncode))
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
