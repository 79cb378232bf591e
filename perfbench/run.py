#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds
perfbench (the toka library from src/ plus the benchmark in perfbench/src) with
CMake into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that
variable is unset; later calls only rebuild what changed. Build output goes
to standard error, so the last line of standard output is always the
benchmark's result object. Exits non-zero, printing no result, when the build
or the run fails or a correctness check does not hold.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("wire_open", "wire_batch", "cluster_repl", "sim_push")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", allow_abbrev=False,
        description="Build and run the toka benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)  # exits 2 on unknown flags or bad values
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be within 1..600")
    return args


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def git_sha(root):
    """The checkout's commit, or "unknown" outside a git work tree. git may
    not look above the checkout for a repository."""
    if shutil.which("git") is None:
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def run_step(cmd, timeout, tmpdir):
    """Runs a build step with its output on stderr; False on failure. The
    compiler's temporary files stay inside the build directory."""
    os.makedirs(tmpdir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmpdir)
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, timeout=timeout).returncode == 0
    except (OSError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return False


def build(root):
    source = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "service", "server.hpp")):
        fail(f"the toka sources are missing under {root}/src; run from a checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    tmpdir = os.path.join(build_dir, "tmp")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_step(["cmake", "-S", source, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S, tmpdir):
            fail("configure failed")
    if not run_step(["cmake", "--build", build_dir, "--target", "perfbench",
                     "-j", jobs], BUILD_TIMEOUT_S, tmpdir):
        fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main(argv):
    args = parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    binary = build(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha(root)]
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"the run did not finish within {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        # Keep the benchmark's diagnostics, but never a result line.
        sys.stderr.write(out)
        fail(f"the run failed (exit code {proc.returncode})")
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
