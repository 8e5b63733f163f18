#!/usr/bin/env python3
"""Builds prestocpp from source and runs one workload of its benchmark.

    python3 perfbench/run.py --workload etl|mixed|cluster --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds a
Release tree in $CARGO_TARGET_DIR (default .bench_build); later runs only
rebuild what changed. The benchmark binary runs in its own process group,
which is killed and waited for on every exit path, so no presto_worker
daemon outlives a run. The binary's report goes to stdout unchanged; its
last line is the JSON result. Without the repository's sources, or when
the build or the run fails, this exits non-zero without printing a result.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "Release"
RUN_LIMIT_S = 170  # a run must end within 180 s of its build
FIRST_RUN_LIMIT_S = 890  # ... and a run that builds within 900 s


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(1)


def git_commit():
    """HEAD of the checkout, read from .git directly; "none" outside git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """Short SHA-256 over the files the benchmark builds from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(build_dir, deadline):
    """Configures (once) and builds the benchmark, or rebuilds what changed."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target", "prestobench", "presto_worker"])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                result = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                        cwd=ROOT, timeout=max(1, deadline - time.time()))
            except subprocess.TimeoutExpired:
                fail("build timed out; see %s" % log_path)
            if result.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed; see %s" % log_path)


def group_alive(pgid):
    try:
        os.killpg(pgid, 0)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return True


def reap_group(pgid):
    """Kills whatever is left in the run's process group and waits for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    for _ in range(200):
        if not group_alive(pgid):
            return
        time.sleep(0.05)


def main():
    start = time.time()
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["etl", "mixed", "cluster"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("prestocpp sources (src/) not found next to perfbench/")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_dir, "perfbench")
    build(build_dir, start + FIRST_RUN_LIMIT_S)
    # The run's own limit starts after the build, so a rebuild of changed
    # sources in an existing tree does not eat into it.
    deadline = min(start + FIRST_RUN_LIMIT_S, time.time() + RUN_LIMIT_S)

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "prestobench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--worker-bin", os.path.join(build_dir, "prestocpp", "worker", "presto_worker"),
        "--out-dir", out_dir,
        "--build-type", BUILD_TYPE,
        "--source-id", "commit=%s,tree=%s" % (git_commit(), source_digest()),
    ]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT,
                             start_new_session=True, text=True)
    pgid = child.pid

    def on_signal(signo, _frame):
        reap_group(pgid)
        sys.exit(128 + signo)

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    try:
        stdout, _ = child.communicate(timeout=max(1, deadline - time.time()))
    except subprocess.TimeoutExpired:
        reap_group(pgid)
        child.wait()
        fail("run exceeded its time limit")
    reap_group(pgid)
    if child.returncode != 0:
        sys.stderr.write(stdout)
        fail("benchmark exited with code %d" % child.returncode)
    sys.stdout.write(stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
