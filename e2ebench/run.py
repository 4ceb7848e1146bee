#!/usr/bin/env python3
"""Build the end-to-end benchmark from this checkout and run one workload.

    python3 e2ebench/run.py --workload rap_fleet --seed 1 --seconds 10 --trace 0

Run from the root of a RAP-Track checkout. The first call configures and
builds the release measurement build (library + e2ebench binary) under
.bench_build/e2ebench (or $CARGO_TARGET_DIR/e2ebench); later calls only let
the build tool confirm it is up to date. Build output goes to stderr so the
benchmark's result stays the last line of stdout. Every argument is passed
through to the binary; traced runs (--trace 1) also write their spans to
.bench_build/e2ebench-traces/<workload>.spans.jsonl.
"""
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        sys.exit("error: e2ebench must run from a RAP-Track checkout (no src/)")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            [
                "cmake", "-S", HERE, "-B", build_dir,
                "-DCMAKE_BUILD_TYPE=Release", "-DRAP_RELEASE=ON",
            ],
            stdout=sys.stderr, check=True,
        )
    binary = os.path.join(build_dir, "e2ebench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs],
        stdout=sys.stderr, check=True,
    )
    if os.path.getmtime(binary) != before:
        # A run straight after compiling measured up to 2x slow (write-back
        # of the build output); let the machine settle first.
        os.sync()
        time.sleep(10)
    return binary


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_root = os.path.join(ROOT, target)
    try:
        binary = build(os.path.join(build_root, "e2ebench"))
    except subprocess.CalledProcessError as error:
        sys.exit(f"error: building e2ebench failed ({error})")
    args = sys.argv[1:]
    if "--trace-out" not in args:
        traces = os.path.join(build_root, "e2ebench-traces")
        os.makedirs(traces, exist_ok=True)
        args += ["--trace-out", traces]
    sys.exit(subprocess.run([binary] + args).returncode)


if __name__ == "__main__":
    main()
