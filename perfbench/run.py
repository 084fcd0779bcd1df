#!/usr/bin/env python3
"""Build and run the Menos end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload trunk_compute --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (and the library sources it
compiles) into the build directory: $CARGO_TARGET_DIR if set, else
.bench_build. Build output goes to stderr; stdout is the benchmark's own
report, whose last line is the JSON result. Per-run records and Chrome traces
are written to .bench_out/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "menos_perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "menos_perfbench")


def commit_id():
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    env = dict(os.environ)
    env.setdefault("MENOS_BENCH_COMMIT", commit_id())
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
