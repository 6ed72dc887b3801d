#!/usr/bin/env python3
"""End-to-end benchmark of webre: builds the benchmark, then runs one workload.

Usage, from the root of the source tree:

    python3 perfbench/run.py --workload <batch_convert|serve_read|serve_ingest>
                             --seed N --seconds S --trace 0|1

The benchmark is a CMake project of its own (perfbench/CMakeLists.txt)
that compiles the repository's libraries from source into .bench_build
(or $CARGO_TARGET_DIR when set) with CMAKE_BUILD_TYPE=Release. Build
output goes to stderr; stdout carries the benchmark's report, whose last
line is one JSON object {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
and writes a Chrome trace under .bench_out/. The metric set, the
workloads and why each was chosen are listed in BENCHMARK.json; the
development and held-out seeds are in perfbench/seeds.json.

Exits non-zero when the build fails, when a correctness check fails, or
when the sources are not next to perfbench/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(HERE)


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "-j", jobs,
                   "--target", "webre_bench"]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        done = subprocess.run(["git", "-C", SOURCE_ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv):
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "src", "CMakeLists.txt")):
        log("the webre sources (src/) are not next to perfbench/; nothing to build")
        return 2
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(build_dir)
    if not build(build_dir):
        log("build failed")
        return 3
    env = dict(os.environ, PERFBENCH_GIT_SHA=git_sha())
    binary = os.path.join(build_dir, "webre_bench")
    return subprocess.run([binary] + argv, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
