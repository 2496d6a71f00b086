#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

Run from the root of a fasthist checkout:

    python3 perfbench/run.py --workload <fit_offline|ingest_zipf|query_mix> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental.  Build output goes to standard error, so the binary's
JSON result stays the last line of standard output.  Per-run result files
and span dumps land in <build dir>/out for perfbench/report.py.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no fasthist sources next to perfbench/")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    build_dir = os.path.join(os.path.abspath(build_root), "perfbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    args = sys.argv[1:]
    if "--self-test" not in args:
        args += ["--out-dir", out_dir]
    proc = subprocess.run([os.path.join(build_dir, "perfbench")] + args)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
