#!/usr/bin/env python3
"""End-to-end benchmark of the gtdl checker, the GML baseline, fdld and
trace ingestion (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload check_corpus --seed 1 \
        --seconds 10 --trace 0

Builds the analysis libraries, fdld and the harness from source (Release)
into $CARGO_TARGET_DIR, or .bench_build when unset, then runs the harness.
The last line of standard output is the JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".bench_work"  # generated inputs, one directory per run
WORKLOADS = ("check_corpus", "baseline_unroll", "daemon_edits", "ingest_sets")


def build(build_dir):
    """Configures and builds the harness and fdld; returns their paths."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no gtdl sources next to perfbench/; "
                 "run from a full checkout")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "perfbench-build.log")
    with open(log_path, "w") as log:
        for cmd in (
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "-j", "4",
             "--target", "gtdl_perfbench", "fdld"],
        ):
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                log.close()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.exit("perfbench: build failed (log: %s)" % log_path)
    return (os.path.join(build_dir, "gtdl_perfbench"),
            os.path.join(build_dir, "gtdl", "gtdl", "cli", "fdld"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; for the benchmark's own tests")
    parser.add_argument("--flip", action="store_true",
                        help="invert one expected verdict (self-test)")
    args = parser.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    harness, fdld = build(build_dir)
    cmd = [harness, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", os.path.join(HERE, "inputs"),
           "--work", os.path.join(WORK, "%s-%d" % (args.workload, os.getpid())),
           "--fdld", fdld]
    if args.smoke:
        cmd.append("--smoke")
    if args.flip:
        cmd.append("--flip")
    sys.stdout.flush()
    code = subprocess.call(cmd)
    try:
        os.rmdir(WORK)  # only once no other run is using it
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
