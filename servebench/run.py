#!/usr/bin/env python3
"""Builds sorel_serve and the servebench load generator, then runs one
benchmark workload.

    python3 servebench/run.py --workload ingest --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR, or to
.bench_build when that is unset; each run's data dir is made (and removed)
under <build>/runs. The last line of stdout is the result as one JSON
object. Exits non-zero, with no result line, when the build, a request or
the correctness gate fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest", "set_batch", "churn")
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configured = subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr)
        if configured.returncode != 0:
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs,
         "--target", "servebench", "sorel_serve"],
        stdout=sys.stderr)
    return built.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    # Relative paths keep the unix socket path short.
    build_dir = os.path.relpath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        print("servebench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "servebench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--server", os.path.join(build_dir, "sorel_serve"),
           "--work-dir", os.path.join(build_dir, "runs")]
    if args.trace:
        cmd += ["--spans",
                os.path.join(build_dir, "spans-%s.csv" % args.workload)]
    # Own process group, so a timeout also stops the sorel_serve it started.
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("servebench: timed out", file=sys.stderr)
        return 1
    lines = out.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        return proc.returncode or 1
    print("\n".join(lines[:-1]))
    # The result carries exactly the metrics BENCHMARK.json declares for
    # this mode; servebench prints more (the p99s) on the lines above.
    with open("BENCHMARK.json") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    result = json.loads(lines[-1])
    measured = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print("servebench: no value for " + ", ".join(missing),
              file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: measured[m["name"]] for m in declared}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
