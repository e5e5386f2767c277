#!/usr/bin/env python3
"""Build flexbench from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first call configures and builds the
flexrouter library plus flexbench under .bench_build/perfbench
(RelWithDebInfo, the repository's default); later calls only check that
the build is current. The run itself is one process on one thread
(FLEXROUTER_THREADS=1). Standard output records the machine (nproc, CPU
model, load average) and the build (compiler, build type), then the
human-readable report of flexbench, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "flexbench")
WORKLOADS = ("mesh64_ftmesh_aot", "chaos16_campaign", "cert_k2")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build flexbench; output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no flexrouter sources at %s/src: run from the "
                           "root of a checkout" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "flexbench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BINARY


def machine():
    """One line describing where the numbers were taken."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    load = " ".join("%.2f" % x for x in os.getloadavg())
    return "machine: nproc=%d cpu=%r loadavg=%s" % (os.cpu_count() or 0,
                                                     model, load)


def run_flexbench(binary, args, extra=()):
    """Run flexbench; returns (exit code, stdout lines)."""
    env = dict(os.environ, FLEXROUTER_THREADS="1")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd + list(extra), stdout=subprocess.PIPE,
                          env=env, text=True, timeout=RUN_TIMEOUT_S)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(line):
    """Flexbench's last output line, checked against the result format."""
    res = json.loads(line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys are %s" % sorted(res))
    if not isinstance(res["attempted"], int) or res["attempted"] < 1:
        raise ValueError("attempted must be a whole number >= 1")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"}:
            raise ValueError("metric %s has keys %s" % (name, sorted(m)))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print("run.py: build failed: %s" % e, file=sys.stderr)
        return 1
    print(machine())
    code, lines = run_flexbench(binary, args)
    if code != 0 or not lines:
        print("run.py: flexbench exited with %d" % code, file=sys.stderr)
        return 1
    try:
        parse_result(lines[-1])
    except ValueError as e:
        print("run.py: malformed result: %s" % e, file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
