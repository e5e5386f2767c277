#!/usr/bin/env python3
"""Self-test of the benchmark: a tiny pass of every workload, and proof that
its checks can fail.

    python3 perfbench/selftest.py

Run from the root of a checkout (it builds like run.py). For each workload
it runs a tiny pass with the default seed, untraced and traced, and expects
a clean result whose digest matches the pin and whose metric names are
exactly those BENCHMARK.json lists. Then it corrupts the outputs on purpose:
a flipped digest bit must fail every digested operation, and one broken
accounting identity (a replica or a run that lost a packet) must fail
exactly one operation. Exits non-zero on the first surprise.
"""
import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def flexbench(binary, workload, seed, trace=0, mutate="none"):
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0,
                              trace=trace)
    code, lines = run.run_flexbench(binary, args,
                                    ["--size", "tiny", "--mutate", mutate])
    if code != 0 or not lines:
        raise AssertionError("flexbench exited with %d" % code)
    return run.parse_result(lines[-1]), "\n".join(lines)


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    binary = run.build()
    failures = []

    def check(name, cond, detail=""):
        print("%s %s%s" % ("PASS" if cond else "FAIL", name,
                           "" if cond else ": " + detail))
        if not cond:
            failures.append(name)

    for w in run.WORKLOADS:
        res, text = flexbench(binary, w, 1)
        check(w + " clean", res["correct"] and res["failed"] == 0,
              "failed %d of %d" % (res["failed"], res["attempted"]))
        check(w + " digest matches pin", "(matches the pin)" in text, text)
        check(w + " end-to-end names", set(res["metrics"]) == end_to_end,
              str(sorted(set(res["metrics"]) ^ end_to_end)))
        check(w + " end-to-end values positive",
              all(m["value"] > 0 for m in res["metrics"].values()))

        res, text = flexbench(binary, w, 1, trace=1)
        check(w + " traced clean", res["correct"] and res["failed"] == 0,
              "failed %d of %d" % (res["failed"], res["attempted"]))
        check(w + " traced digest matches pin", "(matches the pin)" in text)
        check(w + " per-layer names", set(res["metrics"]) == per_layer,
              str(sorted(set(res["metrics"]) ^ per_layer)))

        res, text = flexbench(binary, w, 1, mutate="digest")
        check(w + " perturbed digest caught",
              not res["correct"] and res["failed"] > 0 and
              "DIFFERS from the pin" in text,
              "failed %d of %d" % (res["failed"], res["attempted"]))

    # The accounting identity exists where packets do; seed 2 has no pin,
    # so only the per-operation invariants can catch the break.
    for w in ("mesh64_ftmesh_aot", "chaos16_campaign"):
        res, text = flexbench(binary, w, 2, mutate="accounting")
        check(w + " broken accounting caught",
              not res["correct"] and res["failed"] == 1 and
              "failed_frac = %g (1 of %d" % (1 / res["attempted"],
                                             res["attempted"]) in text,
              "failed %d of %d" % (res["failed"], res["attempted"]))

    print("self-test: %s" % ("FAILED: " + ", ".join(failures) if failures
                             else "all checks caught what they must"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
