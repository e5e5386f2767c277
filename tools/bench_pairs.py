#!/usr/bin/env python3
"""Same-machine benchmark compare: alternating pairs of two checkouts.

    python3 tools/bench_pairs.py BASE HEAD --workload <name>
        [--pairs 10] [--seconds 10] [--seed 1]

BASE and HEAD are the roots of two checkouts (say, the parent commit and a
change). Pair i runs `perfbench/run.py --workload W --seed S+i --seconds T`
in each checkout, base first on even pairs and head first on odd ones, so
drift on a shared machine falls on both sides alike. Each checkout builds
its own flexbench on its first run (outside the timed part).

For every end-to-end metric of this script's checkout's BENCHMARK.json it
prints each side's median and quartiles, the pairs the head won (ties count
for neither side), the median of the per-pair head/base ratios, the
metric's bound, whether the head median is worse than the base median by
more than that bound, and the gain verdict (gain_verdict): "gain" when the
head won at least nine tenths of the pairs and its median beats the base
median by more than the base's interquartile spread. Then it prints each
side's failed share of the operations attempted and its runs whose result
was wrong (a digest or accounting check failed). Last, per pair and in
total, whether the base and head runs of a seed printed the same
`<workload>/digest = <hex>` line: flexbench pins a digest at one seed only,
so this is what shows that a change kept the results at the others. It is
a report; the exit status does not depend on it.

Exit status: 0 when no head median is worse than the base median by more
than its bound and the head fails no larger share of operations and no
more runs than the base; 1 otherwise; 2 when a run could not be made
(build or run failure, or a malformed result line).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class RunError(Exception):
    pass


def parse_digest(lines, workload):
    """The hex digest a run printed on its `<workload>/digest = <hex>` line,
    or None when it printed none."""
    prefix = workload + "/digest = "
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix):].split()[0]
    return None


def digest_report(seeds, base, head):
    """Lines saying, per pair and in total, whether the base and head
    digests (None when missing) match at each pair's seed."""
    lines, same = [], 0
    for seed, b, h in zip(seeds, base, head):
        match = b is not None and b == h
        same += match
        lines.append("digest seed %d: base %s head %s %s" %
                     (seed, b or "missing", h or "missing",
                      "same" if match else "DIFFERENT"))
    lines.append("digests: base = head at %d/%d seeds" % (same, len(seeds)))
    return lines


def run_once(checkout, workload, seed, seconds):
    """One perfbench/run.py pass; returns its result line as a dict and its
    digest (parse_digest)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("%s: run.py exited with %d\n%s" %
                       (checkout, proc.returncode, proc.stderr[-2000:]))
    try:
        return json.loads(lines[-1]), parse_digest(lines, workload)
    except ValueError as e:
        raise RunError("%s: malformed result line: %s" % (checkout, e))


def quartiles(xs):
    """(q1, median, q3) of a non-empty sample."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def gain_verdict(base, head, better):
    """The gain rule for one metric over paired samples (base[i] and
    head[i] ran as pair i): the head wins at least nine tenths of the pairs
    run, ties counting for neither side, and its median beats the base
    median by more than the base's interquartile spread (q3 - q1).
    Returns (pairs the head won, whether that is a gain)."""
    wins = sum(1 for b, h in zip(base, head)
               if (h < b if better == "lower" else h > b))
    bq1, bmed, bq3 = quartiles(base)
    hmed = quartiles(head)[1]
    gap = bmed - hmed if better == "lower" else hmed - bmed
    return wins, 10 * wins >= 9 * len(base) and gap > bq3 - bq1


def worse_by(base, head, better):
    """How much worse the head is than the base, as a share of the base
    (negative when it is better)."""
    if base == 0:
        return 0.0
    change = (head - base) / base
    return change if better == "lower" else -change


def fmt(x):
    return "%.4g" % x


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base", help="root of the base checkout")
    ap.add_argument("head", help="root of the head checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1,
                    help="seed of the first pair; pair i uses seed + i")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        ap.error("--pairs and --seconds must be >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error("unknown workload %r" % args.workload)
    metrics = spec["end_to_end"]

    sides = {"base": args.base, "head": args.head}
    results = {"base": [], "head": []}
    digests = {"base": [], "head": []}
    try:
        for i in range(args.pairs):
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                res, digest = run_once(sides[side], args.workload,
                                       args.seed + i, args.seconds)
                results[side].append(res)
                digests[side].append(digest)
            last = [results[side][-1]["metrics"]["work_per_s"]["value"]
                    for side in ("base", "head")]
            print("pair %d/%d (seed %d, %s first): work_per_s base %s "
                  "head %s" % (i + 1, args.pairs, args.seed + i, order[0],
                               fmt(last[0]), fmt(last[1])), flush=True)
    except (RunError, KeyError) as e:
        print("bench_pairs: %s" % e, file=sys.stderr)
        return 2

    print("\n%s: %d pairs, seeds %d-%d, --seconds %d" %
          (args.workload, args.pairs, args.seed, args.seed + args.pairs - 1,
           args.seconds))
    print("%-12s %-5s %-6s %-26s %-26s %-6s %-7s %-6s %-7s %s" %
          ("metric", "unit", "better", "base median [q1-q3]",
           "head median [q1-q3]", "wins", "ratio", "bound", "bound?",
           "gain?"))
    regressed = False
    for m in metrics:
        name, better, bound = m["name"], m["better"], m["bound"]
        try:
            base = [r["metrics"][name]["value"] for r in results["base"]]
            head = [r["metrics"][name]["value"] for r in results["head"]]
        except KeyError:
            print("bench_pairs: a run did not report %s" % name,
                  file=sys.stderr)
            return 2
        bq, hq = quartiles(base), quartiles(head)
        wins, gain = gain_verdict(base, head, better)
        ratios = [h / b for b, h in zip(base, head) if b != 0]
        ratio = statistics.median(ratios) if ratios else float("nan")
        bad = worse_by(bq[1], hq[1], better) > bound
        regressed |= bad
        print("%-12s %-5s %-6s %-26s %-26s %-6s %-7s %-6s %-7s %s" %
              (name, m["unit"], better,
               "%s [%s-%s]" % (fmt(bq[1]), fmt(bq[0]), fmt(bq[2])),
               "%s [%s-%s]" % (fmt(hq[1]), fmt(hq[0]), fmt(hq[2])),
               "%d/%d" % (wins, args.pairs), fmt(ratio), fmt(bound),
               "WORSE" if bad else "ok", "gain" if gain else "no gain"))

    share, wrong = {}, {}
    for side in ("base", "head"):
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        share[side] = failed / attempted if attempted else 0.0
        wrong[side] = sum(1 for r in results[side] if not r["correct"])
        print("%s failed share: %d/%d; runs with a wrong result: %d" %
              (side, failed, attempted, wrong[side]))
    if share["head"] > share["base"] or wrong["head"] > wrong["base"]:
        print("head fails more than base")
        regressed = True
    seeds = [args.seed + i for i in range(args.pairs)]
    for line in digest_report(seeds, digests["base"], digests["head"]):
        print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
