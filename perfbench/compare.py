#!/usr/bin/env python3
"""Paired A/B comparison of two checkouts on the repository benchmark.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

BASE_DIR and CHANGE_DIR are checkouts of the parent commit and the change.
Both must carry the same perfbench/ and BENCHMARK.json: a change that
edits the benchmark cannot be judged by it. Every workload of
BENCHMARK.json runs 10 pairs; pair k runs both sides at seed 20181031 + k,
the base first in even pairs and the change first in odd ones.
Every result records its host; results from different hosts, compilers or
build types are refused.

One row per (metric, workload) gives each side's median and quartiles, the
change's pair wins and a verdict:
  gain        the change wins at least 9 of every 10 pairs and the medians
              differ by more than the base's interquartile range
  regression  the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json
  unresolved  either side's interquartile range, as a share of its median,
              is wider than the bound (and the change does not read better
              on every run)
  no change   otherwise
Exit code 0 when no row is a regression, unresolved or failed run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def run_once(root, workload, seed):
    """One trace-0 run in `root`: (result, detail) or raises RuntimeError."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=1200)
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(l[len("detail: "):]) for l in lines
                   if l.startswith("detail: ")), None)
    if proc.returncode != 0 or not lines or detail is None:
        raise RuntimeError("%s: %s seed %d failed (exit %d)\n%s"
                           % (root, workload, seed, proc.returncode,
                              proc.stderr[-2000:]))
    return json.loads(lines[-1]), detail


def check_hosts(details):
    first = details[0]["host"]
    for d in details[1:]:
        diff = benchstats.same_host(first, d["host"])
        if diff:
            raise RuntimeError("refusing to compare results from different "
                               "hosts: %s differ (%s vs %s)"
                               % (", ".join(diff), first, d["host"]))


def report(spec, runs, workloads):
    """Rows of (workload, metric, base q, change q, wins, verdict)."""
    rows = []
    for wl in workloads:
        for m in spec["end_to_end"]:
            base = [r["metrics"][m["name"]]["value"] for r in runs[wl]["base"]]
            change = [r["metrics"][m["name"]]["value"] for r in runs[wl]["change"]]
            wins, losses, ties = benchstats.pair_wins(base, change, m["better"])
            rows.append({
                "workload": wl, "metric": m["name"], "unit": m["unit"],
                "base": benchstats.quartiles(base),
                "change": benchstats.quartiles(change),
                "wins": wins, "losses": losses, "ties": ties,
                "verdict": benchstats.verdict(base, change, m["better"], m["bound"]),
            })
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args()

    base, change = os.path.abspath(args.base), os.path.abspath(args.change)
    bench_files = ["BENCHMARK.json", "perfbench"]
    if benchstats.tree_digest(base, bench_files) != benchstats.tree_digest(change, bench_files):
        print("refusing: the two checkouts carry different benchmarks",
              file=sys.stderr)
        return 2
    with open(os.path.join(base, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {wl: {"base": [], "change": []} for wl in workloads}
    details = []
    try:
        for wl in workloads:
            for k in range(benchstats.AB_PAIRS):
                seed = benchstats.GOLDEN_SEED + k
                order = [("base", base), ("change", change)]
                if k % 2:
                    order.reverse()
                for side, root in order:
                    result, detail = run_once(root, wl, seed)
                    if not result["correct"]:
                        raise RuntimeError("%s %s seed %d: correctness gate failed"
                                           % (side, wl, seed))
                    runs[wl][side].append(result)
                    details.append(detail)
        check_hosts(details)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print("compare: %s" % e, file=sys.stderr)
        return 2

    rows = report(spec, runs, workloads)
    print("%-8s %-16s %-34s %-34s %-7s %s" % (
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]",
        "wins", "verdict"))
    for r in rows:
        fmt = lambda q: "%.6g [%.6g, %.6g] %s" % (q[1], q[0], q[2], r["unit"])
        print("%-8s %-16s %-34s %-34s %2d/%-4d %s" % (
            r["workload"], r["metric"], fmt(r["base"]), fmt(r["change"]),
            r["wins"], benchstats.AB_PAIRS, r["verdict"]))
    bad = [r for r in rows if r["verdict"] in ("regression", "unresolved")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
