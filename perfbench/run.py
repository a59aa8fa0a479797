#!/usr/bin/env python3
"""Repository benchmark: builds the workload binary and runs one workload.

    python3 perfbench/run.py --workload audit|census|replay [--seed N]
                             [--seconds S] [--trace 0|1]

Run from the repository root. The first run configures and builds the
library and the workload binary from source into .bench_build/perfbench
(a few minutes); later runs rebuild only what changed. --trace 0 prints the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Every metric is printed with
its unit, then a detail line (host fingerprint, quartiles, sample counts),
then the result as one JSON object on the last line. The exit code is 0
only when every correctness gate passed.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import benchstats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BINARY = os.path.join(BUILD_DIR, "perfbench_workloads")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run_bounded(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it, so no compiler or workload process outlives this script."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    return proc.returncode, out


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    generated = [os.path.join(BUILD_DIR, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        code, _ = run_bounded(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if code != 0:
            raise RuntimeError("build step failed: %s" % " ".join(cmd))


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["audit", "census", "replay"])
    parser.add_argument("--seed", type=int, default=benchstats.GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        build()
        os.makedirs(WORK_DIR, exist_ok=True)
        code, out = run_bounded(
            [BINARY, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(float(seconds)), "--trace", str(args.trace),
             "--work-dir", WORK_DIR],
            RUN_TIMEOUT_S, subprocess.PIPE)
        if code != 0:
            raise RuntimeError("workload binary exited with code %d" % code)
        raw = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, OSError, ValueError, IndexError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1

    if args.trace:
        computed, detail, attempted, failed = benchstats.per_layer(raw)
        gate_failures = benchstats.trace_gates(raw)
        wanted = spec["per_layer"]
    else:
        computed, detail, attempted, failed = benchstats.end_to_end(raw)
        gate_failures = benchstats.time_gates(raw)
        wanted = spec["end_to_end"]
    try:
        metrics = benchstats.select_metrics(computed, wanted)
    except (KeyError, ValueError) as e:
        gate_failures.append(str(e))
        metrics = {}

    for name, m in metrics.items():
        print("%-34s %16.6f %s" % (name, m["value"], m["unit"]))
    for f in gate_failures:
        print("GATE FAILED: %s" % f)
    detail.update(workload=args.workload, seed=args.seed, seconds=seconds,
                  trace=args.trace, gates_failed=gate_failures,
                  host=benchstats.host_fingerprint(ROOT, raw))
    print("detail: " + json.dumps(detail, separators=(",", ":")))
    correct = not gate_failures
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    problems = benchstats.validate_result(result, wanted)
    if problems:
        print("perfbench: malformed result: %s" % "; ".join(problems),
              file=sys.stderr)
        return 1
    print(json.dumps(result, separators=(",", ":")))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
