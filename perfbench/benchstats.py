"""Statistics, correctness gates and the result schema of the benchmark.

Pure functions shared by run.py (one run), compare.py (paired A/B runs) and
test_benchstats.py (their self-tests). Nothing here runs the program.
"""

import hashlib
import math
import os
import statistics
import subprocess

# Payload fingerprints at the paper-scale seed. AUDIT is the repository's
# golden campaign fingerprint (62 providers x 3 vantage points). CENSUS is
# the 4096-provider scaled census (1000 subscribers per provider, catalog
# and campaign seed 20181031); jobs 1 and jobs 4 both produce it.
GOLDEN_SEED = 20181031
PIN_AUDIT = "b18430c525c24657"
PIN_CENSUS = "e5f8f0b9d81038e6"

# Shards in one replay pass: every evaluated provider, one of them evicted.
REPLAY_SHARDS = 62

# Percentiles tried, highest first, when choosing a reported tail.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10

# Pairs an A/B comparison runs, and the fewest that may ever decide a gain.
AB_PAIRS = 10

# Host fields that must agree before two results may be compared.
HOST_KEYS = ("nproc", "cpu_model", "build_type", "compiler")

RESULT_KEYS = ("correct", "attempted", "failed", "metrics")


# --- statistics ----------------------------------------------------------------

def quartiles(values):
    """First quartile, median, third quartile (statistics.quantiles, n=4)."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def rank(n, p):
    """1-based nearest rank of the p-th percentile in a sample of n."""
    return min(n, max(1, math.ceil(round(p * n / 100.0, 9))))


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it
    in a sample of n, or None when even the lowest has fewer."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            return p
    return None


def nearest_rank(values, p):
    return sorted(values)[rank(len(values), p) - 1]


def pass_tail(walls):
    """(label, value) of the tail reported as pass_s_p95: the 95th
    percentile when at least ten passes lie beyond it (200 or more passes),
    otherwise the slowest pass."""
    p = tail_percentile(len(walls))
    if p is not None and p >= 95.0:
        return ("p95", nearest_rank(walls, 95.0))
    return ("max", max(walls))


# --- paired A/B rules ------------------------------------------------------------

def is_better(a, b, better):
    return a < b if better == "lower" else a > b


def pair_wins(base, change, better):
    """(wins, losses, ties) of the change over the base, pair by pair."""
    if len(base) != len(change):
        raise ValueError("pair_wins: sides have different run counts")
    wins = sum(1 for b, c in zip(base, change) if is_better(c, b, better))
    losses = sum(1 for b, c in zip(base, change) if is_better(b, c, better))
    return wins, losses, len(base) - wins - losses


def is_gain(base, change, better):
    """A gain: at least AB_PAIRS pairs, the change wins at least nine tenths
    of them (ties count for neither side), and the medians differ by more
    than the base's interquartile range."""
    if len(base) < AB_PAIRS:
        return False
    wins, _, _ = pair_wins(base, change, better)
    if wins * 10 < 9 * len(base):
        return False
    q1, _, q3 = quartiles(base)
    mb, mc = statistics.median(base), statistics.median(change)
    return is_better(mc, mb, better) and abs(mc - mb) > q3 - q1


def verdict(base, change, better, bound):
    """One of gain / regression / unresolved / no change for one metric on
    one workload, under the metric's bound from BENCHMARK.json."""
    if is_gain(base, change, better):
        return "gain"
    all_better = all(is_better(c, b, better) for c in change for b in base)
    if max(relative_spread(base), relative_spread(change)) > bound and not all_better:
        return "unresolved"
    mb, mc = statistics.median(base), statistics.median(change)
    worse_by = (mc - mb) / mb if better == "lower" else (mb - mc) / mb
    if worse_by > bound:
        return "regression"
    return "no change"


# --- correctness gates -------------------------------------------------------------

def pass_payload_failure(raw, p):
    """Why pass `p` of a trace-0 result fails its payload check against its
    reference, or None when it passes."""
    wl = raw["workload"]
    if wl == "audit" and p["fp"] != p["ref_fp"]:
        return "payload %s != jobs-4 reference %s" % (p["fp"], p["ref_fp"])
    if wl == "census" and p["ref_mismatches"]:
        return "rows differ from recomputed shards"
    if wl == "replay" and p["fp"] != raw["audit_fp"]:
        return "payload %s != audit payload %s" % (p["fp"], raw["audit_fp"])
    return None


def time_gates(raw):
    """Failures (strings) of a trace-0 workload-binary result; empty means correct."""
    wl = raw["workload"]
    fails = []
    for p in raw["passes"]:
        tag = "%s pass seed %d" % (wl, p["seed"])
        if p["failed"]:
            fails.append("%s: %d failed shards" % (tag, p["failed"]))
        payload = pass_payload_failure(raw, p)
        if payload:
            fails.append("%s: %s" % (tag, payload))
        if wl == "replay" and (p["hits"], p["misses"], p["stored"]) != (REPLAY_SHARDS - 1, 1, 1):
            fails.append("%s: store hits/misses/stored %d/%d/%d, expected %d/1/1"
                         % (tag, p["hits"], p["misses"], p["stored"], REPLAY_SHARDS - 1))
    if wl == "audit" and raw["golden_fp"] != PIN_AUDIT:
        fails.append("audit golden %s != pinned %s" % (raw["golden_fp"], PIN_AUDIT))
    if wl == "census" and raw["golden_fp"] != PIN_CENSUS:
        fails.append("census golden %s != pinned %s" % (raw["golden_fp"], PIN_CENSUS))
    if wl == "replay":
        for fp in raw["fill_fps"]:
            if fp != raw["audit_fp"]:
                fails.append("replay cold fill %s != audit payload %s" % (fp, raw["audit_fp"]))
        if raw["seed"] == GOLDEN_SEED and raw["audit_fp"] != PIN_AUDIT:
            fails.append("replay audit reference %s != pinned %s" % (raw["audit_fp"], PIN_AUDIT))
    return fails


def trace_gates(raw):
    """Failures of a trace-1 workload-binary result: traced payload equals untraced,
    counts repeat exactly, and the golden pin at the golden seed."""
    fails = []
    pairs = raw["pairs"]
    for i, p in enumerate(pairs):
        if p["traced_fp"] != p["untraced_fp"]:
            fails.append("traced pass %d payload %s != untraced %s"
                         % (i, p["traced_fp"], p["untraced_fp"]))
    for name in raw["count_metrics"]:
        values = [p["metrics"][name] for p in pairs]
        if len(set(values)) != 1:
            fails.append("count %s does not repeat: %s" % (name, values))
    if raw["seed"] == GOLDEN_SEED:
        pin = PIN_CENSUS if raw["workload"] == "census" else PIN_AUDIT
        for i, p in enumerate(pairs):
            if p["untraced_fp"] != pin:
                fails.append("pass %d payload %s != pinned %s" % (i, p["untraced_fp"], pin))
    return fails


# --- metrics -----------------------------------------------------------------------

def peak_rss_kb(raw):
    """Median over passes of each pass's own peak RSS; where the peak could
    not be reset per pass, the process's peak after the timed window."""
    per_pass = [p["rss_kb"] for p in raw["passes"]]
    return statistics.median(per_pass) if all(per_pass) else raw["peak_rss_kb"]


def end_to_end(raw):
    """(metrics, detail, attempted, failed) of a trace-0 workload-binary result."""
    passes = raw["passes"]
    walls = [p["wall_s"] for p in passes]
    attempted = sum(p["shards"] for p in passes)
    failed = sum(p["shards"] if pass_payload_failure(raw, p) else p["failed"]
                 for p in passes)
    tail_label, tail = pass_tail(walls)
    q1, q2, q3 = quartiles(walls)
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "pass_s_p50": q2,
        "pass_s_p95": tail,
        "shards_per_s": (attempted - failed) / sum(walls),
        "cpu_s_per_pass": statistics.median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": peak_rss_kb(raw) / 1024.0,
        "shard_ok_ratio": (attempted - failed) / attempted,
    }
    tail_p = tail_percentile(len(walls))
    detail = {
        "passes": len(walls),
        "pass_s_quartiles": [q1, q2, q3],
        "pass_s_p95_is": tail_label,
        "pass_s_tail": [tail_p, nearest_rank(walls, tail_p)] if tail_p else None,
        "setup_reps": len(raw["setup_s"]),
        "jobs": raw["jobs"],
    }
    return metrics, detail, attempted, failed


def per_layer(raw):
    """(metrics, detail, attempted, failed) of a trace-1 workload-binary result."""
    pairs = raw["pairs"]
    counts = set(raw["count_metrics"])
    metrics = {}
    for name in pairs[0]["metrics"]:
        values = [p["metrics"][name] for p in pairs]
        metrics[name] = values[0] if name in counts else statistics.median(values)
    metrics.update(raw["micro"])
    traced = statistics.median([p["traced_s"] for p in pairs])
    untraced = statistics.median([p["untraced_s"] for p in pairs])
    cpu = statistics.median([p["untraced_cpu_s"] for p in pairs])
    metrics["trace.overhead_ratio"] = traced / untraced
    metrics["util.pool_cpu_util"] = cpu / (untraced * raw["jobs"])
    mismatched = sum(1 for p in pairs if p["traced_fp"] != p["untraced_fp"])
    detail = {"pairs": len(pairs), "traced_pass_s": traced,
              "untraced_pass_s": untraced, "jobs": raw["jobs"]}
    return metrics, detail, 2 * len(pairs), mismatched


def select_metrics(computed, spec):
    """The metrics named in `spec` (BENCHMARK.json entries), in its order,
    as {name: {"value", "unit"}}; raises KeyError naming a missing one."""
    out = {}
    for m in spec:
        if m["name"] not in computed:
            raise KeyError("metric %s was not measured" % m["name"])
        value = computed[m["name"]]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError("metric %s is not a finite number" % m["name"])
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def validate_result(result, spec_metrics):
    """Problems with a final result line against the output contract."""
    problems = []
    if not isinstance(result, dict) or tuple(sorted(result)) != tuple(sorted(RESULT_KEYS)):
        return ["result keys must be exactly %s" % (RESULT_KEYS,)]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s must be a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    names = [m["name"] for m in spec_metrics]
    if sorted(result["metrics"]) != sorted(names):
        problems.append("metrics must be exactly %s" % names)
    for m in spec_metrics:
        got = result["metrics"].get(m["name"])
        if not isinstance(got, dict) or sorted(got) != ["unit", "value"]:
            problems.append("metric %s must have exactly value and unit" % m["name"])
        elif got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            problems.append("metric %s has a wrong unit or value" % m["name"])
    return problems


# --- host fingerprint ----------------------------------------------------------------

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def tree_digest(root, paths):
    """SHA-256 over the files under `paths` (relative to root, files or
    directories; names and contents, caches skipped)."""
    h = hashlib.sha256()
    for top in paths:
        full = os.path.join(root, top)
        walk = [(os.path.dirname(full), [], [os.path.basename(full)])] \
            if os.path.isfile(full) else os.walk(full)
        for dirpath, dirnames, filenames in walk:
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_revision(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def host_fingerprint(root, raw):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "revision": git_revision(root),
        # Names the measured code where a checkout has no git history.
        "source": tree_digest(root, ["src", "perfbench"])[:16],
    }


def same_host(a, b):
    """Host fields in which two fingerprints differ (empty when comparable)."""
    return [k for k in HOST_KEYS if a.get(k) != b.get(k)]
