#!/usr/bin/env python3
"""Self-tests of the benchmark's own code (no build, no workload run).

    python3 perfbench/test_benchstats.py
"""

import copy
import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats as bs  # noqa: E402


def spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return json.load(f)


def audit_raw(fp=bs.PIN_AUDIT, passes=3):
    return {
        "workload": "audit", "mode": "time", "seed": 7, "jobs": 1,
        "build_type": "RelWithDebInfo", "compiler": "gcc",
        "setup_s": [0.003, 0.002, 0.004],
        "passes": [{"seed": 7 + i, "wall_s": 1.5 + 0.01 * i, "cpu_s": 1.5,
                    "shards": 62, "failed": 0, "rss_kb": 18000 + i,
                    "fp": fp, "ref_fp": fp}
                   for i in range(passes)],
        "peak_rss_kb": 19000, "golden_fp": bs.PIN_AUDIT,
    }


def replay_raw():
    raw = audit_raw()
    raw["workload"] = "replay"
    raw["fill_fps"] = [bs.PIN_AUDIT] * 3
    raw["audit_fp"] = bs.PIN_AUDIT
    del raw["golden_fp"]
    for p in raw["passes"]:
        del p["ref_fp"]
        p.update(hits=61, misses=1, stored=1)
    return raw


def trace_raw(workload="audit", seed=bs.GOLDEN_SEED):
    pin = bs.PIN_CENSUS if workload == "census" else bs.PIN_AUDIT
    metrics = {"dns.lookups": 168502.0, "shard.ms_p50": 25.0}
    return {
        "workload": workload, "mode": "trace", "seed": seed, "jobs": 1,
        "build_type": "RelWithDebInfo", "compiler": "gcc",
        "pairs": [{"traced_s": 1.6 + i * 0.01, "untraced_s": 1.5,
                   "untraced_cpu_s": 1.5, "traced_fp": pin, "untraced_fp": pin,
                   "metrics": dict(metrics, **{"shard.ms_p50": 25.0 + i})}
                  for i in range(3)],
        "count_metrics": ["dns.lookups"],
        "micro": {"dns.resolve_ns": 3000.0},
    }


class Percentiles(unittest.TestCase):
    def test_tail_needs_ten_samples_beyond(self):
        self.assertIsNone(bs.tail_percentile(10))
        self.assertIsNone(bs.tail_percentile(39))
        self.assertEqual(bs.tail_percentile(40), 75.0)
        self.assertEqual(bs.tail_percentile(100), 90.0)
        self.assertEqual(bs.tail_percentile(199), 90.0)
        self.assertEqual(bs.tail_percentile(200), 95.0)
        self.assertEqual(bs.tail_percentile(1000), 99.0)
        self.assertEqual(bs.tail_percentile(10000), 99.9)

    def test_samples_beyond_counts_strictly_above(self):
        self.assertEqual(bs.samples_beyond(200, 95.0), 10)
        self.assertEqual(bs.samples_beyond(199, 95.0), 9)
        self.assertEqual(bs.samples_beyond(1, 50.0), 0)

    def test_pass_tail_is_p95_only_with_200_passes(self):
        walls = [float(i) for i in range(1, 201)]
        self.assertEqual(bs.pass_tail(walls), ("p95", 190.0))
        self.assertEqual(bs.pass_tail(walls[:199]), ("max", 199.0))
        self.assertEqual(bs.pass_tail([3.0, 1.0, 2.0]), ("max", 3.0))

    def test_nearest_rank(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(bs.nearest_rank(values, 50), 3.0)
        self.assertEqual(bs.nearest_rank(values, 100), 5.0)
        self.assertEqual(bs.nearest_rank(values, 0), 1.0)


class Quartiles(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
        self.assertEqual(list(bs.quartiles(values)),
                         statistics.quantiles(values, n=4))

    def test_single_value(self):
        self.assertEqual(bs.quartiles([2.0]), (2.0, 2.0, 2.0))

    def test_relative_spread(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bs.relative_spread(values), (q3 - q1) / q2)


class PairRule(unittest.TestCase):
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]

    def test_nine_of_ten_wins_and_gap_beyond_iqr_is_gain(self):
        change = [b - 0.1 for b in self.base]
        change[0] = self.base[0] + 0.01  # one lost pair
        self.assertEqual(bs.pair_wins(self.base, change, "lower"), (9, 1, 0))
        self.assertTrue(bs.is_gain(self.base, change, "lower"))
        self.assertEqual(bs.verdict(self.base, change, "lower", 0.05), "gain")

    def test_eight_of_ten_is_not_gain(self):
        change = [b - 0.1 for b in self.base]
        change[0] = change[1] = 2.0
        self.assertFalse(bs.is_gain(self.base, change, "lower"))

    def test_ties_count_for_neither_side(self):
        change = list(self.base)
        self.assertEqual(bs.pair_wins(self.base, change, "lower"), (0, 0, 10))
        self.assertFalse(bs.is_gain(self.base, change, "lower"))

    def test_gap_within_base_iqr_is_not_gain(self):
        change = [b - 0.001 for b in self.base]
        self.assertEqual(bs.pair_wins(self.base, change, "lower")[0], 10)
        self.assertFalse(bs.is_gain(self.base, change, "lower"))

    def test_higher_is_better(self):
        change = [b + 0.2 for b in self.base]
        self.assertTrue(bs.is_gain(self.base, change, "higher"))
        self.assertEqual(bs.verdict(self.base, change, "lower", 0.05), "regression")

    def test_wide_spread_is_unresolved(self):
        noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
        self.assertEqual(bs.verdict(self.base, noisy, "lower", 0.05), "unresolved")

    def test_within_bound_is_no_change(self):
        change = [b * 1.01 for b in self.base]
        self.assertEqual(bs.verdict(self.base, change, "lower", 0.05), "no change")

    def test_fewer_than_ten_pairs_is_never_gain(self):
        change = [b - 0.1 for b in self.base]
        self.assertTrue(bs.is_gain(self.base, change, "lower"))
        self.assertFalse(bs.is_gain(self.base[:9], change[:9], "lower"))
        self.assertFalse(bs.is_gain(self.base[:2], change[:2], "lower"))

    def test_unequal_sides_rejected(self):
        with self.assertRaises(ValueError):
            bs.pair_wins([1.0], [1.0, 2.0], "lower")


class Gates(unittest.TestCase):
    def test_clean_audit_passes(self):
        self.assertEqual(bs.time_gates(audit_raw()), [])

    def test_audit_reference_mismatch_fails(self):
        raw = audit_raw()
        raw["passes"][1]["ref_fp"] = "0" * 16
        self.assertEqual(len(bs.time_gates(raw)), 1)
        _, _, attempted, failed = bs.end_to_end(raw)
        self.assertEqual((attempted, failed), (186, 62))

    def test_payload_check_shared_by_gates_and_failed_count(self):
        raw = replay_raw()
        raw["passes"][2]["fp"] = "6" * 16
        self.assertIsNone(bs.pass_payload_failure(raw, raw["passes"][0]))
        self.assertIn("audit payload", bs.pass_payload_failure(raw, raw["passes"][2]))
        self.assertEqual(len(bs.time_gates(raw)), 1)
        self.assertEqual(bs.end_to_end(raw)[3], 62)

    def test_audit_golden_pin(self):
        raw = audit_raw()
        raw["golden_fp"] = "1" * 16
        self.assertIn("pinned", bs.time_gates(raw)[0])

    def test_failed_shard_fails(self):
        raw = audit_raw()
        raw["passes"][0]["failed"] = 2
        self.assertTrue(bs.time_gates(raw))

    def test_census_pin_and_sampled_rows(self):
        raw = audit_raw(fp="abc")
        raw["workload"] = "census"
        raw["golden_fp"] = bs.PIN_CENSUS
        for p in raw["passes"]:
            del p["ref_fp"]
            p["ref_mismatches"] = 0
        self.assertEqual(bs.time_gates(raw), [])
        raw["passes"][2]["ref_mismatches"] = 1
        raw["golden_fp"] = bs.PIN_AUDIT
        self.assertEqual(len(bs.time_gates(raw)), 2)

    def test_replay_must_equal_audit(self):
        self.assertEqual(bs.time_gates(replay_raw()), [])
        raw = replay_raw()
        raw["passes"][0]["fp"] = "2" * 16
        self.assertTrue(bs.time_gates(raw))
        raw = replay_raw()
        raw["fill_fps"][1] = "3" * 16
        self.assertTrue(bs.time_gates(raw))

    def test_replay_store_traffic(self):
        raw = replay_raw()
        raw["passes"][0].update(hits=62, misses=0, stored=0)
        self.assertIn("hits/misses/stored", bs.time_gates(raw)[0])

    def test_replay_pin_only_at_golden_seed(self):
        raw = replay_raw()
        raw["audit_fp"] = "4" * 16
        raw["fill_fps"] = [raw["audit_fp"]] * 3
        for p in raw["passes"]:
            p["fp"] = raw["audit_fp"]
        self.assertEqual(bs.time_gates(raw), [])
        raw["seed"] = bs.GOLDEN_SEED
        self.assertEqual(len(bs.time_gates(raw)), 1)

    def test_traced_payload_must_equal_untraced(self):
        self.assertEqual(bs.trace_gates(trace_raw()), [])
        raw = trace_raw()
        raw["pairs"][1]["traced_fp"] = "5" * 16
        self.assertEqual(len(bs.trace_gates(raw)), 1)

    def test_counts_must_repeat_exactly(self):
        raw = trace_raw()
        raw["pairs"][2]["metrics"]["dns.lookups"] += 1
        self.assertIn("does not repeat", bs.trace_gates(raw)[0])

    def test_trace_pin_at_golden_seed(self):
        raw = trace_raw("census")
        self.assertEqual(bs.trace_gates(raw), [])
        for p in raw["pairs"]:
            p["traced_fp"] = p["untraced_fp"] = bs.PIN_AUDIT
        self.assertEqual(len(bs.trace_gates(raw)), 3)
        raw["seed"] = 1
        self.assertEqual(bs.trace_gates(raw), [])


class Metrics(unittest.TestCase):
    def test_end_to_end_values(self):
        m, detail, attempted, failed = bs.end_to_end(audit_raw())
        self.assertAlmostEqual(m["pass_s_p50"], 1.51)
        self.assertAlmostEqual(m["pass_s_p95"], 1.52)
        self.assertEqual(detail["pass_s_p95_is"], "max")
        self.assertAlmostEqual(m["setup_s"], 0.003)
        self.assertAlmostEqual(m["shards_per_s"], 186 / (1.5 + 1.51 + 1.52))
        self.assertAlmostEqual(m["peak_rss_mb"], 18001 / 1024)
        raw = audit_raw()
        raw["passes"][0]["rss_kb"] = 0
        self.assertAlmostEqual(bs.end_to_end(raw)[0]["peak_rss_mb"], 19000 / 1024)
        self.assertEqual(m["shard_ok_ratio"], 1.0)
        self.assertEqual((attempted, failed), (186, 0))

    def test_per_layer_medians_counts_and_ratios(self):
        m, _, attempted, failed = bs.per_layer(trace_raw())
        self.assertEqual(m["shard.ms_p50"], 26.0)
        self.assertEqual(m["dns.lookups"], 168502.0)
        self.assertEqual(m["dns.resolve_ns"], 3000.0)
        self.assertAlmostEqual(m["trace.overhead_ratio"], 1.61 / 1.5)
        self.assertAlmostEqual(m["util.pool_cpu_util"], 1.0)
        self.assertEqual((attempted, failed), (6, 0))


class Schema(unittest.TestCase):
    def result(self):
        e2e = spec()["end_to_end"]
        m, _, attempted, failed = bs.end_to_end(audit_raw())
        return {"correct": True, "attempted": attempted, "failed": failed,
                "metrics": bs.select_metrics(m, e2e)}, e2e

    def test_benchmark_json_contract(self):
        s = spec()
        self.assertEqual(sorted(s), sorted(["command", "paths", "run_seconds",
                                            "workloads", "end_to_end", "per_layer"]))
        self.assertEqual([w["name"] for w in s["workloads"]],
                         ["audit", "census", "replay"])
        names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in s["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in s["end_to_end"]))
        for m in s["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)
        for w in s["workloads"]:
            self.assertLessEqual(len(w["why"]), 200)

    def test_valid_result_has_no_problems(self):
        result, e2e = self.result()
        self.assertEqual(bs.validate_result(result, e2e), [])
        json.loads(json.dumps(result))

    def test_extra_or_missing_keys_rejected(self):
        result, e2e = self.result()
        extra = dict(result, host={})
        self.assertTrue(bs.validate_result(extra, e2e))
        missing = copy.deepcopy(result)
        del missing["metrics"]["setup_s"]
        self.assertTrue(bs.validate_result(missing, e2e))

    def test_counts_must_be_whole_numbers(self):
        result, e2e = self.result()
        self.assertTrue(bs.validate_result(dict(result, attempted=1.5), e2e))
        self.assertTrue(bs.validate_result(dict(result, attempted=0), e2e))
        self.assertTrue(bs.validate_result(dict(result, failed=True), e2e))

    def test_unmeasured_metric_raises(self):
        with self.assertRaises(KeyError):
            bs.select_metrics({}, spec()["end_to_end"])
        with self.assertRaises(ValueError):
            bs.select_metrics({"setup_s": float("nan")}, spec()["end_to_end"][:1])


class Hosts(unittest.TestCase):
    def test_different_hosts_refused(self):
        a = {"nproc": 4, "cpu_model": "x", "build_type": "RelWithDebInfo",
             "compiler": "gcc 12", "revision": "r1", "source": "s1"}
        self.assertEqual(bs.same_host(a, dict(a, revision="r2", source="s2")), [])
        self.assertEqual(bs.same_host(a, dict(a, nproc=1)), ["nproc"])
        self.assertEqual(bs.same_host(a, dict(a, build_type="Debug")), ["build_type"])


if __name__ == "__main__":
    unittest.main()
