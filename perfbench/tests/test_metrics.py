"""The tail-percentile rule, metric naming, and that every metric
BENCHMARK.json names is produced, with its unit, for every workload."""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

import metrics  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_ten_samples_lie_beyond_the_tail(self):
        values = list(range(1, 101))  # 1..100
        value, percentile, n = metrics.tail(values)
        self.assertEqual(n, 100)
        self.assertEqual(value, 90)
        self.assertEqual(percentile, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_percentile_follows_the_sample_count(self):
        value, percentile, _ = metrics.tail(list(range(400)))
        self.assertEqual(value, 389)
        self.assertEqual(percentile, 97.5)
        _, percentile, _ = metrics.tail(list(range(20)))
        self.assertEqual(percentile, 50.0)

    def test_order_of_samples_does_not_matter(self):
        values = [5.0, 1.0, 9.0, 3.0] * 10
        self.assertEqual(metrics.tail(values), metrics.tail(sorted(values)))

    def test_too_few_samples_give_the_maximum(self):
        self.assertEqual(metrics.tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))
        self.assertEqual(metrics.tail([1.0] * 10), (1.0, 100.0, 10))
        self.assertEqual(metrics.tail(list(range(11)))[:2], (0, 100.0 / 11))
        with self.assertRaises(ValueError):
            metrics.tail([])


class Naming(unittest.TestCase):
    def test_name_charset(self):
        for good in ("setup_s", "tensor.kernel_s.Conv2d", "9lives", "a-b_c.d",
                     "x" * 64):
            self.assertTrue(metrics.valid_name(good), good)
        for bad in ("", "_leading", ".dot", "-dash", "has space", "slash/no",
                    "x" * 65, "unicodé"):
            self.assertFalse(metrics.valid_name(bad), bad)

    def test_unit_charset(self):
        for good in ("s", "ms", "1/s", "%", "GFLOP/s", "count/query", "MiB"):
            self.assertTrue(metrics.valid_unit(good), good)
        for bad in ("", "a b", "x" * 17, "s;"):
            self.assertFalse(metrics.valid_unit(bad), bad)

    def test_benchmark_json_follows_the_rules(self):
        spec = metrics.load_spec()
        names = []
        for section in ("workloads", "end_to_end", "per_layer"):
            for entry in spec[section]:
                self.assertTrue(metrics.valid_name(entry["name"]), entry["name"])
                names.append(entry["name"])
                if section != "workloads":
                    self.assertTrue(metrics.valid_unit(entry["unit"]), entry)
                    self.assertIn(entry["better"], ("higher", "lower"))
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(run.WORKLOADS))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


def fake_trace():
    kinds = run.TRACED_KINDS
    return {"layer_s": {k: 0.5 for k in kinds},
            "kernel_s": {k: 0.25 for k in run.AFFINE_KINDS},
            "kernel_macs": {k: 1e8 for k in run.AFFINE_KINDS},
            "sound_kernel_s": 1.0, "nearest_kernel_s": 0.5, "bounds_s": 0.01,
            "probe_kernel_s": 0.25,
            "boxes_made": 6,
            "traced_s": 3.1, "untraced_s": 3.0, "stepped_identical": True}


def fake_queries(n):
    return [{"index": i, "pipe": "ConvSmall", "lower": 0.5, "upper": 0.5,
             "cp_lower": 0.4, "cp_upper": 0.6, "regions_max": 100 + i,
             "splits": 50, "peak_bytes": 1 << 20} for i in range(n)]


class EveryMetricIsReported(unittest.TestCase):
    def setUp(self):
        self.spec = metrics.load_spec()

    def assert_complete(self, trace, values):
        line = metrics.result_line(self.spec, trace, True, 5, 0, values)
        declared = self.spec["per_layer" if trace else "end_to_end"]
        self.assertEqual(set(line), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual(list(line["metrics"]), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(line["metrics"][m["name"]]["unit"], m["unit"])
            self.assertIsInstance(line["metrics"][m["name"]]["value"], float)

    def test_end_to_end(self):
        raw = {"setup_samples_s": [1.0, 1.2, 1.1],
               "latencies_s": [0.1 * i for i in range(1, 30)],
               "answered": 29, "wall_s": 20.0, "cpu_s": 19.0, "peak_rss_mb": 70.0}
        values, notes = run.end_to_end(raw)
        self.assert_complete(False, values)
        self.assertIn("p65.5 of 29 samples, 10 beyond", notes["latency_tail_s"])
        self.assertEqual(values["setup_s"], 1.1)

    def test_paper_trace(self):
        answers = [[i % 3, 1e-6, 0.2, 0.25, 0.5, False, False] for i in range(12)]
        d = {"answers": answers, "queries": fake_queries(3), "trace": fake_trace(),
             "wall_s": 2.4, "cpu_s": 2.3}
        values = run.paper_layer_metrics(d)
        self.assert_complete(True, values)
        self.assertAlmostEqual(values["bound_width_mean"], 0.25)
        self.assertAlmostEqual(values["fp.sound_kernel_ratio"], 2.0)
        self.assertAlmostEqual(values["tensor.gflops.Conv2d"], 0.8)

    def test_serve_trace(self):
        reply = {"status": "ok", "queue_ms": 0.5, "run_ms": 2.0,
                 "specs": [{"lower": 0.1, "upper": 0.3}]}
        before = {"cache_hits": 0, "cache_misses": 0, "cache_evictions": 0,
                  "coalesce_batches": 0, "coalesce_requests": 0}
        after = {"cache_hits": 9, "cache_misses": 3, "cache_evictions": 1,
                 "coalesce_batches": 4, "coalesce_requests": 12}
        obs = {"answered": [reply] * 15, "attempted": 16, "stats_before": before,
               "stats_after": after, "cpu_s": 1.0, "wall_s": 2.0, "shed": 1,
               "degraded": 0, "late_s_max": 0.003}
        values = run.serve_layer_metrics(obs, {"trace": fake_trace(),
                                               "queries": fake_queries(4)})
        self.assert_complete(True, values)
        self.assertAlmostEqual(values["prop_cache.hit_frac"], 0.75)
        self.assertAlmostEqual(values["core.batch_size_mean"], 3.0)
        self.assertAlmostEqual(values["failed_frac"], 1 / 16)

    def test_missing_or_extra_metric_is_refused(self):
        values, _ = run.end_to_end({"setup_samples_s": [1.0],
                                    "latencies_s": [0.1], "answered": 1,
                                    "wall_s": 1.0, "cpu_s": 1.0,
                                    "peak_rss_mb": 1.0})
        with self.assertRaises(KeyError):
            metrics.result_line(self.spec, False, True, 1, 0,
                                dict(values, extra_metric=1.0))
        del values["setup_s"]
        with self.assertRaises(KeyError):
            metrics.result_line(self.spec, False, True, 1, 0, values)


class ServePlan(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        self.assertEqual(run.serve_plan(5, 20), run.serve_plan(5, 20))
        self.assertNotEqual(run.serve_plan(5, 20)[0], run.serve_plan(6, 20)[0])

    def test_shares(self):
        plan, due, fresh = run.serve_plan(1, 20)
        self.assertEqual(len(plan), len(due))
        self.assertEqual(due, sorted(due))
        periods = int(run.SLOT_RATE * 20) // run.SLOT_PERIOD
        bursts = len(run.HOT_SLOTS) + len(run.COLD_SLOTS)
        solo = [p for p in plan if p[1] > 0]
        self.assertEqual(len(solo), periods * (run.SLOT_PERIOD - bursts))
        self.assertEqual(len(plan), len(solo) + periods * bursts * run.CONNECTIONS)
        # Every first-seen segment is used exactly once.
        fresh_segments = [p[0] for p in plan if p[0] >= run.POOL]
        self.assertEqual(sorted(fresh_segments),
                         list(range(run.POOL, run.POOL + fresh)))
        self.assertEqual(fresh, len(solo) + periods * len(run.COLD_SLOTS))
        # A burst falls due together, one request per connection.
        first_burst = due.index(min(run.HOT_SLOTS) / run.SLOT_RATE)
        self.assertEqual(due[first_burst:first_burst + run.CONNECTIONS],
                         [min(run.HOT_SLOTS) / run.SLOT_RATE] * run.CONNECTIONS)

if __name__ == "__main__":
    unittest.main()
