"""Self-tests of run.py: run with

    python3 -m unittest discover -s perfbench -p 'test_*.py'

They cover the percentile and sample-count helpers, failure accounting
(a corrupted stored digest fails exactly that point) and metric naming
(every name legal, unique and emitted by the code that reports it).
"""

import glob
import json
import os
import re
import unittest

import run

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Probe times of a process that ran at exactly the reference speed.
REF = [run.REFERENCE_PROBE_NS] * 3


def spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PercentileTest(unittest.TestCase):
    def test_interpolates_between_ranks(self):
        self.assertEqual(run.percentile([1, 2, 3, 4, 5], 50), 3)
        self.assertEqual(run.percentile([4, 1, 3, 2], 50), 2.5)
        self.assertEqual(run.percentile([10], 97), 10)
        self.assertAlmostEqual(run.percentile(list(range(101)), 97), 97)

    def test_tail_leaves_ten_samples_beyond(self):
        self.assertEqual(run.tail_percentile(350), 97)
        for n in range(21, 2000):
            p = run.tail_percentile(n)
            self.assertGreaterEqual(n * (1 - p / 100), 10 - 1e-9, n)
            if p < 99:
                self.assertLess(n * (1 - (p + 1) / 100), 10, n)

    def test_tail_falls_back_to_median_when_samples_are_few(self):
        self.assertEqual(run.tail_percentile(5), 50)
        self.assertEqual(run.tail_percentile(20), 50)

    def test_point_stats_reports_sample_count(self):
        ms = [float(i) for i in range(1, 351)]
        p50, tail, p, n = run.point_stats(ms)
        self.assertEqual((p, n), (97, 350))
        self.assertAlmostEqual(p50, 175.5)
        self.assertAlmostEqual(tail, run.percentile(ms, 97))


class SpeedFactorTest(unittest.TestCase):
    def test_factor_is_reference_over_median_probe(self):
        ref = run.REFERENCE_PROBE_NS
        self.assertAlmostEqual(run.speed_factor([ref]), 1.0)
        self.assertAlmostEqual(run.speed_factor([ref, 2 * ref, 9 * ref]), 0.5)
        with self.assertRaises(ValueError):
            run.speed_factor([])

    def test_times_of_a_slow_process_are_put_at_reference_speed(self):
        ref = run.REFERENCE_PROBE_NS
        fast = {"wall_s": 2.0, "instructions": 4e6, "peak_rss_kb": 1024,
                "executed_ms": [10.0, 20.0, 30.0], "probe_ns": [ref] * 3}
        # The same work on a host running at half speed: every time and
        # every probe doubles.
        slow = dict(fast, wall_s=4.0, executed_ms=[20.0, 40.0, 60.0], probe_ns=[2 * ref] * 3)
        a = run.end_to_end_metrics([fast], [0.1], 3, 0)
        b = run.end_to_end_metrics([slow], [0.1], 3, 0)
        for name in ("wall_s", "sim_mips", "point_ms_p50", "point_ms_tail"):
            self.assertAlmostEqual(a[name][0], b[name][0], msg=name)
        self.assertAlmostEqual(a["wall_s"][0], 2.0)


class FailureAccountingTest(unittest.TestCase):
    def setUp(self):
        self.digests = {"a": "01", "b": "02", "c": "03"}

    def test_clean_run_has_no_failures(self):
        self.assertEqual(run.check_points(self.digests, dict(self.digests)), (3, set()))

    def test_corrupted_stored_digest_fails_that_point(self):
        stored = dict(self.digests, b="ff")
        self.assertEqual(run.check_points(self.digests, stored), (3, {"b"}))

    def test_corrupted_digest_in_a_real_store_fails_one_point(self):
        with open(os.path.join(run.DIGESTS, "fig2_sweep.json")) as f:
            stored = json.load(f)["points"]
        self.assertEqual(len(stored), 350)
        observed = dict(stored)
        key = sorted(stored)[7]
        corrupted = dict(stored, **{key: "0" * 16})
        self.assertEqual(run.check_points(observed, corrupted), (350, {key}))

    def test_panicked_and_missing_points_fail(self):
        digests = {"a": "01", "b": None}
        attempted, failed = run.check_points(digests, dict(self.digests))
        self.assertEqual((attempted, failed), (3, {"b", "c"}))

    def test_cross_check_and_reference_mismatches_fail(self):
        _, failed = run.check_points(self.digests, cross={"a": "01", "c": "99"})
        self.assertEqual(failed, {"c"})
        _, failed = run.check_points(self.digests, reference=dict(self.digests, a="00"))
        self.assertEqual(failed, {"a"})

    def test_ok_ratio_counts_failed_against_attempted(self):
        rec = {"wall_s": 2.0, "instructions": 4e6, "peak_rss_kb": 2048,
               "executed_ms": [1.0, 2.0, 3.0], "probe_ns": REF}
        m = run.end_to_end_metrics([rec], [0.01], 350, 7)
        self.assertAlmostEqual(m["point_ok_ratio"][0], 343 / 350)
        self.assertAlmostEqual(m["sim_mips"][0], 2.0)
        self.assertAlmostEqual(m["peak_rss_mb"][0], 2.0)

    def test_peak_rss_is_the_highest_process_peak(self):
        recs = [{"wall_s": 1.0, "instructions": 1, "peak_rss_kb": kb, "executed_ms": [1.0], "probe_ns": REF}
                for kb in (1024, 3072, 2048)]
        m = run.end_to_end_metrics(recs, [0.1], 3, 0)
        self.assertAlmostEqual(m["peak_rss_mb"][0], 3.0)

    def test_one_failed_point_breaks_the_ok_ratio_bound(self):
        bound = {m["name"]: m["bound"] for m in spec()["end_to_end"]}["point_ok_ratio"]
        rec = {"wall_s": 1.0, "instructions": 1, "peak_rss_kb": 1, "executed_ms": [1.0], "probe_ns": REF}
        # A point that fails deterministically fails in each of a run's
        # processes; fig2_sweep has the most points per process (350).
        processes = 3
        ok = run.end_to_end_metrics([rec], [0.1], 350 * processes, processes)["point_ok_ratio"][0]
        self.assertGreater(1.0 - ok, bound)


class MetricNameTest(unittest.TestCase):
    def test_names_and_units_are_legal_and_unique(self):
        s = spec()
        names = [m["name"] for k in ("end_to_end", "per_layer") for m in s[k]]
        names += [w["name"] for w in s["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        for m in s["end_to_end"] + s["per_layer"]:
            self.assertRegex(m["unit"], UNIT)

    def test_workloads_match_run_py(self):
        self.assertEqual([w["name"] for w in spec()["workloads"]], list(run.WORKLOADS))

    def test_end_to_end_names_match_what_run_py_reports(self):
        rec = {"wall_s": 1.0, "instructions": 1, "peak_rss_kb": 1, "executed_ms": [1.0], "probe_ns": REF}
        reported = run.end_to_end_metrics([rec], [0.1], 1, 0)
        declared = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
        self.assertEqual({k: u for k, (_, u) in reported.items()}, declared)

    def test_every_per_layer_name_is_emitted_by_the_harness(self):
        source = ""
        for path in sorted(glob.glob(os.path.join(run.HARNESS, "src", "*.rs"))) + [run.__file__]:
            with open(path) as f:
                source += f.read()
        for m in spec()["per_layer"]:
            name = m["name"]
            if name.startswith("replay.ns_per_event."):
                self.assertIn('"replay.ns_per_event.{}"', source)
                profile = name.rsplit(".", 1)[1]
                self.assertIn(f"Benchmark::{profile.capitalize()}", source, name)
            else:
                self.assertIn(f'"{name}"', source, name)


if __name__ == "__main__":
    unittest.main()
