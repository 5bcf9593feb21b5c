"""Tests of the benchmark's own arithmetic and of its metric list.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import statistics
import unittest

from measure import (
    REFERENCE_S,
    Tally,
    host_scale,
    reportable_percentile,
    self_times,
    spread,
)
from spans import SpanRecorder

HERE = os.path.dirname(os.path.abspath(__file__))


class TestPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(reportable_percentile(range(19)))
        # Nearest rank of p50 in 20 samples is the 10th; 10 lie beyond.
        self.assertEqual(reportable_percentile(range(20)), (50.0, 9))

    def test_highest_qualifying_percentile(self):
        self.assertEqual(reportable_percentile(range(100)), (90.0, 89))
        self.assertEqual(reportable_percentile(range(99)), (50.0, 49))
        self.assertEqual(reportable_percentile(range(1000)), (99.0, 989))

    def test_unsorted_input(self):
        values = list(range(100))[::-1]
        self.assertEqual(reportable_percentile(values), (90.0, 89))

    def test_empty(self):
        self.assertIsNone(reportable_percentile([]))


class TestHostScale(unittest.TestCase):
    def test_reference_host_is_unscaled(self):
        self.assertEqual(host_scale(REFERENCE_S, REFERENCE_S), 1.0)

    def test_slow_host_counts_fewer_seconds(self):
        # The loop took twice its reference time, so each second
        # measured then is half a second on the reference host.
        self.assertAlmostEqual(host_scale(2 * REFERENCE_S), 0.5)

    def test_uses_mean_of_before_and_after(self):
        self.assertAlmostEqual(host_scale(REFERENCE_S, 3 * REFERENCE_S), 0.5)


class TestSpread(unittest.TestCase):
    def test_matches_quartiles_over_median(self):
        values = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_single_value(self):
        self.assertEqual(spread([3.0]), 0.0)


class TestSelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("a", 0.0, 10.0, -1),
            ("b", 1.0, 4.0, 0),
            ("c", 2.0, 3.0, 1),
            ("b", 5.0, 9.0, 0),
            ("c", 6.0, 6.5, 3),
            ("c", 7.0, 8.0, 3),
        ]
        times = self_times(spans)
        self.assertEqual(times["a"], (1, 3.0))      # 10 - 3 - 4
        self.assertEqual(times["b"], (2, 2.0 + 2.5))  # (3 - 1) + (4 - 1.5)
        self.assertEqual(times["c"], (3, 2.5))

    def test_self_times_sum_to_root_duration(self):
        spans = [("a", 0.0, 5.0, -1), ("b", 1.0, 2.0, 0), ("a", 1.2, 1.7, 1)]
        times = self_times(spans)
        self.assertAlmostEqual(sum(own for _, own in times.values()), 5.0)
        self.assertEqual(times["a"][0], 2)

    def test_recorder_links_parents(self):
        recorder = SpanRecorder()

        def inner(x):
            return x + 1

        wrapped_inner = recorder.wrap("inner", inner, count_hits=True)

        def outer(x):
            return wrapped_inner(x) + wrapped_inner(x)

        wrapped_outer = recorder.wrap("outer", outer, count_hits=False)
        self.assertEqual(wrapped_outer(1), 4)
        names = [(name, parent) for name, _, _, parent in recorder.spans]
        self.assertEqual(names, [("outer", -1), ("inner", 0), ("inner", 0)])
        times = recorder.self_times()
        self.assertEqual(times["inner"][0], 2)
        self.assertGreaterEqual(times["outer"][1], 0.0)
        self.assertEqual(recorder.hit_ratio("inner"), 1.0)

    def test_span_closed_when_call_raises(self):
        recorder = SpanRecorder()

        def boom():
            raise ValueError("x")

        with self.assertRaises(ValueError):
            recorder.wrap("boom", boom, count_hits=False)()
        self.assertEqual(recorder.self_times()["boom"][0], 1)
        self.assertEqual(recorder.stack, [])


class TestTally(unittest.TestCase):
    def test_failed_share(self):
        tally = Tally()
        for _ in range(3):
            tally.record([])
        tally.record(["digest differs", "sent differs"])
        self.assertEqual((tally.attempted, tally.failed), (4, 1))
        self.assertEqual(tally.failed_share, 0.25)
        self.assertEqual(tally.ok_share, 0.75)
        self.assertEqual(tally.reasons,
                         {"digest differs": 1, "sent differs": 1})

    def test_empty(self):
        self.assertEqual(Tally().failed_share, 0.0)


class TestBenchmarkFile(unittest.TestCase):
    def test_lists_the_metrics_run_reports(self):
        from run import END_TO_END_UNITS, per_layer_units

        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["end_to_end"]},
            END_TO_END_UNITS)
        self.assertEqual(
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            per_layer_units())


if __name__ == "__main__":
    unittest.main()
