"""Self-tests of the benchmark's metric math (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

run.py also runs them before every measurement and refuses to report
numbers if they fail."""

import math
import unittest

import metrics as M


def span(id, parent, start, end, name="x", group="g"):
    return {"id": id, "parent": parent, "name": name, "group": group,
            "start_ns": start, "end_ns": end}


class Percentiles(unittest.TestCase):
    def test_nearest_rank_and_support(self):
        values = list(range(1, 201))  # 1..200
        self.assertEqual(M.percentile(values, 50), (100, 100))
        self.assertEqual(M.percentile(values, 95), (190, 10))
        self.assertEqual(M.percentile(values, 99), (198, 2))

    def test_tail_needs_ten_samples_beyond(self):
        self.assertEqual(M.supported_percentile(list(range(1, 201)), 95), 190)
        self.assertIsNone(M.supported_percentile(list(range(1, 200)), 95))
        self.assertIsNone(M.supported_percentile(list(range(1, 201)), 99))

    def test_failures_miss_every_limit(self):
        values = [1.0] * 180 + [math.inf] * 20
        self.assertEqual(M.supported_percentile(values, 50), 1.0)
        self.assertEqual(M.percentile(values, 95), (math.inf, 0))
        self.assertIsNone(M.supported_percentile(values, 95))

    def test_ties_do_not_count_as_beyond(self):
        self.assertEqual(M.percentile([5.0] * 30, 50), (5.0, 0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            M.percentile([], 50)

    def test_quartile_spread(self):
        self.assertAlmostEqual(M.quartile_spread([10.0] * 10), 0.0)
        self.assertAlmostEqual(M.quartile_spread([8, 9, 10, 11, 12]), 3.0 / 10.0)


class Ratios(unittest.TestCase):
    def test_ratio_against_its_base(self):
        self.assertEqual(M.ratio(3, 4), 0.75)
        self.assertEqual(M.ratio(0, 10), 0.0)

    def test_empty_base_is_zero(self):
        self.assertEqual(M.ratio(5, 0), 0.0)


class SelfTimes(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(M.self_times([span(0, -1, 0, 100)]), {0: 100})

    def test_children_are_subtracted_once_each(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30), span(2, 0, 50, 90),
                 span(3, 1, 12, 20)]  # a grandchild counts against its parent only
        self.assertEqual(M.self_times(spans), {0: 40, 1: 12, 2: 40, 3: 8})

    def test_overlapping_children_are_not_double_counted(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60), span(2, 0, 40, 80)]
        self.assertEqual(M.self_times(spans)[0], 30)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 90, 130)]
        self.assertEqual(M.self_times(spans)[0], 90)

    def test_layer_totals_add_up_to_the_root(self):
        spans = [span(0, -1, 0, 10_000_000, "pass", "p1"),
                 span(1, 0, 1_000_000, 4_000_000, "context.create", "p1"),
                 span(2, 0, 5_000_000, 9_000_000, "golden.evaluate", "p1"),
                 span(3, 2, 6_000_000, 8_000_000, "powergrid.noise", "p1"),
                 span(4, 0, 9_000_000, 9_500_000, "context.create", "p1")]
        wall, layers = M.layer_totals(spans)["p1"]
        self.assertEqual(wall, 10.0)
        self.assertEqual(layers, {"pass": 2.5, "context.create": 3.5,
                                  "golden.evaluate": 2.0, "powergrid.noise": 2.0})
        self.assertAlmostEqual(sum(layers.values()), wall)


if __name__ == "__main__":
    unittest.main()
