"""Unit tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p "test_*.py"
"""

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import stats  # noqa: E402
import tracing  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_no_children(self):
        self.assertEqual(tracing.self_time(2.0, 7.0, []), 5.0)

    def test_sequential_children_are_subtracted(self):
        self.assertEqual(tracing.self_time(0.0, 10.0, [(1.0, 3.0), (4.0, 8.0)]), 4.0)

    def test_overlapping_children_count_once(self):
        self.assertEqual(tracing.self_time(0.0, 10.0, [(5.0, 9.0), (1.0, 6.0)]), 2.0)

    def test_children_are_clipped_to_the_parent(self):
        self.assertEqual(tracing.self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]), 2.0)

    def test_recorder_spans_and_summary(self):
        ticks = iter(range(100))
        recorder = tracing.SpanRecorder(clock=lambda: float(next(ticks)))

        def leaf():
            return None

        traced_leaf = recorder.wrap("leaf", leaf)

        def outer():
            traced_leaf()
            traced_leaf()

        recorder.wrap("outer", outer)()
        # clock reads: outer 0, leaf 1-2, leaf 3-4, outer end 5
        outer_span, first, second = recorder.spans
        self.assertEqual((outer_span.start, outer_span.end, outer_span.parent), (0.0, 5.0, -1))
        self.assertEqual((first.parent, second.parent), (0, 0))
        names = tracing.summarize(recorder)["names"]
        self.assertEqual(names["outer"], [1, 5.0, 3.0])
        self.assertEqual(names["leaf"], [2, 2.0, 2.0])

    def test_merge_adds_sums_and_keeps_the_max(self):
        a = {"names": {"x": [1, 2.0, 1.0]}, "counts": {"c": 3}, "trials": {},
             "generate_classify": 1, "vertex_bits_max": 9}
        b = {"names": {"x": [2, 1.0, 0.5], "y": [1, 1.0, 1.0]}, "counts": {"c": 1},
             "trials": {"triple": [4, 0.5]}, "generate_classify": 2, "vertex_bits_max": 7}
        merged = tracing.merge(a, b)
        self.assertEqual(merged["names"], {"x": [3, 3.0, 1.5], "y": [1, 1.0, 1.0]})
        self.assertEqual(merged["counts"], {"c": 4})
        self.assertEqual(merged["trials"], {"triple": [4, 0.5]})
        self.assertEqual((merged["generate_classify"], merged["vertex_bits_max"]), (3, 9))

    def test_install_rebinds_every_import_and_uninstall_restores(self):
        import effpcm.geometry
        import effpcm.pcm

        original = effpcm.pcm.cycle_product
        self.assertIs(effpcm.geometry.cycle_product, original)
        undo = tracing.install(tracing.SpanRecorder())
        try:
            self.assertIsNot(effpcm.pcm.cycle_product, original)
            self.assertIs(effpcm.geometry.cycle_product, effpcm.pcm.cycle_product)
        finally:
            tracing.uninstall(undo)
        self.assertIs(effpcm.pcm.cycle_product, original)
        self.assertIs(effpcm.geometry.cycle_product, original)


class TailPercentileTest(unittest.TestCase):
    def test_exactly_ten_beyond_qualifies(self):
        self.assertEqual(stats.beyond(100, 90.0), 10)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)

    def test_nine_beyond_does_not(self):
        self.assertEqual(stats.beyond(99, 90.0), 9)
        self.assertEqual(stats.tail_percentile(99), 75.0)

    def test_every_choice_has_ten_beyond(self):
        for n in range(20, 5000):
            self.assertGreaterEqual(stats.beyond(n, stats.tail_percentile(n)), 10, n)

    def test_too_few_samples_fall_back_to_the_median(self):
        self.assertEqual(stats.tail_percentile(19), 50.0)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50.0), 50)
        self.assertEqual(stats.percentile(values, 90.0), 90)
        self.assertEqual(stats.percentile([7], 99.0), 7)


if __name__ == "__main__":
    unittest.main()
