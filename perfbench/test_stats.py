"""Tests for the benchmark's own statistics.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_median_of_nothing_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])

    def test_quartiles_match_the_exclusive_method(self):
        # statistics.quantiles(n=4), method 'exclusive': positions (n+1)p.
        self.assertEqual(stats.quartiles([1, 2, 3, 4, 5, 6, 7]), (2.0, 4.0, 6.0))
        self.assertEqual(stats.quartiles(list(range(1, 11))), (2.75, 5.5, 8.25))

    def test_relative_spread(self):
        self.assertAlmostEqual(stats.relative_spread([1, 2, 3, 4, 5, 6, 7]), 1.0)
        self.assertEqual(stats.relative_spread([5.0] * 10), 0.0)
        with self.assertRaises(ValueError):
            stats.relative_spread([0, 0, 0])


class TailPercentile(unittest.TestCase):
    def test_reported_with_ten_samples_beyond(self):
        values = list(range(1, 101))  # rank 90 leaves 10 samples beyond
        self.assertEqual(stats.tail_percentile(values, 90), (90, 100))

    def test_withheld_with_nine_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(1, 100)), 90))

    def test_order_does_not_matter(self):
        values = list(range(200, 0, -1))
        self.assertEqual(stats.tail_percentile(values, 90), (180, 200))

    def test_median_needs_ten_beyond_too(self):
        self.assertEqual(stats.tail_percentile(list(range(1, 21)), 50), (10, 20))
        self.assertIsNone(stats.tail_percentile(list(range(1, 20)), 50))

    def test_bad_percentile(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile([1, 2, 3], 100)


class FailedFraction(unittest.TestCase):
    def test_fraction_comes_with_its_base(self):
        self.assertEqual(stats.failed_fraction(0, 200), (0.0, 200))
        self.assertEqual(stats.failed_fraction(3, 24), (0.125, 24))

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.failed_fraction(0, 0)

    def test_more_failed_than_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.failed_fraction(5, 4)


class PhaseSum(unittest.TestCase):
    def test_exact_sum(self):
        phases = {"setup": 11_000_000_000, "dump": 1_234_567, "other": 1}
        self.assertTrue(stats.phases_sum_to_total(phases, 11_001_234_568))

    def test_one_nanosecond_off_fails(self):
        phases = {"setup": 11_000_000_000, "dump": 1_234_567, "other": 1}
        self.assertFalse(stats.phases_sum_to_total(phases, 11_001_234_567))


class Deciles(unittest.TestCase):
    def test_first_and_last_tenth(self):
        self.assertEqual(stats.decile_means(list(range(1, 21))), (1.5, 19.5))

    def test_short_sequences_use_one_sample(self):
        self.assertEqual(stats.decile_means([4, 5, 6]), (4, 6))


if __name__ == "__main__":
    unittest.main()
