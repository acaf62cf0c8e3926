"""Tests of the benchmark's own arithmetic (perfbench/benchstats.py).

    python3 -m unittest discover -s perfbench/tests
"""

import statistics
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchstats as bs  # noqa: E402


class PercentileChoiceTest(unittest.TestCase):
    def test_samples_beyond_is_exact(self):
        self.assertEqual(bs.samples_beyond(10000, Fraction(999, 10)), 10)
        self.assertEqual(bs.samples_beyond(9999, Fraction(999, 10)), 9)
        self.assertEqual(bs.samples_beyond(16000, 99.9), 16)
        self.assertEqual(bs.samples_beyond(1000, 99), 10)
        self.assertEqual(bs.samples_beyond(0, 50), 0)

    def test_float_percentile_reads_as_decimal(self):
        # 99.9 as a binary float is slightly above 999/10; read naively it
        # would push the rank of 10000 samples to 9991.
        self.assertEqual(bs.samples_beyond(10000, 99.9), 10)

    def test_top_percentile_takes_highest_with_ten_beyond(self):
        p50, p99, p999 = bs.REPORTED_PERCENTILES
        self.assertEqual(bs.top_percentile(10000), p999)
        self.assertEqual(bs.top_percentile(64000), p999)
        self.assertEqual(bs.top_percentile(9999), p99)
        self.assertEqual(bs.top_percentile(1000), p99)
        self.assertEqual(bs.top_percentile(999), p50)
        self.assertEqual(bs.top_percentile(20), p50)
        self.assertIsNone(bs.top_percentile(19))

    def test_top_percentile_custom_threshold(self):
        self.assertEqual(bs.top_percentile(100, candidates=(50, 90), min_beyond=10), 90)
        self.assertEqual(bs.top_percentile(100, candidates=(50, 90), min_beyond=11), 50)


class FailedShareTest(unittest.TestCase):
    def test_share(self):
        self.assertEqual(bs.failed_share(0, 16000), 0.0)
        self.assertEqual(bs.failed_share(4, 16), 0.25)

    def test_rejects_bad_counts(self):
        with self.assertRaises(ValueError):
            bs.failed_share(0, 0)
        with self.assertRaises(ValueError):
            bs.failed_share(3, 2)
        with self.assertRaises(ValueError):
            bs.failed_share(-1, 2)

    def test_kv_failed_counts_unfinished_and_mismatched(self):
        self.assertEqual(bs.kv_failed(100, completed=100, mismatches=0, stuck_sessions=0), 0)
        self.assertEqual(bs.kv_failed(100, completed=97, mismatches=0, stuck_sessions=0), 3)
        self.assertEqual(bs.kv_failed(100, completed=97, mismatches=2, stuck_sessions=0), 5)
        # Retried requests can pair more marks than planned; never negative.
        self.assertEqual(bs.kv_failed(100, completed=104, mismatches=1, stuck_sessions=0), 1)
        # Never more failures than planned requests.
        self.assertEqual(bs.kv_failed(10, completed=0, mismatches=7, stuck_sessions=0), 10)

    def test_kv_failed_counts_a_stuck_session_once(self):
        # A stuck session's 16 requests are unfinished; the mismatch total
        # also counts the session once, which must not add a 17th failure.
        self.assertEqual(bs.kv_failed(16000, completed=15984, mismatches=1, stuck_sessions=1), 16)
        self.assertEqual(bs.kv_failed(16000, completed=15984, mismatches=3, stuck_sessions=1), 18)


class PerUnitTest(unittest.TestCase):
    def test_ratio_with_base(self):
        # 1.5 ms of host time over 500 events is 3000 ns per event.
        self.assertEqual(bs.per_unit(1.5, 500, 1e6), (3000.0, 500))
        self.assertEqual(bs.per_unit(678318, 1250901), (678318 / 1250901, 1250901))

    def test_zero_base_reads_zero(self):
        self.assertEqual(bs.per_unit(12.0, 0), (0.0, 0))

    def test_negative_base_rejected(self):
        with self.assertRaises(ValueError):
            bs.per_unit(1.0, -1)


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 9.0, 10.2, 10.8, 11.5, 9.8]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bs.quartile_spread(values), (q3 - q1) / statistics.median(values))

    def test_degenerate(self):
        self.assertEqual(bs.quartile_spread([5.0]), 0.0)
        self.assertEqual(bs.quartile_spread([3.0, 3.0, 3.0]), 0.0)

    def test_median(self):
        self.assertEqual(bs.median([3, 1, 2]), 2)
        with self.assertRaises(ValueError):
            bs.median([])


class PoolingTest(unittest.TestCase):
    def test_pooled_rate_weighs_seeds_by_work(self):
        # Two seeds of 16000 requests: medians 2.0 s and 1.0 s (the 9.0 s
        # repetition is an outlier the median drops) -> 32000 / 3.0 s.
        self.assertAlmostEqual(bs.pooled_rate([(16000, [2.0, 2.1, 1.9]),
                                               (16000, [1.0, 9.0, 1.0])]), 32000 / 3.0)

    def test_pooled_rate_single_seed(self):
        self.assertEqual(bs.pooled_rate([(120, [1.5, 1.4, 1.6])]), 80.0)

    def test_pooled_rate_rejects_empty(self):
        with self.assertRaises(ValueError):
            bs.pooled_rate([])
        with self.assertRaises(ValueError):
            bs.pooled_rate([(10, [0.0])])

    def test_combine_takes_median_across_seeds(self):
        per_seed = [{"p99": 1919, "setup_s": 0.07}, {"p99": 2047, "setup_s": 0.09},
                    {"p99": 1983, "setup_s": 0.08}]
        self.assertEqual(bs.combine(per_seed), {"p99": 1983, "setup_s": 0.08})


def rep(i, digest="d1", ok=True, traced=0, **sim):
    return {"rep": i, "traced": traced, "ok": ok, "digest": digest,
            "sim": {"p99_us": 2047, **sim}}


class CheckSetTest(unittest.TestCase):
    def test_identical_reps_pass(self):
        self.assertEqual(bs.check_set([rep(0), rep(1, traced=1), rep(2)]), [])

    def test_digest_divergence_fails(self):
        problems = bs.check_set([rep(0), rep(1, digest="d2")])
        self.assertEqual(len(problems), 1)
        self.assertIn("digest", problems[0])

    def test_sim_divergence_fails(self):
        problems = bs.check_set([rep(0), rep(1, p99_us=4095)])
        self.assertEqual(len(problems), 1)
        self.assertIn("p99_us", problems[0])

    def test_missing_sim_value_fails(self):
        problems = bs.check_set([rep(0, extra=1), rep(1)])
        self.assertEqual(len(problems), 1)

    def test_failed_rep_fails(self):
        problems = bs.check_set([rep(0, completed=16000), rep(1, ok=False, completed=16000)])
        self.assertEqual(problems, ["rep 1: correctness check failed (completed=16000)"])

    def test_empty_set_fails(self):
        self.assertEqual(bs.check_set([]), ["no repetitions"])


if __name__ == "__main__":
    unittest.main()
