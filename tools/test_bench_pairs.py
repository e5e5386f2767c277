#!/usr/bin/env python3
"""Checks bench_pairs.gain_verdict and its digest report on canned pair
results; runs no benchmark.

    python3 tools/test_bench_pairs.py
"""
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from bench_pairs import (digest_report, gain_verdict,  # noqa: E402
                         parse_digest)

# Ten base runs with quartiles 99.25 / 100.5 / 101.75: an interquartile
# spread of 2.5 around a median of 100.5.
BASE = [98, 99, 100, 101, 102, 99, 100, 101, 102, 103]


class GainVerdict(unittest.TestCase):
    def test_clear_gain_when_higher_is_better(self):
        head = [b + 10 for b in BASE]
        self.assertEqual(gain_verdict(BASE, head, "higher"), (10, True))

    def test_clear_gain_when_lower_is_better(self):
        head = [b - 10 for b in BASE]
        self.assertEqual(gain_verdict(BASE, head, "lower"), (10, True))

    def test_a_gain_in_the_wrong_direction_is_none(self):
        head = [b + 10 for b in BASE]
        self.assertEqual(gain_verdict(BASE, head, "lower"), (0, False))

    def test_nine_wins_of_ten_suffice(self):
        head = [b + 10 for b in BASE]
        head[3] = BASE[3] - 1
        self.assertEqual(gain_verdict(BASE, head, "higher"), (9, True))

    def test_eight_wins_of_ten_do_not(self):
        head = [b + 10 for b in BASE]
        head[3] = BASE[3] - 1
        head[7] = BASE[7] - 1
        self.assertEqual(gain_verdict(BASE, head, "higher"), (8, False))

    def test_ties_count_for_neither_side(self):
        head = [b + 10 for b in BASE]
        head[0] = BASE[0]
        self.assertEqual(gain_verdict(BASE, head, "higher"), (9, True))
        head[1] = BASE[1]
        self.assertEqual(gain_verdict(BASE, head, "higher"), (8, False))

    def test_every_pair_won_inside_the_base_spread_is_no_gain(self):
        # Each pair won by 1, so the medians differ by 1 < 2.5.
        head = [b + 1 for b in BASE]
        self.assertEqual(gain_verdict(BASE, head, "higher"), (10, False))

    def test_the_median_gap_must_exceed_the_spread(self):
        # A gap of exactly the spread (2.5) is not more than it.
        head = [b + 2.5 for b in BASE]
        self.assertEqual(gain_verdict(BASE, head, "higher"), (10, False))
        head = [b + 2.6 for b in BASE]
        self.assertEqual(gain_verdict(BASE, head, "higher"), (10, True))

    def test_nine_tenths_of_a_short_set(self):
        # Four pairs: nine tenths is 3.6, so 3 wins are not enough.
        base, head = [10, 11, 12, 13], [20, 21, 22, 13]
        self.assertEqual(gain_verdict(base, head, "higher"), (3, False))
        self.assertEqual(gain_verdict(base, [20, 21, 22, 23], "higher"),
                         (4, True))


class Digests(unittest.TestCase):
    def test_the_digest_line_is_found_among_the_report(self):
        lines = ["machine: nproc=4",
                 "cert_k2/digest = 6786f9c5333d3807 (matches the pin)",
                 "cert_k2/failed_frac = 0 (0 of 9 operations)",
                 '{"correct": true}']
        self.assertEqual(parse_digest(lines, "cert_k2"), "6786f9c5333d3807")
        self.assertIsNone(parse_digest(lines, "chaos16_campaign"))

    def test_each_pair_and_the_total(self):
        base = ["a1", "b2", "c3", None]
        head = ["a1", "b9", "c3", None]
        self.assertEqual(digest_report([1001, 1002, 1003, 1004], base, head), [
            "digest seed 1001: base a1 head a1 same",
            "digest seed 1002: base b2 head b9 DIFFERENT",
            "digest seed 1003: base c3 head c3 same",
            "digest seed 1004: base missing head missing DIFFERENT",
            "digests: base = head at 2/4 seeds"])


if __name__ == "__main__":
    unittest.main()
