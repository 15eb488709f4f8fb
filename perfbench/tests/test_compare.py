"""Tests for perfbench/compare.py: the fingerprint comparison."""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import compare  # noqa: E402

BENCHMARK = {
    "end_to_end": [
        {"name": "answers_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.2},
    ]
}

BASE = {
    "workload": "lenet-threaded",
    "trace": 0,
    "seconds": 10.0,
    "metrics": {
        "answers_per_s": {"value": 1000.0, "unit": "1/s"},
        "latency_p50_ms": {"value": 2.0, "unit": "ms"},
    },
    "fingerprint": {
        "nproc": 2,
        "cpu_model": "Example CPU @ 2.0GHz",
        "cpu_flags": ["avx2"],
        "kernel": "6.1.0",
        "rustc": "rustc 1.95.0",
        "commit": "aaaa",
        "source_digest": "1111",
        "seed": 1,
    },
}


def variant(**changes):
    new = copy.deepcopy(BASE)
    for key, value in changes.items():
        if key in new["fingerprint"]:
            new["fingerprint"][key] = value
        elif key in new["metrics"]:
            new["metrics"][key]["value"] = value
        else:
            new[key] = value
    return new


class FingerprintComparison(unittest.TestCase):
    def test_same_host_other_commit_and_seed_compares(self):
        new = variant(commit="bbbb", source_digest="2222", seed=7)
        status, rows = compare.compare(BASE, new, BENCHMARK)
        self.assertEqual(status, "compared")
        self.assertEqual([r[5] for r in rows], ["within bound", "within bound"])

    def test_other_host_is_incomparable_not_a_regression(self):
        for field, value in [
            ("nproc", 8),
            ("cpu_model", "Other CPU"),
            ("cpu_flags", ["avx2", "avx512f"]),
            ("kernel", "6.8.0"),
            ("rustc", "rustc 1.96.0"),
        ]:
            # Far worse numbers, but measured elsewhere.
            new = variant(**{field: value, "answers_per_s": 10.0})
            status, reasons = compare.compare(BASE, new, BENCHMARK)
            self.assertEqual(status, "incomparable", field)
            self.assertTrue(any(r.startswith(field) for r in reasons), reasons)

    def test_other_run_settings_are_incomparable(self):
        status, reasons = compare.compare(BASE, variant(seconds=20.0), BENCHMARK)
        self.assertEqual(status, "incomparable")
        self.assertTrue(reasons[0].startswith("seconds"))

    def test_regressions_follow_each_metrics_direction_and_bound(self):
        rows = compare.compare(BASE, variant(answers_per_s=700.0, latency_p50_ms=1.5), BENCHMARK)[1]
        verdicts = {r[0]: r[5] for r in rows}
        self.assertEqual(verdicts, {"answers_per_s": "regression", "latency_p50_ms": "improvement"})
        rows = compare.compare(BASE, variant(latency_p50_ms=2.3), BENCHMARK)[1]
        self.assertAlmostEqual(rows[1][3], 0.15)
        self.assertEqual(rows[1][5], "within bound")


if __name__ == "__main__":
    unittest.main()
