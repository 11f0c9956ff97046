#!/usr/bin/env python3
"""Unit tests for check_bench_regression.py, the CI timing gate.

Run directly (python3 scripts/check_bench_regression_test.py) or via ctest
(registered as check_bench_regression_py). Exercises the pure compare()
function on synthetic documents; no bench_serve binary needed.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_regression as cbr  # noqa: E402


def doc(*rows):
    return {"entries": [{"name": n, "ns_per_window": ns} for n, ns in rows]}


BASE = doc(("micro/matmul/64x64x64/t1/opt", 1000.0),
           ("serve/streams1/batch1", 40000.0))


class CompareTest(unittest.TestCase):
    def check(self, current):
        return cbr.compare(BASE, current, 2.0)

    def test_in_bound_run_passes(self):
        cur = doc(("micro/matmul/64x64x64/t1/opt", 1999.0),
                  ("serve/streams1/batch1", 20000.0))
        failures, lines = self.check(cur)
        self.assertEqual(failures, [])
        self.assertEqual(len(lines), 2)

    def test_row_more_than_twice_as_slow_fails(self):
        cur = copy.deepcopy(BASE)
        cur["entries"][1]["ns_per_window"] = 100000.0  # 2.5x
        failures, lines = self.check(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("serve/streams1/batch1", failures[0])
        self.assertIn("2.50x", failures[0])
        self.assertTrue(any("REGRESSION" in line for line in lines))

    def test_baseline_row_missing_from_current_run_fails(self):
        cur = doc(("micro/matmul/64x64x64/t1/opt", 1000.0))
        failures, _ = self.check(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("serve/streams1/batch1", failures[0])
        self.assertIn("missing from the current run", failures[0])

    def test_duplicate_name_fails(self):
        cur = copy.deepcopy(BASE)
        cur["entries"].append(
            {"name": "serve/streams1/batch1", "ns_per_window": 40000.0})
        failures, _ = self.check(cur)
        self.assertEqual(len(failures), 1)
        self.assertIn("named twice in current run", failures[0])
        failures, _ = cbr.compare(cur, BASE, 2.0)
        self.assertIn("named twice in baseline", failures[0])

    def test_run_comparing_no_rows_fails(self):
        for cur in (doc(), doc(("serve/other", 1.0))):
            failures, _ = cbr.compare(doc(), cur, 2.0)
            self.assertEqual(failures,
                             ["no rows compared: empty or disjoint runs"])

    def test_new_row_is_reported_not_gated(self):
        cur = copy.deepcopy(BASE)
        cur["entries"].append({"name": "serve/new", "ns_per_window": 1e9})
        failures, lines = self.check(cur)
        self.assertEqual(failures, [])
        self.assertTrue(any("serve/new" in line and "not gated" in line
                            for line in lines))


class ExitCodeTest(unittest.TestCase):
    def gate(self, current):
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, n) for n in ("base.json", "cur.json")]
            for path, d in zip(paths, (BASE, current)):
                with open(path, "w") as f:
                    json.dump(d, f)
            script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "check_bench_regression.py")
            return subprocess.run([sys.executable, script, *paths,
                                   "--max-ratio", "2.0"],
                                  capture_output=True).returncode

    def test_row_at_two_and_a_half_times_fails_the_gate(self):
        cur = copy.deepcopy(BASE)
        cur["entries"][0]["ns_per_window"] = 2500.0
        self.assertEqual(self.gate(cur), 1)
        self.assertEqual(self.gate(BASE), 0)


if __name__ == "__main__":
    unittest.main()
