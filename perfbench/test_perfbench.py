#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'    # from the repository root

They check `BENCHMARK.json` against the run contract, and run every
workload briefly, untraced and traced, to check that the printed metric
names equal the declared ones and that every output check and traced
conservation law (rows encoded, pairs scanned, epochs published, cache
hits + misses, no span left open) passes: the binary counts a broken law as a
failed op and reports `correct: false`.
"""

import json
import os
import re
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from run import SPEC, build, declared_names, load_spec, run_one  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Spec(unittest.TestCase):
    def test_keys_and_limits(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds", "workloads",
                                     "end_to_end", "per_layer"})
        self.assertLessEqual(os.path.getsize(SPEC), 64 * 1024)
        self.assertTrue(1 <= spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(spec["per_layer"]) <= 128)
        names = [w["name"] for w in spec["workloads"]]
        names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertTrue(0 < m["bound"] <= 0.25)
            self.assertRegex(m["unit"], UNIT)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
            self.assertRegex(m["unit"], UNIT)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in spec["end_to_end"]))


class Runs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = load_spec()
        cls.binary = build()
        if cls.binary is None:
            raise unittest.SkipTest("the benchmark does not build here")

    def check_runs(self, trace):
        for w in self.spec["workloads"]:
            with self.subTest(workload=w["name"], trace=trace):
                got = run_one(self.binary, w["name"], 7, 1, trace, echo=False)
                self.assertIsNotNone(got)
                result = got[1]
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(set(result["metrics"]), declared_names(self.spec, trace))
                units = {m["name"]: m["unit"]
                         for m in self.spec["per_layer" if trace else "end_to_end"]}
                for name, m in result["metrics"].items():
                    self.assertEqual(m["unit"], units[name], name)
                    if not trace:
                        self.assertGreater(m["value"], 0, name)

    def test_untraced_runs_print_the_end_to_end_metrics(self):
        self.check_runs(0)

    def test_traced_runs_print_the_per_layer_metrics_and_hold_the_laws(self):
        self.check_runs(1)


if __name__ == "__main__":
    unittest.main()
