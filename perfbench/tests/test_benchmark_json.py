"""Checks BENCHMARK.json against the rules the benchmark is defined by, so
an edit that breaks them fails here rather than at the first timed run.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

SPEC_PATH = HERE.parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


class BenchmarkJsonTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.raw = SPEC_PATH.read_bytes()
        cls.spec = json.loads(cls.raw)

    def test_shape(self):
        self.assertLessEqual(len(self.raw), 64 * 1024)
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_command_and_paths(self):
        command, paths = self.spec["command"], self.spec["paths"]
        self.assertTrue(1 <= len(command) <= 32)
        self.assertTrue(all(isinstance(c, str) and len(c) <= 200 for c in command))
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertFalse(p.startswith("/") or ".." in p.split("/"))
        for arg in command[1:]:
            self.assertTrue(any(arg == p or arg.startswith(p + "/") for p in paths), arg)

    def test_names(self):
        names = []
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertIn(w["name"], run.WORKLOADS)
            self.assertTrue(0 < len(w["why"]) <= 200 and "\n" not in w["why"])
            names.append(w["name"])
        for m in self.spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < m["bound"] <= 0.25)
        for m in self.spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
            names.append(m["name"])
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        self.assertTrue(1 <= len(self.spec["end_to_end"]) <= 16)
        self.assertTrue(1 <= len(self.spec["per_layer"]) <= 128)

    def test_setup_metric_has_the_largest_bound(self):
        e2e = {m["name"]: m for m in self.spec["end_to_end"]}
        setup = e2e["setup_s"]
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))
        self.assertEqual(setup["bound"], max(m["bound"] for m in e2e.values()))

    def test_runs_fit_the_time_budget(self):
        # 4 + 22 runs per workload, each measuring run_seconds plus at most
        # about 10 s of set-up, overshoot and build check, in 3420 s less
        # about 10 minutes for two cold builds.
        runs = 4 + 22 * len(self.spec["workloads"])
        self.assertLessEqual(runs * (self.spec["run_seconds"] + 10), 3420 - 600)


if __name__ == "__main__":
    unittest.main()
