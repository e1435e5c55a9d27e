"""Tests of perfbench/run.py and BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests

They check that BENCHMARK.json keeps to the benchmark contract and that an
afc_bench record becomes a result line of exactly the contract's shape.
"""

import json
import re
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def fake_record(spec, trace, **overrides):
    """An afc_bench record carrying every metric of the given mode, plus one
    extra metric that the result line must drop."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": 1.5, "unit": m["unit"]} for m in wanted}
    metrics["not_in_spec"] = {"value": 2.0, "unit": "count"}
    record = {"workload": "write_4k", "seed": 42, "trace": trace, "correct": True,
              "attempted": 1000, "failed": 0, "checks": [], "metrics": metrics}
    record.update(overrides)
    return record


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def test_top_level_keys(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds", "workloads",
                                          "end_to_end", "per_layer"})

    def test_command_and_paths(self):
        cmd, paths = self.spec["command"], self.spec["paths"]
        self.assertTrue(1 <= len(cmd) <= 32)
        self.assertEqual(cmd[0], "python3")
        for arg in cmd:
            self.assertLessEqual(len(arg), 200)
            self.assertFalse(arg.startswith("/") or ".." in arg.split("/"))
        self.assertTrue(1 <= len(paths) <= 16)
        for p in paths:
            self.assertRegex(p, PATH)
            self.assertTrue((run.ROOT / p).is_dir())
        self.assertTrue(any(cmd[1].startswith(p + "/") for p in paths))

    def test_run_seconds(self):
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)

    def test_workloads_are_the_three_afceph_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(names, ["write_4k", "read_4k_8n", "mixed_zipf_verify"])
        for w in self.spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertLessEqual(len(w["why"]), 200)
            self.assertNotIn("\n", w["why"])

    def test_metric_names_units_and_bounds(self):
        seen = set()
        for kind in ("end_to_end", "per_layer"):
            metrics = self.spec[kind]
            self.assertTrue(1 <= len(metrics) <= (16 if kind == "end_to_end" else 128))
            for m in metrics:
                keys = {"name", "unit", "better"} | ({"bound"} if kind == "end_to_end" else set())
                self.assertEqual(set(m), keys, m)
                self.assertRegex(m["name"], NAME)
                self.assertRegex(m["unit"], UNIT)
                self.assertIn(m["better"], ("lower", "higher"))
                self.assertNotIn(m["name"], seen)
                seen.add(m["name"])
        for w in self.spec["workloads"]:
            self.assertRegex(w["name"], NAME)
            self.assertNotIn(w["name"], seen)
            seen.add(w["name"])
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        for b in bounds.values():
            self.assertTrue(0 < b <= 0.25)
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        setup = next(m for m in self.spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual((setup["unit"], setup["better"]), ("s", "lower"))

    def test_file_size(self):
        self.assertLessEqual((run.ROOT / "BENCHMARK.json").stat().st_size, 64 * 1024)


class MakeResult(unittest.TestCase):
    def setUp(self):
        self.spec = run.load_spec()

    def check_shape(self, result, trace):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        wanted = self.spec["per_layer"] if trace else self.spec["end_to_end"]
        self.assertEqual(list(result["metrics"]), [m["name"] for m in wanted])
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]], {"value": 1.5, "unit": m["unit"]})
        # The printed line parses back to the same object.
        self.assertEqual(json.loads(json.dumps(result)), result)

    def test_end_to_end_mode(self):
        self.check_shape(run.make_result(fake_record(self.spec, 0), self.spec, 0), 0)

    def test_per_layer_mode(self):
        self.check_shape(run.make_result(fake_record(self.spec, 1), self.spec, 1), 1)

    def test_counts_and_correctness_pass_through(self):
        rec = fake_record(self.spec, 0, correct=False, attempted=7, failed=2)
        result = run.make_result(rec, self.spec, 0)
        self.assertEqual((result["correct"], result["attempted"], result["failed"]),
                         (False, 7, 2))

    def test_missing_metric_is_an_error(self):
        rec = fake_record(self.spec, 0)
        del rec["metrics"]["run_s"]
        with self.assertRaises(ValueError):
            run.make_result(rec, self.spec, 0)

    def test_wrong_unit_is_an_error(self):
        rec = fake_record(self.spec, 0)
        rec["metrics"]["run_s"]["unit"] = "ms"
        with self.assertRaises(ValueError):
            run.make_result(rec, self.spec, 0)

    def test_non_numeric_value_is_an_error(self):
        rec = fake_record(self.spec, 1)
        rec["metrics"]["kv.flushes"]["value"] = "3"
        with self.assertRaises(ValueError):
            run.make_result(rec, self.spec, 1)

    def test_zero_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            run.make_result(fake_record(self.spec, 0, attempted=0), self.spec, 0)


if __name__ == "__main__":
    unittest.main()
