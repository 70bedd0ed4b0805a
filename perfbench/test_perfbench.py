"""The benchmark's own tests: tiny smoke runs, metric names, and the correctness gate.

    python3 -m pytest perfbench -q        (or: python3 -m unittest discover -s perfbench)
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import run  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFS = run.load_references()


def tiny(workload: str, pool: str = "default", count: int = 2) -> list[dict]:
    """The shortest items of a pool, or the rank-one verify call."""
    if workload == "verify-xcalc":
        return [item for item in REFS[pool][workload] if item["id"] == "smoke"]
    return sorted(REFS[pool][workload], key=lambda item: len(item["word"]))[:count]


def names(section: str) -> list[str]:
    return [m["name"] for m in BENCHMARK[section]]


class SmokeTest(unittest.TestCase):
    def test_each_workload_passes_at_tiny_size(self):
        for workload in run.WORKLOADS:
            for pool in ("default", "heldout"):
                with self.subTest(workload=workload, pool=pool):
                    result = run.run(workload, 1, 0, False, items=tiny(workload, pool))["result"]
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)

    def test_metric_names_match_benchmark_json(self):
        items = tiny("spin-matrix")
        untraced = run.run("spin-matrix", 1, 0, False, items=items)["result"]["metrics"]
        traced = run.run("spin-matrix", 1, 0, True, items=items)["result"]["metrics"]
        self.assertCountEqual(untraced, names("end_to_end"))
        self.assertCountEqual(traced, names("per_layer"))
        self.assertTrue(all(m["value"] > 0 for m in untraced.values()))
        # 8^3 start columns per 3-strand word at n = 3, 8^2 for the 2-strand setup word
        self.assertEqual(traced["spinpoly.columns"]["value"], 512 * len(items) + 64)
        self.assertEqual(traced["rep.H.calls"]["value"], 2)
        self.assertEqual(traced["iqsym.trace_word.calls"]["value"], 0)
        self.assertEqual(traced["schur.annular_eval.calls"]["value"], 0)

    def test_workload_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(run.WORKLOADS))

    def test_seed_orders_the_batch_only(self):
        items = run.pool_items("sln-annular", REFS)
        a = run.batch_order(items, "sln-annular", 1, 0)
        self.assertEqual(a, run.batch_order(items, "sln-annular", 1, 0))
        for other in (run.batch_order(items, "sln-annular", 2, 0), run.batch_order(items, "sln-annular", 1, 1)):
            self.assertNotEqual([i["id"] for i in a], [i["id"] for i in other])
            self.assertEqual(sorted(i["id"] for i in a), sorted(i["id"] for i in other))


class TimelineTest(unittest.TestCase):
    def test_probes_are_left_out_and_set_the_scale(self):
        ref = calibrate.REF_PROBE_S
        # probes at the reference speed, then at half speed, each followed by 1 s of work
        steady = calibrate.Timeline([(0.0, ref), (1 + ref, 1 + 2 * ref)])
        self.assertAlmostEqual(steady.between(0.0, 1 + 2 * ref), 1.0)
        slow = calibrate.Timeline([(0.0, 2 * ref), (1 + 2 * ref, 1 + 4 * ref), (2 + 4 * ref, 2 + 6 * ref)])
        self.assertAlmostEqual(slow.between(0.0, 2 + 6 * ref), 1.0)
        self.assertAlmostEqual(slow.between(-1.0, 0.0), 0.5)  # before the first probe
        self.assertAlmostEqual(slow.at(2 * ref), slow.at(0.0))  # inside a probe


class GateTest(unittest.TestCase):
    def test_corrupted_reference_fails_the_run(self):
        refs = copy.deepcopy(REFS)
        shortest = min(refs["default"]["spin-matrix"], key=lambda item: len(item["word"]))
        refs["default"]["spin-matrix"] = [shortest]
        shortest["value"][0][2] += 1  # one coefficient off by one
        out = io.StringIO()
        with mock.patch.object(run, "load_references", return_value=refs), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "spin-matrix", "--seed", "1", "--seconds", "0"])
        result = json.loads(out.getvalue().splitlines()[-1])
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(BENCHMARK["command"] + ["--workload", "spin-matrix", "--seed", "1",
                                                          "--seconds", "1", "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")

    def test_tail_has_ten_samples_beyond(self):
        value, label = run.tail([float(x) for x in range(100)])
        self.assertEqual(value, 89.0)
        self.assertEqual(label, "p90 of 100")
        self.assertEqual(run.tail([1.0, 3.0, 2.0]), (3.0, "max of 3"))


if __name__ == "__main__":
    unittest.main()
