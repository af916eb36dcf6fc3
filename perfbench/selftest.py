"""Tests of the benchmark itself (stdlib unittest).

Usage, from the repository root:

    python3 perfbench/selftest.py

Checks the tracer's self-time arithmetic on synthetic span trees, that
traced and untraced workers give identical op outputs for one seed, that
two traced runs with the same seed repeat every work counter exactly,
that every per-layer metric of BENCHMARK.json is produced, and that the
benchmark refuses to run where the seqchain sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer, is_deterministic  # noqa: E402


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


class SelfTimeTest(unittest.TestCase):
    def test_nested_tree(self):
        # A[0,10] { B[1,4] { C[2,3] }, B[5,8] }
        t = Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 8, 10]))
        t.enter("A")
        t.enter("B")
        t.enter("C")
        t.exit()
        t.exit()
        t.enter("B")
        t.exit()
        t.exit()
        self.assertEqual(t.self_time["A"], 10 - 3 - 3)
        self.assertEqual(t.self_time["B"], (3 - 1) + 3)
        self.assertEqual(t.self_time["C"], 1)
        self.assertEqual(t.incl["B"], 6)
        self.assertEqual(sum(t.self_time.values()), t.incl["A"])
        self.assertEqual(t.edges["A", "B"], 2)
        self.assertEqual(t.calls["B"], 2)

    def test_recursion_counts_outermost_inclusive_once(self):
        # A[0,10] { A[2,6] { B[3,4] } }
        t = Tracer(clock=FakeClock([0, 2, 3, 4, 6, 10]))
        t.enter("A")
        t.enter("A")
        t.enter("B")
        t.exit()
        t.exit()
        t.exit()
        self.assertEqual(t.incl["A"], 10)
        self.assertEqual(t.self_time["A"], 9)
        self.assertEqual(t.self_time["B"], 1)

    def test_hidden_observer_time_is_charged_to_no_span(self):
        # A[0,10] { B[1,3], observer 3..5 }
        t = Tracer(clock=FakeClock([0, 1, 3, 5, 10]))
        t.enter("A")
        t.enter("B")
        end = t.exit()
        t.hide(end)
        t.exit()
        self.assertEqual(t.self_time["A"], 10 - 2 - 2)


SMALL_OPS = {"construct": 9, "approx": 4, "classify": 100}


class WorkerTest(unittest.TestCase):
    def test_traced_runs_match_untraced_and_each_other(self):
        per_layer = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
        for workload, ops in SMALL_OPS.items():
            with self.subTest(workload=workload):
                _, plain = run.spawn(workload, 7, "prefix", ops=ops)
                _, first = run.spawn(workload, 7, "trace", ops=ops)
                _, second = run.spawn(workload, 7, "trace", ops=ops)
                self.assertEqual(plain["op_list_sha256"], first["op_list_sha256"])
                self.assertEqual(plain["outputs_sha256"], first["outputs_sha256"])
                self.assertEqual(first["outputs_sha256"], second["outputs_sha256"])
                counters = [k for k in first["layers"] if is_deterministic(k)]
                self.assertIn("sequences.term.calls", counters)
                for name in counters:
                    self.assertEqual(first["layers"][name], second["layers"][name], name)
                produced = set(first["layers"]) | {"trace.overhead_s"}
                self.assertEqual([m["name"] for m in per_layer if m["name"] not in produced], [])

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(HERE.parent / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, str(Path(tmp) / HERE.name / "run.py"), "--workload", "classify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=120,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
