"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs every workload in quick mode, untraced and traced, on two seeds, each in
its own process, and checks that every metric BENCHMARK.json names is
emitted as a number with its unit and that no request fails.  Also checks
that the gate rejects tampered reports and that a run without an importable
negarr fails without printing a result.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

from compare import BENCH, ROOT, load_spec, run_once, verdict
from gate import Gate
from run import Program, Runner, parse_args
from workloads import QUICK, WORKLOADS, Inputs


class QuickRuns(unittest.TestCase):
    def test_every_metric_emitted_and_nothing_fails(self):
        spec = load_spec()
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        for workload in WORKLOADS:
            for seed in (1, 2):
                for trace, group in ((0, "end_to_end"), (1, "per_layer")):
                    with self.subTest(workload=workload, seed=seed, trace=trace):
                        result = run_once(ROOT, workload, seed, 1, trace=trace, quick=True)
                        self.assertEqual(sorted(result),
                                         ["attempted", "correct", "failed", "metrics"])
                        self.assertEqual(list(result["metrics"]),
                                         [m["name"] for m in spec[group]])
                        for m in spec[group]:
                            value = result["metrics"][m["name"]]
                            self.assertEqual(value["unit"], m["unit"])
                            self.assertIsInstance(value["value"], (int, float))
                        self.assertGreater(result["attempted"], 0)
                        self.assertEqual(result["failed"], 0)
                        self.assertIs(result["correct"], True)

    def test_fails_without_negarr(self):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "reports",
             "--quick", "--seconds", "1", "--src", os.path.join(BENCH, "work", "no-src")],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class CompareVerdicts(unittest.TestCase):
    metric = {"name": "pass_s", "better": "lower", "bound": 0.25}
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.01]

    def test_gain_needs_nine_wins_and_a_gap_beyond_the_parent_iqr(self):
        self.assertEqual(verdict(self.metric, self.parent, [x * 0.8 for x in self.parent]),
                         (10, "gain"))
        self.assertEqual(verdict(self.metric, self.parent, [x * 0.99 for x in self.parent])[1],
                         "no regression")
        self.assertEqual(verdict(self.metric, self.parent[:5], [0.5] * 5)[1], "no regression")

    def test_regression_and_unresolved(self):
        self.assertTrue(verdict(self.metric, self.parent,
                                [x * 1.3 for x in self.parent])[1].startswith("regression"))
        noisy = [0.6, 1.4, 0.7, 1.3, 1.0, 0.8, 1.2, 0.9, 1.1, 1.0]
        self.assertTrue(verdict(self.metric, self.parent, noisy)[1].startswith("unresolved"))


class GateRejectsTampering(unittest.TestCase):
    """Every check of the gate fires on a report changed in one place."""

    @classmethod
    def setUpClass(cls):
        os.chdir(ROOT)
        runner = Runner(parse_args(["--workload", "reports", "--quick"]), [])
        runner.program = cls.program = Program(os.path.join(ROOT, "src"))
        cls.runner = runner
        cls.gate = Gate(cls.program)
        reqs = Inputs(cls.program, "reports", 1, QUICK, "bench/work/selftest").requests(0)
        reqs += Inputs(cls.program, "search", 1, QUICK, "bench/work/selftest").requests(0)
        cls.reqs = {r.rid: r for r in reqs}

    def assert_caught(self, rid, tamper):
        req = self.reqs[rid]
        res = self.runner.call(req.argv)
        self.assertEqual(self.gate.check(req, 0, res.rc, res.out, res.err), [])
        changed = tamper(res.out)
        self.assertNotEqual(changed, res.out)
        self.assertNotEqual(self.gate.check(req, 0, res.rc, changed, res.err), [])

    @staticmethod
    def edit_json(fn):
        def tamper(out):
            report = json.loads(out)
            fn(report)
            return json.dumps(report)
        return tamper

    def test_spectrum_identity(self):
        self.assert_caught("analyze-klein-json",
                           self.edit_json(lambda r: r["spectrum"]["t"][0].__setitem__(1, 27)))

    def test_h_value(self):
        self.assert_caught("analyze-wiman-json",
                           self.edit_json(lambda r: r["h_full"]["h"].__setitem__("num", -224)))

    def test_text_report(self):
        self.assert_caught("analyze-klein-text", lambda out: out.replace("t_4=21", "t_4=20"))

    def test_closed_form(self):
        # a consistent spectrum and H that is not the catalog's
        def other(r):
            r["spectrum"].update(d=7, s=7, t=[[3, 7]])
            r["h_full"].update(h={"num": -2, "den": 1}, d=7, s=7, sum_m=21, sum_m_sq=63,
                               mbar={"num": 3, "den": 1})
        self.assert_caught("analyze-klein-json", self.edit_json(other))

    def test_formula(self):
        self.assert_caught("formula-wiman",
                           self.edit_json(lambda r: r["h_formula"].__setitem__("den", 1)))

    def test_removal(self):
        self.assert_caught("pairs-klein", self.edit_json(lambda r: r.__setitem__("d_new", 20)))

    def test_generate(self):
        self.assert_caught("generate-klein", lambda out: out.replace("t 4 21", "t 4 20"))

    def test_search_best(self):
        self.assert_caught("search-q1",
                           self.edit_json(lambda r: r["best"].__setitem__("removed", [0, 1])))

    def test_input_error(self):
        self.assert_caught("analyze-bad-identity", lambda out: out + "stray output")

    def test_digest(self):
        req = self.reqs["analyze-klein-json"]
        res = self.runner.call(req.argv)
        gate = Gate(self.program, {f"0/{req.rid}": "0" * 64})
        self.assertNotEqual(gate.check(req, 0, res.rc, res.out, res.err), [])


if __name__ == "__main__":
    unittest.main()
