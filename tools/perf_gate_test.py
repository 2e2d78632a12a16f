#!/usr/bin/env python3
"""Verdicts of the benchmark gate's compare step (tools/perf_gate.py) on
canned result lines, against the repository's own BENCHMARK.json.

    python3 tools/perf_gate_test.py
"""

import copy
import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import perf_gate  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
    CONFIG = json.load(f)


def result(scale=None):
    """A correct run.py result line; `scale` multiplies named metrics."""
    scale = scale or {}
    metrics = {m["name"]: {"value": 10.0 * scale.get(m["name"], 1.0),
                           "unit": m["unit"]}
               for m in CONFIG["end_to_end"]}
    return {"correct": True, "attempted": 100, "failed": 0,
            "metrics": metrics}


def runs(change=None, parent=None, workload="board-cold"):
    """Three pairs per workload. `change`/`parent` replace the result of
    every run of that side on `workload`."""
    out = []
    for w in CONFIG["workloads"]:
        for pair in range(perf_gate.RUNS):
            for side in perf_gate.SIDES:
                r = result()
                if w["name"] == workload:
                    r = copy.deepcopy({"change": change,
                                       "parent": parent}[side] or r)
                out.append({"workload": w["name"], "side": side,
                            "pair": pair, "seed": pair + 1, "exit": 0,
                            "result": r})
    return out


class CompareTest(unittest.TestCase):
    def verdict(self, runs_):
        report, failures = perf_gate.compare(CONFIG, runs_)
        self.assertEqual(
            len(report) + sum(" missing " in f for f in failures),
            len(CONFIG["workloads"]) * len(CONFIG["end_to_end"]))
        return failures

    def test_inside_every_bound_passes(self):
        # 20% worse on every lower-better metric and 20% lower on every
        # higher-better one is still inside a 0.25 bound; RSS 5% inside 0.1.
        scale = {m["name"]: (1.2 if m["better"] == "lower" else 0.8)
                 for m in CONFIG["end_to_end"]}
        scale["peak_rss_mb"] = 1.05
        self.assertEqual(self.verdict(runs(change=result(scale))), [])

    def test_lower_better_metric_thirty_percent_worse_fails(self):
        failures = self.verdict(
            runs(change=result({"latency_ms.p50": 1.3}),
                 workload="product-line"))
        self.assertEqual(len(failures), 1)
        self.assertIn("product-line: latency_ms.p50", failures[0])

    def test_higher_better_metric_thirty_percent_lower_fails(self):
        failures = self.verdict(
            runs(change=result({"throughput_per_s": 0.7}),
                 workload="daemon-mixed"))
        self.assertEqual(len(failures), 1)
        self.assertIn("daemon-mixed: throughput_per_s", failures[0])

    def test_higher_better_metric_higher_passes(self):
        self.assertEqual(
            self.verdict(runs(change=result({"throughput_per_s": 2.0}))), [])

    def test_incorrect_run_fails_on_either_side(self):
        for side in perf_gate.SIDES:
            bad = result()
            bad["correct"] = False
            failures = self.verdict(runs(**{side: bad}))
            self.assertTrue(failures, side)
            self.assertTrue(all("board-cold: %s run" % side in f and
                                "correct: false" in f for f in failures),
                            failures)

    def test_failed_requests_fail_on_either_side(self):
        for side in perf_gate.SIDES:
            bad = result()
            bad["failed"] = 1
            failures = self.verdict(runs(**{side: bad}))
            self.assertTrue(failures, side)
            self.assertTrue(all("reports failed: 1" in f for f in failures),
                            failures)

    def test_nonzero_exit_or_missing_result_fails(self):
        broken = runs()
        broken[0]["exit"] = 1
        broken[0]["result"] = None
        _, failures = perf_gate.compare(CONFIG, broken)
        self.assertEqual(len(failures), 2)
        self.assertIn("exited 1", failures[0])
        self.assertIn("printed no result", failures[1])


if __name__ == "__main__":
    unittest.main()
