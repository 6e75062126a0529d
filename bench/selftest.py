"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the root of
a checkout (stdlib ``unittest``, about ten seconds).

Each workload runs at a reduced size through the same ``run.py`` and
``worker.py`` code as a real run.  Clean outputs must pass every check, traced runs must
report every per-layer metric, and a deliberately corrupted output must
drive ``fail_share`` above zero, so the checks are not vacuous.
"""

from __future__ import annotations

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def declared_metrics(kind: str) -> set:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        return {m["name"] for m in json.load(f)[kind]}


class SelfTest(unittest.TestCase):
    def test_clean_outputs_pass(self):
        for workload in run.WORKLOADS:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = run.run(workload, seed=1, seconds=0, trace=trace, small=True)
                    self.assertEqual(result["details"]["failures"], [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(set(result["metrics"]), declared_metrics(kind))

    def test_corrupted_output_fails(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                result = run.run(workload, seed=1, seconds=0, trace=0, small=True, corrupt=True)
                self.assertFalse(result["correct"])
                self.assertGreater(result["details"]["fail_share"], 0)


if __name__ == "__main__":
    unittest.main()
