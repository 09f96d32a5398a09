"""Fast self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic span tree, that every
metric name is well formed and matches BENCHMARK.json, and that a
command which exits nonzero counts as a failed run.
"""

from __future__ import annotations

import json
import sys
import time
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from spans import LAYER_METRICS, METRIC_NAME, Recorder, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MS = 1_000_000  # ns


def _tree(spans):
    """Dump of (name, start_ms, end_ms, parent index) tuples."""
    names = sorted({s[0] for s in spans})
    return {
        "names": names,
        "name_id": [names.index(s[0]) for s in spans],
        "start": [s[1] * MS for s in spans],
        "end": [s[2] * MS for s in spans],
        "parent": [s[3] for s in spans],
        "counters": {},
    }


class SelfTimeArithmetic(unittest.TestCase):
    # cli.main [0, 100] holds runner.chunk [10, 40] and coupling.run_three_phase
    # [50, 90]; the chunk holds a draw [15, 25], and a draw [85, 95] under the
    # coupled run sticks out of its parent, so only [85, 90] counts against it.
    SPANS = [
        ("cli.main", 0, 100, -1),
        ("runner.chunk", 10, 40, 0),
        ("distributions.DistributionSpec.sample", 15, 25, 1),
        ("coupling.run_three_phase", 50, 90, 0),
        ("distributions.DistributionSpec.sample", 85, 95, 3),
    ]

    def test_self_times(self):
        own = self_times(_tree(self.SPANS))
        self.assertEqual([round(s * 1e3, 9) for s in own], [30, 20, 10, 35, 10])

    def test_layer_totals(self):
        m = layer_metrics(_tree(self.SPANS))
        self.assertAlmostEqual(m["cli.self_s"], 0.030)
        self.assertAlmostEqual(m["runner.self_s"], 0.020)
        self.assertAlmostEqual(m["coupling.self_s"], 0.035)
        self.assertAlmostEqual(m["distributions.self_s"], 0.020)
        self.assertAlmostEqual(m["coupling.us_per_replica"], 40_000)
        self.assertAlmostEqual(m["distributions.sample_calls_per_replica"], 2)

    def test_overlapping_siblings_rejected(self):
        spans = [("cli.main", 0, 100, -1), ("rates.find_w", 10, 50, 0), ("rates.solve_renewal", 40, 60, 0)]
        with self.assertRaises(ValueError):
            self_times(_tree(spans))

    def test_recorder_nesting(self):
        rec = Recorder()
        inner = rec.wrap("distributions.hazard_profile", lambda: time.sleep(0.001))
        outer = rec.wrap("pdmp.simulate_path", lambda: inner() or inner())
        outer()
        dump = rec.dump()
        self.assertEqual(dump["parent"], [-1, 0, 0])
        own = self_times(dump)
        self.assertGreaterEqual(min(own), 0.0)
        total = (dump["end"][0] - dump["start"][0]) * 1e-9
        self.assertAlmostEqual(sum(own), total, places=9)


class MetricNames(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    def test_names_well_formed(self):
        for name in [*run.END_TO_END, *LAYER_METRICS, *WORKLOADS]:
            self.assertTrue(METRIC_NAME.fullmatch(name), name)

    def test_names_and_units_match_benchmark_json(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]}, LAYER_METRICS)
        self.assertEqual({w["name"]: w["why"] for w in self.spec["workloads"]},
                         {w.name: w.why for w in WORKLOADS.values()})


class FailedRuns(unittest.TestCase):
    def test_nonzero_exit_counts_as_failed(self):
        broken = replace(WORKLOADS["verify-reference"], config="perfbench/configs/missing.yaml")
        bad = run.run_once(broken, 1, run.RUNS / "selftest", False, time.monotonic() + 60)
        self.assertIn("exit status 2", bad["errors"])
        good = {"errors": [], "wall_s": 1.0, "setup_s": 0.5, "replicas_per_s": 2.0, "peak_rss_mib": 80.0}
        result = run.summarize([good, bad], [])
        self.assertEqual((result["attempted"], result["failed"]), (2, 1))
        self.assertEqual(result["failed"] / result["attempted"], 0.5)
        self.assertEqual(result["metrics"]["wall_s"]["value"], 1.0)


if __name__ == "__main__":
    unittest.main()
