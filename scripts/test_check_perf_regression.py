#!/usr/bin/env python3
"""Unit tests for check_perf_regression.py (registered under ctest).

Each test drives the script as a subprocess against synthetic perfbench
result directories (base commit / HEAD) in a temp directory and asserts on
the exit status and the table / FAIL output, because the exit status is the
CI contract: 0 clean, 1 regression, 2 bad input.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_perf_regression.py")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    WORKLOADS = [w["name"] for w in json.load(_f)["workloads"]]

# One run's metrics per trace mode, as perfbench/run.py reports them.
METRICS = {
    0: {"events_per_s": 28000.0, "replay_s": 0.75, "setup_s": 0.4,
        "sim_makespan_h": 700.0},
    1: {"policy.place_us_p50": 13.0, "policy.place_us_p99": 250.0,
        "policy.replay_match_ratio": 1.0},
}


def result_text(trace, metrics=None, correct=True, failed=0):
    """run.py stdout: a provenance line, then the result JSON last."""
    metrics = METRICS[trace] if metrics is None else metrics
    doc = {"correct": correct, "attempted": 7044, "failed": failed,
           "metrics": {name: {"value": value, "unit": "-"}
                       for name, value in metrics.items()}}
    return "provenance nproc=4\n" + json.dumps(doc) + "\n"


class CheckPerfRegressionTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, doc):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    def run_script(self, *args):
        return subprocess.run([sys.executable, SCRIPT, *args],
                              capture_output=True, text=True)

    def side(self, name, edits=None):
        """A results directory for every workload and trace mode; `edits`
        maps (workload, trace) to result_text() keyword arguments."""
        path = tempfile.mkdtemp(prefix=name, dir=self.tmp.name)
        for w in WORKLOADS:
            for t in (0, 1):
                text = result_text(t, **(edits or {}).get((w, t), {}))
                with open(os.path.join(path, f"{w}.trace{t}.txt"), "w") as f:
                    f.write(text)
        return path

    def run_pair(self, head_edits=None, base_edits=None):
        return self.run_script("--base", self.side("base", base_edits),
                               "--head", self.side("head", head_edits))

    def test_identical_results_pass(self):
        r = self.run_pair()
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn(f"OK: {len(WORKLOADS)} workload(s)", r.stdout)

    def test_events_per_s_collapse_fails_and_names_workload_and_metric(self):
        w = WORKLOADS[-1]
        slow = dict(METRICS[0], events_per_s=METRICS[0]["events_per_s"] / 9)
        r = self.run_pair({(w, 0): {"metrics": slow}})
        self.assertEqual(r.returncode, 1)
        self.assertIn(f"FAIL: {w}: events_per_s", r.stderr)
        self.assertIn("9.00x!", r.stdout)
        for other in WORKLOADS[:-1]:
            self.assertNotIn(other, r.stderr)

    def test_place_p99_growth_fails(self):
        w = WORKLOADS[0]
        slow = dict(METRICS[1], **{"policy.place_us_p99": 250.0 * 9})
        r = self.run_pair({(w, 1): {"metrics": slow}})
        self.assertEqual(r.returncode, 1)
        self.assertIn(f"FAIL: {w}: policy.place_us_p99", r.stderr)
        self.assertNotIn("events_per_s", r.stderr)

    def test_slowdown_within_factor_passes(self):
        w = WORKLOADS[0]
        slow0 = dict(METRICS[0], events_per_s=METRICS[0]["events_per_s"] / 7,
                     replay_s=METRICS[0]["replay_s"] * 7)
        slow1 = dict(METRICS[1], **{"policy.place_us_p50": 13.0 * 7})
        r = self.run_pair({(w, 0): {"metrics": slow0}, (w, 1): {"metrics": slow1}})
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_incorrect_head_results_fail(self):
        w = WORKLOADS[0]
        unmatched = dict(METRICS[1], **{"policy.replay_match_ratio": 0.999})
        cases = {
            "correct false": {(w, 0): {"correct": False}},
            "failed jobs": {(w, 1): {"failed": 3}},
            "replay mismatch": {(w, 1): {"metrics": unmatched}},
        }
        for label, edits in cases.items():
            with self.subTest(label):
                r = self.run_pair(edits)
                self.assertEqual(r.returncode, 1, r.stdout)
                self.assertIn(f"not correct: {w}", r.stderr)

    def test_incorrect_base_results_are_not_gated(self):
        r = self.run_pair(base_edits={(WORKLOADS[0], 0): {"correct": False}})
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_missing_workload_on_either_side_is_bad_input(self):
        for side in ("base", "head"):
            with self.subTest(side):
                base, head = self.side("base"), self.side("head")
                victim = os.path.join(base if side == "base" else head,
                                      f"{WORKLOADS[1]}.trace0.txt")
                os.remove(victim)
                r = self.run_script("--base", base, "--head", head)
                self.assertEqual(r.returncode, 2)
                self.assertIn(WORKLOADS[1], r.stderr)

    def test_missing_gated_metric_is_bad_input(self):
        partial = {k: v for k, v in METRICS[0].items() if k != "replay_s"}
        r = self.run_pair(base_edits={(WORKLOADS[0], 0): {"metrics": partial}})
        self.assertEqual(r.returncode, 2)
        self.assertIn("replay_s", r.stderr)

    def test_result_without_json_line_is_bad_input(self):
        head = self.side("head")
        with open(os.path.join(head, f"{WORKLOADS[0]}.trace1.txt"), "w") as f:
            f.write("run.py: build step exited 2\n")
        r = self.run_script("--base", self.side("base"), "--head", head)
        self.assertEqual(r.returncode, 2)

    def run_observer(self, overheads):
        """overheads: {variant name: overhead} -> gate run."""
        doc = {"bench": "observer_overhead", "variants": [
            {"name": name, "min_ms": 100.0, "overhead": over}
            for name, over in overheads.items()]}
        return self.run_script("--observer-overhead",
                               self.write("observer.json", doc))

    def test_observer_gated_variant_over_budget_fails_and_names_it(self):
        r = self.run_observer({"obs": 0.01, "telemetry": 0.01,
                               "xray_sampled": 0.12, "xray_full": 0.01,
                               "flight": 0.01})
        self.assertEqual(r.returncode, 1)
        self.assertIn("budget", r.stderr)
        self.assertIn("xray_sampled", r.stderr)
        self.assertNotIn("flight", r.stderr)

    def test_observer_gated_variants_within_budget_pass(self):
        r = self.run_observer({"obs": 0.03, "telemetry": 0.02,
                               "xray_sampled": 0.095, "xray_full": 0.05,
                               "flight": 0.07})
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_observer_ungated_variants_over_budget_pass(self):
        r = self.run_observer({"obs": 0.4, "telemetry": 0.0,
                               "xray_sampled": 0.0, "xray_full": 0.5,
                               "flight": 0.0})
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("xray_full", r.stdout)

    def test_observer_missing_overhead_field_is_bad_input(self):
        doc = {"variants": [{"name": "telemetry", "overhead": 0.01},
                            {"name": "xray_sampled", "overhead": 0.01},
                            {"name": "flight", "min_ms": 100.0}]}
        r = self.run_script("--observer-overhead",
                            self.write("observer.json", doc))
        self.assertEqual(r.returncode, 2)
        self.assertIn("flight", r.stderr)

    def test_observer_missing_variants_is_bad_input(self):
        r = self.run_script("--observer-overhead",
                            self.write("observer.json", {"reps": 7}))
        self.assertEqual(r.returncode, 2)


if __name__ == "__main__":
    unittest.main()
