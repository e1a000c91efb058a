#!/usr/bin/env python3
"""Unit tests for check_perf_regression.py (registered under ctest).

Each test drives the script as a subprocess against synthetic baseline /
current JSON pairs in a temp directory and asserts on the exit status
and the delta-table / FAIL output, because the exit status is the CI
contract: 0 clean, 1 regression, 2 bad input.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "check_perf_regression.py")
BASELINE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "bench", "baselines", "sim_scale.json")

COUNTERS = {"events": 2100, "jobs_completed": 700, "active_jobs_hwm": 43,
            "solver_calls": 5052, "solver_memo_hits": 2899,
            "solver_cache_hits": 2899, "solver_cache_misses": 2153,
            "solver_cache_evictions": 0, "select_cache_hits": 579,
            "select_cache_misses": 2112, "spec_skips": 1966,
            "futile_pass_skips": 151}


def make_doc(cells):
    """cells: list of (nodes, policy, ev/s, mean, p99[, event_us]) -> doc."""
    results = []
    for nodes, policy, evs, mean, p99, *rest in cells:
        row = {"nodes": nodes, "policy": policy, "events_per_sec": evs}
        if mean is not None:
            row["decision_us_mean"] = mean
        if p99 is not None:
            row["decision_us_p99"] = p99
        if rest and rest[0] is not None:
            row["event_us_mean"] = rest[0]
        results.append(row)
    return {"bench": "sim_scale", "results": results}


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

    def run_pair(self, base_cells, cur_cells, *extra):
        base = self.write("base.json", make_doc(base_cells))
        cur = self.write("cur.json", make_doc(cur_cells))
        return self.run_script("--baseline", base, "--current", cur, *extra)

    def test_identical_results_pass(self):
        cells = [(4096, "CE", 200000.0, 5.0, 90.0),
                 (4096, "SNS", 20000.0, 55.0, 500.0)]
        r = self.run_pair(cells, cells)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("OK:", r.stdout)

    def test_throughput_collapse_fails(self):
        base = [(4096, "SNS", 20000.0, 55.0, 500.0)]
        cur = [(4096, "SNS", 1000.0, 55.0, 500.0)]  # 20x collapse
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 1)
        self.assertIn("events/sec", r.stderr)
        self.assertIn("4096 nodes/SNS", r.stderr)

    def test_mean_growth_fails(self):
        base = [(4096, "SNS", 20000.0, 55.0, 500.0)]
        cur = [(4096, "SNS", 20000.0, 1100.0, 500.0)]  # 20x mean growth
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 1)
        self.assertIn("decision_us_mean", r.stderr)
        self.assertNotIn("decision_us_p99", r.stderr)

    def test_p99_growth_fails(self):
        base = [(4096, "SNS", 20000.0, 55.0, 500.0)]
        cur = [(4096, "SNS", 20000.0, 55.0, 12000.0)]  # 24x p99 growth
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 1)
        self.assertIn("decision_us_p99", r.stderr)
        self.assertNotIn("decision_us_mean", r.stderr)

    def test_growth_within_tolerance_passes(self):
        base = [(4096, "SNS", 20000.0, 55.0, 500.0)]
        cur = [(4096, "SNS", 5000.0, 300.0, 3000.0)]  # all < 8x
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_tighter_mean_tolerance_flag(self):
        base = [(4096, "SNS", 20000.0, 55.0, 500.0)]
        cur = [(4096, "SNS", 20000.0, 300.0, 500.0)]  # ~5.5x mean growth
        self.assertEqual(self.run_pair(base, cur).returncode, 0)
        r = self.run_pair(base, cur, "--mean-tolerance", "4")
        self.assertEqual(r.returncode, 1)
        self.assertIn("decision_us_mean", r.stderr)

    def test_event_us_growth_fails(self):
        base = [(4096, "SNS", 20000.0, 55.0, 500.0, 40.0)]
        cur = [(4096, "SNS", 20000.0, 55.0, 500.0, 800.0)]  # 20x per-event
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 1)
        self.assertIn("event_us_mean", r.stderr)
        self.assertNotIn("decision_us_mean", r.stderr)

    def test_tighter_event_tolerance_flag(self):
        base = [(4096, "SNS", 20000.0, 55.0, 500.0, 40.0)]
        cur = [(4096, "SNS", 20000.0, 55.0, 500.0, 200.0)]  # 5x per-event
        self.assertEqual(self.run_pair(base, cur).returncode, 0)
        r = self.run_pair(base, cur, "--event-tolerance", "4")
        self.assertEqual(r.returncode, 1)
        self.assertIn("event_us_mean", r.stderr)

    def test_baseline_missing_event_us_skips_that_signal(self):
        # Baselines predating event_us_mean gate only the other signals.
        base = [(4096, "SNS", 20000.0, 55.0, 500.0)]
        cur = [(4096, "SNS", 20000.0, 55.0, 500.0, 9999.0)]
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_baseline_missing_mean_skips_that_signal(self):
        # Baselines predating decision_us_mean gate only ev/s and p99.
        base = [(4096, "SNS", 20000.0, None, 500.0)]
        cur = [(4096, "SNS", 20000.0, 9999.0, 500.0)]
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_empty_results_is_bad_input(self):
        base = self.write("base.json", {"results": []})
        cur = self.write("cur.json",
                         make_doc([(4096, "SNS", 1.0, 1.0, 1.0)]))
        r = self.run_script("--baseline", base, "--current", cur)
        self.assertEqual(r.returncode, 2)

    def test_missing_file_is_bad_input(self):
        cur = self.write("cur.json", make_doc([(4096, "SNS", 1.0, 1.0, 1.0)]))
        r = self.run_script("--baseline",
                            os.path.join(self.tmp.name, "nope.json"),
                            "--current", cur)
        self.assertEqual(r.returncode, 2)

    def test_no_overlapping_cells_is_bad_input(self):
        base = [(4096, "SNS", 20000.0, 55.0, 500.0)]
        cur = [(8192, "CE", 20000.0, 5.0, 90.0)]
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 2)
        self.assertIn("(missing from current run)", r.stdout)

    def test_delta_table_marks_offender(self):
        base = [(4096, "CE", 200000.0, 5.0, 90.0),
                (4096, "SNS", 20000.0, 55.0, 500.0)]
        cur = [(4096, "CE", 200000.0, 5.0, 90.0),
               (4096, "SNS", 20000.0, 55.0, 12000.0)]
        r = self.run_pair(base, cur)
        self.assertEqual(r.returncode, 1)
        self.assertIn("24.00x!", r.stdout)

    def run_counters(self, base_counters, cur_counters):
        """One SNS cell with equal timings and the given counter fields."""
        base = make_doc([(4096, "SNS", 20000.0, 55.0, 500.0)])
        cur = make_doc([(4096, "SNS", 20000.0, 55.0, 500.0)])
        base["results"][0].update(base_counters)
        cur["results"][0].update(cur_counters)
        return self.run_script("--baseline", self.write("base.json", base),
                               "--current", self.write("cur.json", cur))

    def test_equal_counters_pass(self):
        r = self.run_counters(COUNTERS, COUNTERS)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("counters exact", r.stdout)

    def test_any_counter_difference_fails_and_names_it(self):
        for field in COUNTERS:
            cur = dict(COUNTERS)
            cur[field] += 1
            r = self.run_counters(COUNTERS, cur)
            self.assertEqual(r.returncode, 1, field)
            self.assertIn(f"{field} baseline {COUNTERS[field]}, "
                          f"current {COUNTERS[field] + 1}", r.stderr)
            self.assertIn("4096 nodes/SNS", r.stderr)

    def test_counter_drop_fails_too(self):
        # Exact means exact: fewer solver calls is a behaviour change that
        # needs a re-baseline, not a free win.
        cur = dict(COUNTERS, solver_calls=COUNTERS["solver_calls"] - 100)
        r = self.run_counters(COUNTERS, cur)
        self.assertEqual(r.returncode, 1)
        self.assertIn("solver_calls", r.stderr)

    def test_counter_missing_from_current_fails(self):
        cur = {k: v for k, v in COUNTERS.items() if k != "spec_skips"}
        r = self.run_counters(COUNTERS, cur)
        self.assertEqual(r.returncode, 1)
        self.assertIn("spec_skips baseline 1966, current missing", r.stderr)

    def test_counter_missing_from_baseline_is_skipped(self):
        base = {k: v for k, v in COUNTERS.items() if k != "spec_skips"}
        cur = dict(COUNTERS, spec_skips=12345)
        r = self.run_counters(base, cur)
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_non_counter_fields_are_not_gated_exactly(self):
        # Timings and derived means vary run to run; only the ratio gates
        # apply to them.
        r = self.run_counters(dict(COUNTERS, wall_s=0.06, mean_turnaround_s=1.0),
                              dict(COUNTERS, wall_s=0.09, mean_turnaround_s=2.0))
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_checked_in_baseline_gates_every_counter_against_itself(self):
        with open(BASELINE) as f:
            doc = json.load(f)
        self.assertEqual(len(doc["results"]), 8)
        for row in doc["results"]:
            for field in COUNTERS:
                self.assertIn(field, row, (row["nodes"], row["policy"]))
        r = self.run_script("--baseline", BASELINE, "--current", BASELINE)
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("OK: 8 cell(s)", r.stdout)

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
