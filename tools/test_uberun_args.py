#!/usr/bin/env python3
"""Typed numeric options of uberun: a malformed or out-of-range value is a
usage error (exit 1) whose message names the option and the value, never an
internal assertion or a bare conversion failure.

    python3 tools/test_uberun_args.py build/tools/uberun
"""

import subprocess
import sys
import unittest

UBERUN = None


def run(*args):
    return subprocess.run([UBERUN, *args], capture_output=True, text=True,
                          timeout=120)


class TypedOptions(unittest.TestCase):
    def expect_usage_error(self, args, option, value):
        r = run(*args)
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn(option, r.stderr)
        self.assertIn("'%s'" % value, r.stderr)

    def test_node_count_rejects_non_positive_and_malformed(self):
        for value in ("abc", "0", "-3", "4x"):
            with self.subTest(value=value):
                self.expect_usage_error(
                    ["metrics", "--workload", "quickstart", "--nodes", value],
                    "--nodes", value)

    def test_seed_must_be_a_non_negative_integer(self):
        for value in ("-1", "1.5"):
            with self.subTest(value=value):
                self.expect_usage_error(
                    ["metrics", "--workload", "random", "--seed", value],
                    "--seed", value)

    def test_real_options_parse_the_whole_value(self):
        self.expect_usage_error(
            ["metrics", "--workload", "quickstart", "--period", "2s"],
            "--period", "2s")

    def test_valid_values_still_run(self):
        r = run("metrics", "--workload", "quickstart", "--nodes", "4")
        self.assertEqual(r.returncode, 0, r.stderr)

    def test_plan_job_fields_parse_whole_and_in_range(self):
        # PROCS must be an integer > 0; ALPHA a number in (0, 1], the range
        # job-list files enforce.
        for value in ("WC:abc", "WC:0", "WC:-4", "WC:16abc", "WC:16:1.5",
                      "WC:16:0", "WC:16:nan"):
            with self.subTest(value=value):
                self.expect_usage_error(["plan", "--job", value], "--job",
                                        value)

    def test_plan_valid_job_still_runs(self):
        r = run("plan", "--job", "WC:16:0.9")
        self.assertEqual(r.returncode, 0, r.stderr)


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: test_uberun_args.py PATH/TO/uberun")
    UBERUN = sys.argv.pop(1)
    unittest.main()
