#!/usr/bin/env python3
"""API-surface guard for the Fig-20 replay benchmark.

The benchmark must bind only to simulator API that the planned engine and
observer consolidations keep. This check fails if the benchmark's C++
sources or build file name any of:

  * a SimOptFlags field, the type itself, or SimConfig's `opt` member;
  * ResourceLedger::setFullScan / setSelectionCache, SolverCache::setFlatSolve;
  * telemetry's PhaseProfiler, or anything in the xray:: namespace;
  * the SimConfig observer hooks (sink, metrics, sampler, phases, xray,
    auditor, flight, on_start, on_finish) accessed as members.

Comments, string literals and #include lines are ignored: only code can
create a dependency. Run it directly:

    python3 perfbench/test_api_surface.py
"""

import os
import re
import unittest

OPT_FIELDS = [
    "indexed_ledger", "memoize_solves", "single_pass_schedule",
    "incremental_prune", "batched_scoring", "parallel_select", "simd_solver",
    "parallel_min_candidates", "lazy_progress", "finish_calendar",
    "futile_pass_gate", "dedup_node_solves", "slot_rates",
]
OBSERVER_HOOKS = [
    "sink", "metrics", "sampler", "phases", "xray", "auditor", "flight",
    "on_start", "on_finish",
]
FORBIDDEN = [
    (re.compile(r"\b(?:%s)\b" % "|".join(OPT_FIELDS)), "SimOptFlags field"),
    (re.compile(r"\bSimOptFlags\b"), "SimOptFlags"),
    (re.compile(r"(?:\.|->)\s*opt\b"), "SimConfig::opt"),
    (re.compile(r"\b(?:setFullScan|setSelectionCache|setFlatSolve)\b"),
     "legacy A/B switch"),
    (re.compile(r"\bPhaseProfiler\b"), "PhaseProfiler"),
    (re.compile(r"\bxray\s*::"), "xray:: tracer"),
    (re.compile(r"(?:\.|->)\s*(?:%s)\b" % "|".join(OBSERVER_HOOKS)),
     "SimConfig observer hook"),
]
SOURCE_SUFFIXES = (".cpp", ".hpp", ".h", ".cc")

_STRIP = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|^[ \t]*#[ \t]*include[^\n]*',
    re.DOTALL | re.MULTILINE)


def strip_non_code(text):
    """Blank out comments, string/char literals and #include lines, keeping
    line breaks so reported line numbers stay right."""
    return _STRIP.sub(lambda m: "\n" * m.group(0).count("\n"), text)


def scan_text(text):
    """(line, what) for every forbidden use in one source text."""
    code = strip_non_code(text)
    hits = []
    for pattern, what in FORBIDDEN:
        for m in pattern.finditer(code):
            hits.append((code.count("\n", 0, m.start()) + 1, what, m.group(0)))
    return sorted(hits)


def benchmark_sources(root):
    for dirpath, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(SOURCE_SUFFIXES) or name == "CMakeLists.txt":
                yield os.path.join(dirpath, name)


def violations(root):
    out = []
    for path in benchmark_sources(root):
        with open(path, encoding="utf-8") as f:
            for line, what, text in scan_text(f.read()):
                out.append("%s:%d: %s (%s)" % (os.path.relpath(path, root), line,
                                               text.strip(), what))
    return out


class ApiSurfaceTest(unittest.TestCase):
    def test_benchmark_sources_are_clean(self):
        here = os.path.dirname(os.path.abspath(__file__))
        self.assertTrue(any(benchmark_sources(here)), "no sources found")
        self.assertEqual(violations(here), [])

    def test_detects_each_forbidden_use(self):
        cases = [
            "cfg.opt.batched_scoring = false;",
            "sns::sim::SimOptFlags f;",
            "ledger.setFullScan(true);",
            "cache.setFlatSolve(true);",
            "sns::telemetry::PhaseProfiler prof;",
            "sns::xray::Tracer tracer;",
            "cfg.metrics = &registry;",
            "cfg->sink = &sink;",
            "cfg.on_finish = [](const JobRecord&) {};",
            "SimConfig c{.flight = &rec};",
        ]
        for code in cases:
            with self.subTest(code=code):
                self.assertTrue(scan_text(code), code)

    def test_ignores_comments_strings_and_includes(self):
        clean = "\n".join([
            '#include "sns/sched/finish_calendar.hpp"',
            "// cfg.metrics would bind to an observer hook",
            "/* SimOptFlags */",
            'std::printf("\\"metrics\\": {");',
            "sched::FinishCalendar calendar;",
            "double metrics_total = 0.0;",
        ])
        self.assertEqual(scan_text(clean), [])


if __name__ == "__main__":
    unittest.main()
