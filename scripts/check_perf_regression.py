#!/usr/bin/env python3
"""Guard the Fig-20 replay against correctness loss and throughput collapse.

With --base DIR --head DIR the script compares Fig-20 replay benchmark
(perfbench/) results taken on one machine at the base commit and at HEAD.
Each directory holds, for every workload BENCHMARK.json lists, the stdout of

    python3 perfbench/run.py --workload W --seed 1 --seconds 10 --trace T

for T = 0 and T = 1, in files named W.trace0.txt and W.trace1.txt. The last
line of each is the run's result JSON. Two checks follow:

  * correctness: every HEAD run must report correct: true and failed: 0,
    and every --trace 1 run policy.replay_match_ratio = 1.0;
  * collapse: no HEAD value may be more than FACTOR (8x) worse than its
    base value on events_per_s, replay_s (--trace 0 runs) or
    policy.place_us_p50 / policy.place_us_p99 (--trace 1 runs).

Both sides run on the same machine, so the ratio cancels the hardware, and
8x shrugs off shared-runner noise while catching an algorithmic regression
(an accidental O(N) scan in the hot loop, a memo wired off). The tighter
BENCHMARK.json bounds are judged on medians by the benchmark itself. On
failure the per-workload table names the offending workload and metric.

With --observer-overhead FILE the script also gates the observer overheads
recorded by bench_observer_overhead (BENCH_observer_overhead.json): each
GATED_VARIANTS entry (telemetry sampler, xray sampled, flight recorder) must
be present and stay within OBSERVER_BUDGET (10% over the shared "all off"
run, min over reps). The other variants (obs, xray full) are printed but
never fail.

Exit status: 0 clean, 1 regression, 2 bad input (an unreadable result, a
workload or metric missing on either side).
"""

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FACTOR = 8.0
OBSERVER_BUDGET = 0.10
GATED_VARIANTS = ("telemetry", "xray_sampled", "flight")
TRACE_MODES = (0, 1)

# (metric, trace mode that reports it, better). A "higher" metric fails
# when HEAD falls below base / FACTOR, a "lower" one when HEAD grows past
# base * FACTOR.
GATED_METRICS = [
    ("events_per_s", 0, "higher"),
    ("replay_s", 0, "lower"),
    ("policy.place_us_p50", 1, "lower"),
    ("policy.place_us_p99", 1, "lower"),
]


def bad_input(msg):
    print(f"error: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        bad_input(f"cannot read {path}: {e}")


def workloads():
    return [w["name"] for w in load_json(os.path.join(ROOT, "BENCHMARK.json"))["workloads"]]


def load_result(path):
    """The result JSON on the last non-empty line of one run's stdout."""
    try:
        with open(path) as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
        result = json.loads(lines[-1])
        metrics = {name: float(m["value"]) for name, m in result["metrics"].items()}
        return result["correct"], result["failed"], metrics
    except (OSError, ValueError, IndexError, KeyError, TypeError, AttributeError) as e:
        bad_input(f"cannot read a perfbench result from {path}: {e!r}")


def load_side(directory):
    """{workload: {trace mode: (correct, failed, metrics)}}."""
    return {w: {t: load_result(os.path.join(directory, f"{w}.trace{t}.txt"))
                for t in TRACE_MODES}
            for w in workloads()}


def correctness_failures(head):
    out = []
    for w, runs in head.items():
        for t, (correct, failed, _) in runs.items():
            if correct is not True or failed != 0:
                out.append(f"{w} --trace {t}: correct {json.dumps(correct)}, failed {failed}")
        ratio = runs[1][2].get("policy.replay_match_ratio")
        if ratio != 1.0:
            out.append(f"{w} --trace 1: policy.replay_match_ratio {ratio}")
    return out


def compare(base, head):
    """Prints the per-workload table; returns the (workload, metric) pairs
    more than FACTOR worse at HEAD."""
    print(f"{'workload':<16} {'metric':<22} {'base':>12} {'head':>12} {'worse':>8}")
    regressions = []
    for w in head:
        for metric, trace, better in GATED_METRICS:
            values = []
            for side, runs in (("base", base[w]), ("head", head[w])):
                value = runs[trace][2].get(metric, 0.0)
                if not value > 0.0:
                    bad_input(f"{side} {w} --trace {trace} has no positive {metric}")
                values.append(value)
            b, h = values
            worse = b / h if better == "higher" else h / b
            bad = worse > FACTOR
            if bad:
                regressions.append((w, metric))
            print(f"{w:<16} {metric:<22} {b:>12.6g} {h:>12.6g} {worse:>7.2f}x"
                  f"{'!' if bad else ''}")
    print(f"('worse' is HEAD over base in the bad direction; '!' marks more than {FACTOR:.0f}x)")
    return regressions


def check_observer_overhead(path):
    """Returns the names of gated variants over OBSERVER_BUDGET."""
    doc = load_json(path)
    overheads = {v.get("name"): v.get("overhead")
                 for v in doc.get("variants") or []}
    for name in GATED_VARIANTS:
        if overheads.get(name) is None:
            bad_input(f"{path} has no overhead for {name}")
    print(f"\nobserver overhead vs all off (budget "
          f"{OBSERVER_BUDGET * 100:.0f}% for gated variants):")
    over_budget = []
    for name, over in overheads.items():
        gated = name in GATED_VARIANTS
        bad = gated and over > OBSERVER_BUDGET
        if bad:
            over_budget.append(name)
        print(f"  {name:<14} {over * 100:7.2f}%  "
              f"{'gated' if gated else 'not gated'}"
              f"{'  << REGRESSION' if bad else ''}")
    return over_budget


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", metavar="DIR",
                    help="perfbench results at the base commit")
    ap.add_argument("--head", metavar="DIR",
                    help="perfbench results at HEAD, same machine")
    ap.add_argument("--observer-overhead", metavar="FILE",
                    help="BENCH_observer_overhead.json to gate")
    args = ap.parse_args()
    if (args.base is None) != (args.head is None):
        ap.error("--base and --head go together")
    if args.head is None and args.observer_overhead is None:
        ap.error("nothing to check: pass --base/--head and/or "
                 "--observer-overhead")

    failed = False
    if args.head is not None:
        base = load_side(args.base)
        head = load_side(args.head)
        wrong = correctness_failures(head)
        regressions = compare(base, head)
        for line in wrong:
            print(f"FAIL: HEAD result not correct: {line}", file=sys.stderr)
        for w, metric in regressions:
            print(f"FAIL: {w}: {metric} is more than {FACTOR:.0f}x worse "
                  f"than at the base commit", file=sys.stderr)
        failed = bool(wrong or regressions)
        if not failed:
            print(f"\nOK: {len(head)} workload(s) correct at HEAD and within "
                  f"{FACTOR:.0f}x of the base commit")

    if args.observer_overhead is not None:
        over_budget = check_observer_overhead(args.observer_overhead)
        if over_budget:
            print(f"\nFAIL: observer overhead exceeds the "
                  f"{OBSERVER_BUDGET * 100:.0f}% budget in: "
                  f"{', '.join(over_budget)}", file=sys.stderr)
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
