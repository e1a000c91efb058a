#!/usr/bin/env python3
"""Guard against simulator-throughput collapse and decision-latency blowups.

Compares a fresh BENCH_sim_scale.json (typically from `bench_sim_scale
--quick` on a CI runner) against the checked-in baseline
(bench/baselines/sim_scale.json), cell by cell (nodes, policy). CI
hardware is unrelated to the machine that produced the baseline and the
quick trace is smaller than the full one, so absolute numbers are not
comparable — the guard only fails when a cell moves by more than a
tolerance factor, which catches algorithmic regressions (an accidental
O(N) scan in the hot loop, a disabled memo cache, a fast-path flag wired
to the slow path) while shrugging off runner noise. Three signals are
checked per cell:

  * events_per_sec must not collapse by more than --tolerance (default 8x);
  * event_us_mean must not grow by more than --event-tolerance (default
    8x) — wall microseconds per simulated event, the event engine's
    headline number (DESIGN.md section 11); it moves when a per-event
    O(active) loop sneaks back in even if decision latency stays flat;
  * decision_us_mean must not grow by more than --mean-tolerance
    (default 8x) — the headline number of the fast decision path
    (DESIGN.md section 10); losing one of its mechanisms (selection
    cache, failed-spec memo, deferred refresh) moves it far more than
    runner noise does;
  * decision_us_p99 must not grow by more than --latency-tolerance
    (default 8x) — the per-decision tail is what sns::xray attributes,
    and a span site accidentally left on the unsampled path shows up
    here first.

On failure the full delta table is printed so the offending cells are
readable straight from the CI log. Baseline rows missing a field skip
that signal (older baselines predate decision_us_mean).

The deterministic work counters (EXACT_COUNTERS: events, completions, the
active-job high-water mark, solver calls and memo/cache traffic, selection
cache traffic, spec and futile-pass skips) are a pure function of the
simulated schedule, not of the hardware, so they are gated exactly: any
difference from the baseline fails, and a counter the baseline records but
the current run lacks fails too. Changing one needs a reasoned re-baseline.
Baseline rows without a counter skip it.

With --observer-overhead FILE the script additionally gates the observer
overheads recorded by bench_observer_overhead (BENCH_observer_overhead.json):
each GATED_VARIANTS entry (telemetry sampler, xray sampled, flight recorder)
must be present and stay within OBSERVER_BUDGET (10% over the shared "all
off" run, min over reps — quiet-machine overheads are a few percent, widened
for shared-runner noise). The other variants (obs, xray full) are printed
but never fail.

Exit status: 0 when every comparable cell is within tolerance, 1 on
regression, 2 on bad input.
"""

import argparse
import json
import sys

DEFAULT_BASELINE = "bench/baselines/sim_scale.json"
OBSERVER_BUDGET = 0.10
GATED_VARIANTS = ("telemetry", "xray_sampled", "flight")

# (json field, direction, human label). Direction "min" fails when the
# current value collapses below baseline/tolerance (bigger is better);
# "max" fails when it grows past baseline*tolerance (smaller is better).
SIGNALS = [
    ("events_per_sec", "min", "events/sec"),
    ("event_us_mean", "max", "event_us_mean"),
    ("decision_us_mean", "max", "decision_us_mean"),
    ("decision_us_p99", "max", "decision_us_p99"),
]

# Deterministic counters gated for exact equality (see the module docstring).
EXACT_COUNTERS = [
    "events", "jobs_completed", "active_jobs_hwm",
    "solver_calls", "solver_memo_hits",
    "solver_cache_hits", "solver_cache_misses", "solver_cache_evictions",
    "select_cache_hits", "select_cache_misses",
    "spec_skips", "futile_pass_skips",
]


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def load_cells(path):
    doc = load_json(path)
    cells = {}
    for row in doc.get("results", []):
        try:
            cells[(row["nodes"], row["policy"])] = row
        except (KeyError, TypeError):
            print(f"error: malformed result row in {path}", file=sys.stderr)
            sys.exit(2)
    if not cells:
        print(f"error: {path} has no results", file=sys.stderr)
        sys.exit(2)
    return cells


def compare_cells(base, cur, tolerances):
    """Per-cell, per-signal comparison.

    Returns (rows, regressions, compared): rows feed the delta table
    (cell values keyed by signal field, None where not comparable),
    regressions maps signal field -> offending (nodes, policy) keys, and
    compared counts cells with at least one comparable signal.
    """
    rows = []
    regressions = {field: [] for field, _, _ in SIGNALS}
    compared = 0
    for key in sorted(base):
        if key not in cur:
            rows.append((key, None))
            continue
        cells = {}
        any_signal = False
        for field, direction, _ in SIGNALS:
            b = base[key].get(field, 0) or 0
            c = cur[key].get(field, 0) or 0
            if b <= 0 or c <= 0:
                cells[field] = None  # signal absent/zero in one side
                continue
            any_signal = True
            ratio = c / b
            tol = tolerances[field]
            bad = (ratio * tol < 1.0) if direction == "min" else (ratio > tol)
            if bad:
                regressions[field].append(key)
            cells[field] = (b, c, ratio, bad)
        if any_signal:
            compared += 1
        rows.append((key, cells))
    return rows, regressions, compared


def compare_counters(base, cur):
    """(nodes, policy, counter, baseline value, current value) for every
    exact counter the baseline records that the current run does not
    reproduce (None when the current row lacks it). Cells missing from the
    current run are reported by the delta table instead."""
    mismatches = []
    for key in sorted(base):
        if key not in cur:
            continue
        for field in EXACT_COUNTERS:
            if field not in base[key]:
                continue
            b = base[key][field]
            c = cur[key].get(field)
            if c != b:
                mismatches.append((key[0], key[1], field, b, c))
    return mismatches


def render_delta_table(rows):
    out = [f"{'nodes':>6} {'policy':<6} "
           f"{'ev/s base':>10} {'ev/s cur':>10} {'ratio':>8}  "
           f"{'evus base':>10} {'evus cur':>10} {'ratio':>8}  "
           f"{'mean base':>10} {'mean cur':>10} {'ratio':>8}  "
           f"{'p99 base':>10} {'p99 cur':>10} {'ratio':>8}"]

    def fmt(cell):
        if cell is None:
            return f"{'-':>10} {'-':>10} {'-':>8}"
        b, c, ratio, bad = cell
        mark = "!" if bad else " "
        return f"{b:>10.1f} {c:>10.1f} {ratio:>6.2f}x{mark}"

    for key, cells in rows:
        if cells is None:
            out.append(f"{key[0]:>6} {key[1]:<6} (missing from current run)")
            continue
        out.append(f"{key[0]:>6} {key[1]:<6} "
                   f"{fmt(cells['events_per_sec'])}  "
                   f"{fmt(cells['event_us_mean'])}  "
                   f"{fmt(cells['decision_us_mean'])}  "
                   f"{fmt(cells['decision_us_p99'])}")
    out.append("('!' marks a ratio outside its tolerance)")
    return "\n".join(out)


def check_observer_overhead(path):
    """Returns the names of gated variants over OBSERVER_BUDGET."""
    doc = load_json(path)
    overheads = {v.get("name"): v.get("overhead")
                 for v in doc.get("variants") or []}
    for name in GATED_VARIANTS:
        if overheads.get(name) is None:
            print(f"error: {path} has no overhead for {name}",
                  file=sys.stderr)
            sys.exit(2)
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
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", default=DEFAULT_BASELINE,
                    help="checked-in reference results "
                         f"(default {DEFAULT_BASELINE})")
    ap.add_argument("--current",
                    help="fresh results to validate")
    ap.add_argument("--tolerance", type=float, default=8.0,
                    help="max allowed events/sec collapse factor (default 8)")
    ap.add_argument("--event-tolerance", type=float, default=8.0,
                    help="max allowed event_us_mean growth factor (default 8)")
    ap.add_argument("--mean-tolerance", type=float, default=8.0,
                    help="max allowed decision_us_mean growth factor "
                         "(default 8)")
    ap.add_argument("--latency-tolerance", type=float, default=8.0,
                    help="max allowed decision_us_p99 growth factor "
                         "(default 8)")
    ap.add_argument("--observer-overhead", metavar="FILE",
                    help="BENCH_observer_overhead.json to gate")
    args = ap.parse_args()
    if args.current is None and args.observer_overhead is None:
        ap.error("nothing to check: pass --current and/or "
                 "--observer-overhead")

    failed = False
    if args.current is not None:
        base = load_cells(args.baseline)
        cur = load_cells(args.current)
        tolerances = {
            "events_per_sec": args.tolerance,
            "event_us_mean": args.event_tolerance,
            "decision_us_mean": args.mean_tolerance,
            "decision_us_p99": args.latency_tolerance,
        }
        rows, regressions, compared = compare_cells(base, cur, tolerances)
        print(render_delta_table(rows))
        if compared == 0:
            print("error: no comparable cells between baseline and current",
                  file=sys.stderr)
            return 2
        mismatches = compare_counters(base, cur)
        if mismatches:
            print(f"\nFAIL: {len(mismatches)} deterministic counter(s) differ "
                  f"from the baseline (gated exactly):", file=sys.stderr)
            for nodes, policy, field, b, c in mismatches:
                shown = "missing" if c is None else c
                print(f"  {nodes} nodes/{policy}: {field} baseline {b}, "
                      f"current {shown}", file=sys.stderr)
            failed = True
        for field, direction, label in SIGNALS:
            if not regressions[field]:
                continue
            cells = ", ".join(f"{n} nodes/{p}" for n, p in regressions[field])
            verb = ("collapsed by more than"
                    if direction == "min" else "grew by more than")
            print(f"\nFAIL: {label} {verb} {tolerances[field]:.0f}x in: "
                  f"{cells}", file=sys.stderr)
            failed = True
        if not failed:
            print(f"\nOK: {compared} cell(s) within tolerance, deterministic "
                  f"counters exact "
                  f"(events/sec {args.tolerance:.0f}x, event "
                  f"{args.event_tolerance:.0f}x, mean "
                  f"{args.mean_tolerance:.0f}x, p99 "
                  f"{args.latency_tolerance:.0f}x)")

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
