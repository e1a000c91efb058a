#include "sns/xray/explain.hpp"

#include "sns/util/table.hpp"

namespace sns::xray {

namespace {

std::string shapeOf(const DecisionRecord& r) {
  std::string s = "k=" + std::to_string(r.scale) + ", " +
                  std::to_string(r.procs_per_node) + " proc(s)/node";
  if (r.exclusive) {
    s += ", exclusive";
  } else {
    s += r.ways > 0 ? ", " + std::to_string(r.ways) + " LLC way(s)"
                    : ", unpartitioned cache";
    s += ", " + util::fmt(r.bw_gbps, 1) + " GB/s reserved";
  }
  return s;
}

}  // namespace

std::string renderExplain(const ProvenanceStore& store, std::int64_t job) {
  if (!store.has(job)) {
    return "no placement decision recorded for job " + std::to_string(job) +
           " (job id out of range or never scheduled)\n";
  }
  const DecisionRecord& r = store.record(job);
  std::string out;
  out += "job " + std::to_string(r.job) + ": " + r.program + "/" +
         std::to_string(r.procs) + " (alpha=" + util::fmt(r.alpha, 2) +
         ", beta=" + util::fmt(r.beta, 1) + ")\n";
  out += "  first considered at t=" + util::fmt(r.first_seen, 1) + " s, " +
         std::to_string(r.attempts_total) + " tryPlace attempt(s)\n";

  if (!r.placed) {
    out += "  outcome: NOT PLACED (still queued when the trace ended)\n";
  } else if (r.exploration) {
    out += "  outcome: exclusive exploration trial at k=" +
           std::to_string(r.scale) +
           " (profiling run; placed at t=" + util::fmt(r.decided, 1) + " s)\n";
  } else {
    out += "  outcome: placed at t=" + util::fmt(r.decided, 1) + " s — " +
           shapeOf(r) + "\n";
  }

  if (!r.walk.empty()) {
    out += "  scale walk (deciding attempt):\n";
    for (const ScaleAttempt& a : r.walk) {
      out += "    k=" + std::to_string(a.scale);
      if (a.nodes > 0) {
        out += " (" + std::to_string(a.nodes) + " node(s) x " +
               std::to_string(a.cores) + " core(s)";
        if (a.ways > 0) out += ", " + std::to_string(a.ways) + " way(s)";
        if (a.bw_gbps > 0.0) out += ", " + util::fmt(a.bw_gbps, 1) + " GB/s";
        out += ")";
      }
      out += ": " + describe(a.reason) + "\n";
    }
  }

  if (!r.chosen.empty()) {
    out += "  chosen nodes (score = Co + Bo + " + util::fmt(r.beta, 1) +
           " x Wo, pre-allocation):\n";
    util::Table t({"node", "score", "core occ", "bw occ", "way occ"});
    for (const ScoredNode& n : r.chosen) {
      t.addRow({std::to_string(n.node), util::fmt(n.score, 4),
                util::fmt(n.core_occ, 3), util::fmt(n.bw_occ, 3),
                util::fmt(n.way_occ, 3)});
    }
    std::string table = t.render();
    // Indent the table under the section header.
    std::string indented;
    std::size_t pos = 0;
    while (pos < table.size()) {
      const std::size_t nl = table.find('\n', pos);
      const std::size_t end = nl == std::string::npos ? table.size() : nl;
      indented += "    " + table.substr(pos, end - pos) + "\n";
      pos = end + 1;
    }
    out += indented;
    if (r.chosen_total > static_cast<int>(r.chosen.size())) {
      out += "    ... " +
             std::to_string(r.chosen_total -
                            static_cast<int>(r.chosen.size())) +
             " more node(s) in the placement\n";
    }
  }

  if (r.solver_lookups > 0) {
    out += "  solver provenance: " + std::to_string(r.solver_lookups) +
           " contention solve(s) credited to the placement, " +
           std::to_string(r.solver_hits) + " served from cache (" +
           util::fmtPct(static_cast<double>(r.solver_hits) /
                        static_cast<double>(r.solver_lookups)) +
           ")\n";
  }
  return out;
}

std::string renderExplainIndex(const ProvenanceStore& store) {
  util::Table t({"job", "program", "procs", "attempts", "outcome", "k",
                 "nodes", "decided s"});
  for (const DecisionRecord& r : store.records()) {
    if (r.attempts_total == 0) continue;
    std::string outcome = !r.placed        ? "queued"
                          : r.exploration  ? "explore"
                          : r.exclusive    ? "exclusive"
                                           : "shared";
    t.addRow({std::to_string(r.job), r.program, std::to_string(r.procs),
              std::to_string(r.attempts_total), std::move(outcome),
              r.placed ? std::to_string(r.scale) : "-",
              r.placed ? std::to_string(r.chosen_total) : "-",
              r.placed ? util::fmt(r.decided, 1) : "-"});
  }
  return t.render();
}

std::string renderHotpath(const Tracer& tracer, double decision_us_mean,
                          double run_wall_s) {
  std::string out;
  out += "hot path — " + std::to_string(tracer.sampledPasses()) + " of " +
         std::to_string(tracer.passes()) + " scheduling passes traced";
  if (tracer.steps() > 0) {
    out += " in " + std::to_string(tracer.sampledSteps()) + " of " +
           std::to_string(tracer.steps()) + " event steps";
  }
  out += " (sample period " + std::to_string(tracer.config().sample_period) +
         ")\n\n";
  out += tracer.renderTable();
  out += "\n";

  if (tracer.droppedSpans() > 0) {
    out += "dropped spans (budget " +
           std::to_string(tracer.config().span_budget) +
           " per traced unit): " + std::to_string(tracer.droppedSpans()) +
           "\n";
  }

  // Reconciliation 1: the decision span covers the region sim.decision_us
  // times, so their means agree.
  const Tracer::Stat& decision = tracer.stat(SpanKind::kDecision);
  if (decision.calls > 0) {
    const double span_us = static_cast<double>(decision.total_ns) / 1e3 /
                           static_cast<double>(decision.calls);
    out += "decision span mean per pass: " + util::fmt(span_us, 1) + " us";
    if (decision_us_mean > 0.0) {
      const double delta = (span_us - decision_us_mean) / decision_us_mean;
      out += " vs measured decision_us_mean " +
             util::fmt(decision_us_mean, 1) + " us (" +
             (delta >= 0.0 ? "+" : "") + util::fmtPct(delta) + ")";
    }
    out += "\n";
  }
  // Reconciliation 2: the event steps tile the run, so their attributed
  // self time accounts for its wall time (all of it at sample period 1).
  if (tracer.sampledSteps() > 0 && run_wall_s > 0.0) {
    const double attributed_s = static_cast<double>(tracer.totalSelfNs()) / 1e9;
    out += "attributed self time: " + util::fmt(attributed_s * 1e3, 1) +
           " ms of " + util::fmt(run_wall_s * 1e3, 1) + " ms run wall time (" +
           util::fmtPct(attributed_s / run_wall_s) + ")";
    if (tracer.sampledSteps() < tracer.steps()) out += ", sampled steps only";
    out += "\n";
  }

  const std::string folded = tracer.foldedStacks();
  if (!folded.empty()) {
    out += "\nfolded stacks (flamegraph.pl / speedscope input):\n";
    out += folded;
  }
  return out;
}

}  // namespace sns::xray
