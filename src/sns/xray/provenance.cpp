#include "sns/xray/provenance.hpp"

#include "sns/util/error.hpp"

namespace sns::xray {

const char* to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kMultiNodeUnsupported: return "multi_node_unsupported";
    case RejectReason::kClusterTooSmall: return "cluster_too_small";
    case RejectReason::kInsufficientResources: return "insufficient_resources";
    case RejectReason::kNoIdleNodesForTrial: return "no_idle_nodes_for_trial";
    case RejectReason::kNoFeasibleScale: return "no_feasible_scale";
  }
  return "unknown";
}

std::string describe(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "accepted";
    case RejectReason::kMultiNodeUnsupported:
      return "needs multiple nodes but the program is single-node";
    case RejectReason::kClusterTooSmall:
      return "needs more nodes than the cluster has";
    case RejectReason::kInsufficientResources:
      return "no node set with enough free cores, ways and bandwidth";
    case RejectReason::kNoIdleNodesForTrial:
      return "no idle node set for the exclusive exploration trial";
    case RejectReason::kNoFeasibleScale:
      return "no profiled scale factor fits the cluster";
  }
  return "unknown";
}

DecisionRecord& ProvenanceStore::slot(std::int64_t job) {
  SNS_REQUIRE(job >= 0, "provenance needs a non-negative job id");
  const auto idx = static_cast<std::size_t>(job);
  if (idx >= records_.size()) records_.resize(idx + 1);
  return records_[idx];
}

void ProvenanceStore::beginAttempt(std::int64_t job, const std::string& program,
                                   int procs, double alpha, double beta,
                                   double sim_time) {
  DecisionRecord& r = slot(job);
  if (r.attempts_total == 0) {
    r.job = job;
    r.program = program;
    r.procs = procs;
    r.first_seen = sim_time;
  }
  r.alpha = alpha;
  r.beta = beta;
  ++r.attempts_total;
  r.walk.clear();  // the latest attempt's walk is the one explain reports
}

void ProvenanceStore::replayAttempt(std::int64_t job, std::int64_t source,
                                    const std::string& program, int procs,
                                    double sim_time) {
  // Both slots exist before either is referenced: slot() may grow records_.
  slot(job);
  const DecisionRecord& src = slot(source);
  DecisionRecord& r = records_[static_cast<std::size_t>(job)];
  SNS_REQUIRE(src.attempts_total > 0, "replayed attempt has no source walk");
  if (r.attempts_total == 0) {
    r.job = job;
    r.program = program;
    r.procs = procs;
    r.first_seen = sim_time;
  }
  r.alpha = src.alpha;
  r.beta = src.beta;
  ++r.attempts_total;
  if (&r != &src) r.walk.assign(src.walk.begin(), src.walk.end());
  // A failed exploration trial is the only walk with this reason.
  for (const ScaleAttempt& a : r.walk) {
    if (a.reason == RejectReason::kNoIdleNodesForTrial) r.exploration = true;
  }
}

void ProvenanceStore::addAttempt(std::int64_t job, const ScaleAttempt& attempt) {
  slot(job).walk.push_back(attempt);
}

void ProvenanceStore::noteExploration(std::int64_t job, int trial_scale,
                                      bool placed) {
  DecisionRecord& r = slot(job);
  r.exploration = true;
  ScaleAttempt a;
  a.scale = trial_scale;
  a.reason = placed ? RejectReason::kNone : RejectReason::kNoIdleNodesForTrial;
  r.walk.push_back(a);
}

void ProvenanceStore::decide(std::int64_t job, double sim_time, int scale,
                             int ways, int procs_per_node, double bw_gbps,
                             bool exclusive,
                             const std::vector<ScoredNode>& scored,
                             int chosen_total) {
  DecisionRecord& r = slot(job);
  r.placed = true;
  r.decided = sim_time;
  r.scale = scale;
  r.ways = ways;
  r.procs_per_node = procs_per_node;
  r.bw_gbps = bw_gbps;
  r.exclusive = exclusive;
  r.chosen_total = chosen_total;
  r.chosen.assign(scored.begin(),
                  scored.size() > max_candidates_
                      ? scored.begin() + static_cast<std::ptrdiff_t>(max_candidates_)
                      : scored.end());
}

void ProvenanceStore::noteSolverDelta(std::int64_t job, std::uint64_t lookups,
                                      std::uint64_t hits) {
  DecisionRecord& r = slot(job);
  r.solver_lookups += lookups;
  r.solver_hits += hits;
}

const DecisionRecord& ProvenanceStore::record(std::int64_t job) const {
  SNS_REQUIRE(has(job), "no provenance recorded for job " + std::to_string(job));
  return records_[static_cast<std::size_t>(job)];
}

util::Json ProvenanceStore::toJson() const {
  util::Json::Array jobs;
  for (const DecisionRecord& r : records_) {
    if (r.attempts_total == 0) continue;  // id gap (never attempted)
    util::Json jr;
    jr["job"] = util::Json(r.job);
    jr["program"] = util::Json(r.program);
    jr["procs"] = util::Json(r.procs);
    jr["alpha"] = util::Json(r.alpha);
    jr["beta"] = util::Json(r.beta);
    jr["first_seen_s"] = util::Json(r.first_seen);
    jr["decided_s"] = util::Json(r.decided);
    jr["attempts_total"] = util::Json(static_cast<std::int64_t>(r.attempts_total));
    jr["placed"] = util::Json(r.placed);
    jr["exclusive"] = util::Json(r.exclusive);
    jr["exploration"] = util::Json(r.exploration);
    jr["scale"] = util::Json(r.scale);
    jr["ways"] = util::Json(r.ways);
    jr["procs_per_node"] = util::Json(r.procs_per_node);
    jr["bw_gbps"] = util::Json(r.bw_gbps);
    jr["solver_lookups"] = util::Json(static_cast<std::int64_t>(r.solver_lookups));
    jr["solver_hits"] = util::Json(static_cast<std::int64_t>(r.solver_hits));

    util::Json::Array walk;
    for (const ScaleAttempt& a : r.walk) {
      util::Json ja;
      ja["scale"] = util::Json(a.scale);
      ja["nodes"] = util::Json(a.nodes);
      ja["cores"] = util::Json(a.cores);
      ja["ways"] = util::Json(a.ways);
      ja["bw_gbps"] = util::Json(a.bw_gbps);
      ja["reason"] = util::Json(to_string(a.reason));
      walk.push_back(std::move(ja));
    }
    jr["walk"] = util::Json(std::move(walk));

    util::Json::Array chosen;
    for (const ScoredNode& n : r.chosen) {
      util::Json jn;
      jn["node"] = util::Json(n.node);
      jn["score"] = util::Json(n.score);
      jn["core_occ"] = util::Json(n.core_occ);
      jn["way_occ"] = util::Json(n.way_occ);
      jn["bw_occ"] = util::Json(n.bw_occ);
      chosen.push_back(std::move(jn));
    }
    jr["chosen"] = util::Json(std::move(chosen));
    jr["chosen_total"] = util::Json(r.chosen_total);
    jobs.push_back(std::move(jr));
  }
  util::Json out;
  out["decisions"] = util::Json(std::move(jobs));
  return out;
}

void ProvenanceStore::reset() { records_.clear(); }

}  // namespace sns::xray
