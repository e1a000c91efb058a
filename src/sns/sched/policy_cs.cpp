#include "sns/sched/policies.hpp"

#include "sns/util/error.hpp"

namespace sns::sched {

std::optional<Placement> CsPolicy::tryPlace(const Job& job,
                                            const actuator::ResourceLedger& ledger,
                                            const profile::ProfileDatabase&) const {
  const int n_min = est_->minNodes(job.spec.procs);
  SNS_REQUIRE(n_min <= ledger.nodeCount(), "job larger than the cluster");
  xray::ProvenanceStore* prov = provenance();
  if (prov != nullptr) {
    prov->beginAttempt(job.id, job.spec.program, job.spec.procs, 0.0, 0.0,
                       xray_->passSimTime());
  }
  std::string rejections;  // built only while tracing
  // Prefer the most compact placement; when the idle cores are scattered,
  // accept the lowest feasible scale factor instead of waiting (Fig 8).
  for (int k : {1, 2, 4, 8}) {
    const int n = k * n_min;
    if (n > ledger.nodeCount()) break;
    if (n > 1 && !job.program->multi_node) break;
    const int c = (job.spec.procs + n - 1) / n;
    if (c < 1) break;
    std::vector<int> nodes;
    {
      xray::ScopedSpan xs(xray_, xray::SpanKind::kCandidatePrune, job.id);
      nodes = ledger.selectNodes(n, c, 0, 0.0, /*exclusive=*/false);
    }
    if (nodes.empty()) {
      if (prov != nullptr) {
        prov->addAttempt(job.id, {k, n, c, 0, 0.0,
                                  xray::RejectReason::kInsufficientResources});
      }
      if (tracing()) {
        rejections += "k=" + std::to_string(k) + ": no " + std::to_string(n) +
                      " node(s) with " + std::to_string(c) + " idle cores; ";
      }
      continue;
    }
    Placement p;
    p.nodes = std::move(nodes);
    p.procs_per_node = c;
    p.scale_factor = k;
    p.ways = 0;  // no CAT partitioning under CS: free-for-all cache sharing
    p.bw_gbps = 0.0;
    p.exclusive = false;
    if (prov != nullptr) {
      prov->addAttempt(job.id, {k, n, c, 0, 0.0, xray::RejectReason::kNone});
      decide(*prov, job.id, ledger, p, k, 0.0);
    }
    if (tracing()) {
      std::vector<obs::NodeScore> scored;
      scored.reserve(p.nodes.size());
      // CS selects purely by idle cores; report the occupancy-only score.
      for (int nd : p.nodes) scored.push_back({nd, ledger.node(nd).score(0.0)});
      rec_->scheduleAttempt(job.id, job.spec.program, k, 0, 0.0, rejections,
                            scored);
      rec_->placementDecided(job.id, job.spec.program, k, 0, 0.0,
                             /*exclusive=*/false, std::move(scored));
    }
    return p;
  }
  if (prov != nullptr && prov->record(job.id).walk.empty()) {
    prov->addAttempt(job.id,
                     {0, 0, 0, 0, 0.0, xray::RejectReason::kNoFeasibleScale});
  }
  if (tracing()) {
    if (rejections.empty()) rejections = "no feasible scale for the cluster";
    rec_->scheduleAttempt(job.id, job.spec.program, 0, 0, 0.0, rejections);
  }
  return std::nullopt;
}

}  // namespace sns::sched
