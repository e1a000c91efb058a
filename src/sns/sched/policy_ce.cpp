#include "sns/sched/policies.hpp"

#include <algorithm>

#include "sns/util/error.hpp"

namespace sns::sched {

std::string to_string(PolicyKind k) {
  switch (k) {
    case PolicyKind::kCE: return "CE";
    case PolicyKind::kCS: return "CS";
    case PolicyKind::kSNS: return "SNS";
  }
  return "unknown";
}

void SchedulingPolicy::decide(xray::ProvenanceStore& prov, JobId job,
                              const actuator::ResourceLedger& ledger,
                              const Placement& p, int scale,
                              double beta) const {
  // Wide placements would score every node only for the store to drop
  // all but the first few, so only those are scored.
  const std::size_t n = std::min(p.nodes.size(), prov.maxCandidates());
  std::vector<xray::ScoredNode> scored;
  scored.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& node = ledger.node(p.nodes[i]);
    scored.push_back({p.nodes[i], node.score(beta), node.coreOccupancy(),
                      node.wayOccupancy(), node.bwOccupancy()});
  }
  prov.decide(job, xray_->passSimTime(), scale, p.ways, p.procs_per_node,
              p.bw_gbps, p.exclusive, scored, static_cast<int>(p.nodes.size()));
}

std::unique_ptr<SchedulingPolicy> makePolicy(PolicyKind kind,
                                             const perfmodel::Estimator& est) {
  switch (kind) {
    case PolicyKind::kCE: return std::make_unique<CePolicy>(est);
    case PolicyKind::kCS: return std::make_unique<CsPolicy>(est);
    case PolicyKind::kSNS: return std::make_unique<SnsPolicy>(est);
  }
  throw util::PreconditionError("unknown policy kind");
}

std::optional<Placement> exclusivePlacement(const Job& job,
                                            const actuator::ResourceLedger& ledger,
                                            const perfmodel::Estimator& est,
                                            int scale_factor) {
  SNS_REQUIRE(scale_factor >= 1, "scale factor must be >= 1");
  const int n = scale_factor * est.minNodes(job.spec.procs);
  SNS_REQUIRE(est.minNodes(job.spec.procs) <= ledger.nodeCount(),
              "job larger than the cluster");
  if (n > ledger.nodeCount()) return std::nullopt;
  const int c = (job.spec.procs + n - 1) / n;
  auto nodes = ledger.selectNodes(n, c, 0, 0.0, /*exclusive=*/true);
  if (nodes.empty()) return std::nullopt;
  Placement p;
  p.nodes = std::move(nodes);
  p.procs_per_node = c;
  p.scale_factor = scale_factor;
  p.ways = 0;
  p.bw_gbps = 0.0;
  p.exclusive = true;
  return p;
}

std::optional<Placement> CePolicy::tryPlace(const Job& job,
                                            const actuator::ResourceLedger& ledger,
                                            const profile::ProfileDatabase& db) const {
  xray::ProvenanceStore* prov = provenance();
  if (prov != nullptr) {
    prov->beginAttempt(job.id, job.spec.program, job.spec.procs, 0.0, 0.0,
                       xray_->passSimTime());
  }
  std::optional<Placement> p;
  {
    xray::ScopedSpan xs(xray_, xray::SpanKind::kCandidatePrune, job.id);
    p = exclusivePlacement(job, ledger, *est_, 1);
  }
  if (prov != nullptr) {
    const int n = est_->minNodes(job.spec.procs);
    const int c = (job.spec.procs + n - 1) / n;
    prov->addAttempt(job.id,
                     {1, n, c, 0, 0.0,
                      p.has_value() ? xray::RejectReason::kNone
                                    : xray::RejectReason::kInsufficientResources});
    if (p.has_value()) decide(*prov, job.id, ledger, *p, 1, 0.0);
  }
  if (!p.has_value()) {
    explainFailure(job, ledger, db);
  } else if (tracing()) {
    std::vector<obs::NodeScore> scored;
    scored.reserve(p->nodes.size());
    for (int nd : p->nodes) scored.push_back({nd, ledger.node(nd).score(0.0)});
    rec_->scheduleAttempt(job.id, job.spec.program, 1, 0, 0.0, "", scored);
    rec_->placementDecided(job.id, job.spec.program, 1, 0, 0.0,
                           /*exclusive=*/true, std::move(scored));
  }
  return p;
}

void CePolicy::explainFailure(const Job& job, const actuator::ResourceLedger& ledger,
                              const profile::ProfileDatabase&) const {
  if (!tracing()) return;
  // The idle count is read when the failure is explained: it can change
  // while the failure itself stands.
  rec_->scheduleAttempt(job.id, job.spec.program, 1, 0, 0.0,
                        "needs " + std::to_string(est_->minNodes(job.spec.procs)) +
                            " idle node(s), only " +
                            std::to_string(ledger.idleNodeCount()) + " idle");
}

}  // namespace sns::sched
