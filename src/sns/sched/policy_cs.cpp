#include "sns/sched/policies.hpp"

#include "sns/util/error.hpp"

namespace sns::sched {
namespace {

/// Scale factors CS tries, most compact first.
constexpr int kScales[] = {1, 2, 4, 8};

/// Cores per node CS asks for at scale `k`, or 0 when the walk stops
/// before `k`: the scale outgrows the cluster, a single-node program or
/// the job's process count.
int coresAtScale(const Job& job, int n_min, int cluster_nodes, int k) {
  const int n = k * n_min;
  if (n > cluster_nodes) return 0;
  if (n > 1 && !job.program->multi_node) return 0;
  const int c = (job.spec.procs + n - 1) / n;
  return c < 1 ? 0 : c;
}

/// The rejection text of every scale the walk tries before `stop` (every
/// scale when `stop` is 0): each of them found no nodes.
std::string rejectionText(const Job& job, int n_min, int cluster_nodes, int stop) {
  std::string text;
  for (int k : kScales) {
    if (k == stop) break;
    const int c = coresAtScale(job, n_min, cluster_nodes, k);
    if (c == 0) break;
    text += "k=" + std::to_string(k) + ": no " + std::to_string(k * n_min) +
            " node(s) with " + std::to_string(c) + " idle cores; ";
  }
  return text;
}

}  // namespace

std::optional<Placement> CsPolicy::tryPlace(const Job& job,
                                            const actuator::ResourceLedger& ledger,
                                            const profile::ProfileDatabase& db) const {
  const int n_min = est_->minNodes(job.spec.procs);
  SNS_REQUIRE(n_min <= ledger.nodeCount(), "job larger than the cluster");
  xray::ProvenanceStore* prov = provenance();
  if (prov != nullptr) {
    prov->beginAttempt(job.id, job.spec.program, job.spec.procs, 0.0, 0.0,
                       xray_->passSimTime());
  }
  // Prefer the most compact placement; when the idle cores are scattered,
  // accept the lowest feasible scale factor instead of waiting (Fig 8).
  for (int k : kScales) {
    const int c = coresAtScale(job, n_min, ledger.nodeCount(), k);
    if (c == 0) break;
    const int n = k * n_min;
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
      rec_->scheduleAttempt(job.id, job.spec.program, k, 0, 0.0,
                            rejectionText(job, n_min, ledger.nodeCount(), k), scored);
      rec_->placementDecided(job.id, job.spec.program, k, 0, 0.0,
                             /*exclusive=*/false, std::move(scored));
    }
    return p;
  }
  if (prov != nullptr && prov->record(job.id).walk.empty()) {
    prov->addAttempt(job.id,
                     {0, 0, 0, 0, 0.0, xray::RejectReason::kNoFeasibleScale});
  }
  explainFailure(job, ledger, db);
  return std::nullopt;
}

void CsPolicy::explainFailure(const Job& job, const actuator::ResourceLedger& ledger,
                              const profile::ProfileDatabase&) const {
  if (!tracing()) return;
  std::string rejections =
      rejectionText(job, est_->minNodes(job.spec.procs), ledger.nodeCount(), 0);
  if (rejections.empty()) rejections = "no feasible scale for the cluster";
  rec_->scheduleAttempt(job.id, job.spec.program, 0, 0, 0.0, rejections);
}

}  // namespace sns::sched
