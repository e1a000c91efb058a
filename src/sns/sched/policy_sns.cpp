#include "sns/sched/policies.hpp"

#include <bit>

#include "sns/profile/demand.hpp"
#include "sns/profile/exploration.hpp"
#include "sns/util/error.hpp"
#include "sns/util/table.hpp"

namespace sns::sched {

std::size_t SnsPolicy::DemandKeyHash::operator()(const DemandKey& k) const {
  // splitmix64-style mix over the pointer and the alpha bit pattern.
  std::uint64_t x = reinterpret_cast<std::uintptr_t>(k.sp) ^
                    (k.alpha_bits * 0x9e3779b97f4a7c15ull);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

std::optional<Placement> SnsPolicy::tryPlace(const Job& job,
                                             const actuator::ResourceLedger& ledger,
                                             const profile::ProfileDatabase& db) const {
  xray::ProvenanceStore* prov = provenance();
  const double alpha0 = job.spec.alpha > 0.0 ? job.spec.alpha : opts_.default_alpha;
  if (prov != nullptr) {
    prov->beginAttempt(job.id, job.spec.program, job.spec.procs, alpha0,
                       opts_.beta, xray_->passSimTime());
  }

  const auto* prof = db.find(job.spec.program, job.spec.procs);
  // Unprofiled or partially-explored program: run it exclusively at the
  // next trial scale; the monitor profiles it during that run (§4.2, §4.4).
  const int trial = profile::nextTrialScale(prof, *job.program, job.spec.procs,
                                            ledger.nodeCount(), *est_,
                                            opts_.exploration);
  if (trial > 0) {
    std::optional<Placement> p;
    {
      xray::ScopedSpan xs(xray_, xray::SpanKind::kCandidatePrune, job.id);
      p = exclusivePlacement(job, ledger, *est_, trial);
    }
    if (prov != nullptr) {
      prov->noteExploration(job.id, trial, p.has_value());
      if (p.has_value()) decide(*prov, job.id, ledger, *p, trial, opts_.beta);
    }
    if (tracing()) {
      if (p.has_value()) {
        rec_->explorationStarted(job.id, job.spec.program, trial);
      } else {
        rec_->explorationPreempted(job.id, job.spec.program, trial,
                                   "no idle nodes for the exclusive trial run");
      }
    }
    return p;
  }
  SNS_REQUIRE(prof != nullptr, "finished exploration implies a profile");

  const double alpha = alpha0;
  const auto& mach = ledger.machine();
  std::string rejections;  // built only while tracing

  // Walk scale factors in preference order: fastest-profiled first for
  // scaling programs (Fig 11's "select fastest scale factor among
  // remaining"), most-compact first for neutral/compact programs, which
  // are only scaled passively (§6.1).
  for (int k : prof->preferredScaleOrder()) {
    const auto* sp = prof->at(k);
    SNS_REQUIRE(sp != nullptr, "profile lost a scale");
    if (sp->nodes > 1 && !job.program->multi_node) {
      if (prov != nullptr) {
        prov->addAttempt(job.id, {k, sp->nodes, sp->procs_per_node, 0, 0.0,
                                  xray::RejectReason::kMultiNodeUnsupported});
      }
      continue;
    }
    if (sp->nodes > ledger.nodeCount()) {
      if (prov != nullptr) {
        prov->addAttempt(job.id, {k, sp->nodes, sp->procs_per_node, 0, 0.0,
                                  xray::RejectReason::kClusterTooSmall});
      }
      continue;
    }

    profile::ResourceDemand demand;
    {
      // Demand estimation walks the IPC-LLC / BW-LLC profile curves — a
      // pure function of (sp, alpha, mach), so the result is memoized
      // across the many queued jobs sharing a spec.
      xray::ScopedSpan xs(xray_, xray::SpanKind::kCurveScore, job.id);
      if (memo_generation_ != db.generation()) {
        demand_memo_.clear();
        memo_generation_ = db.generation();
      }
      const DemandKey key{sp, std::bit_cast<std::uint64_t>(alpha)};
      auto [it, fresh] = demand_memo_.try_emplace(key);
      if (fresh) it->second = profile::estimateDemand(*sp, alpha, mach);
      demand = it->second;
    }
    actuator::NodeAllocation request;
    request.cores = sp->procs_per_node;
    request.ways = demand.ways;
    request.bw_gbps = demand.bw_gbps;
    request.exclusive = false;
    request.net_gbps = opts_.manage_network ? demand.net_gbps : 0.0;
    std::vector<int> nodes;
    {
      // Candidate pruning: the ledger scan scoring every feasible node —
      // the dominant cost of the contended SNS decision path.
      xray::ScopedSpan xs(xray_, xray::SpanKind::kCandidatePrune, job.id);
      nodes = opts_.packing == Packing::kDotProduct
                  ? ledger.selectNodesByAlignment(sp->nodes, request)
                  : ledger.selectNodes(sp->nodes, request, opts_.beta);
    }
    if (nodes.empty()) {
      if (prov != nullptr) {
        prov->addAttempt(job.id,
                         {k, sp->nodes, request.cores, request.ways,
                          request.bw_gbps,
                          xray::RejectReason::kInsufficientResources});
      }
      if (tracing()) {
        rejections += "k=" + std::to_string(k) + ": no " +
                      std::to_string(sp->nodes) + " node(s) with " +
                      std::to_string(request.cores) + " cores + " +
                      std::to_string(request.ways) + " ways + " +
                      util::fmt(request.bw_gbps, 1) + " GB/s free; ";
      }
      continue;
    }

    Placement p;
    p.nodes = std::move(nodes);
    p.procs_per_node = sp->procs_per_node;
    p.scale_factor = k;
    p.ways = demand.ways;
    p.bw_gbps = demand.bw_gbps;
    p.net_gbps = request.net_gbps;
    p.exclusive = false;
    if (prov != nullptr) {
      prov->addAttempt(job.id, {k, sp->nodes, request.cores, request.ways,
                                request.bw_gbps, xray::RejectReason::kNone});
      decide(*prov, job.id, ledger, p, k, opts_.beta);
    }
    if (tracing()) {
      // Chosen nodes with the Co + Bo + beta x Wo score they were picked by
      // (pre-allocation, i.e. the value the selection compared).
      std::vector<obs::NodeScore> scored;
      scored.reserve(p.nodes.size());
      for (int nd : p.nodes) {
        scored.push_back({nd, ledger.node(nd).score(opts_.beta)});
      }
      rec_->scheduleAttempt(job.id, job.spec.program, k, demand.ways,
                            demand.bw_gbps, rejections, scored);
      rec_->placementDecided(job.id, job.spec.program, k, demand.ways,
                             demand.bw_gbps, /*exclusive=*/false,
                             std::move(scored));
    }
    return p;
  }
  if (prov != nullptr && prov->record(job.id).walk.empty()) {
    prov->addAttempt(job.id,
                     {0, 0, 0, 0, 0.0, xray::RejectReason::kNoFeasibleScale});
  }
  if (tracing()) {
    if (rejections.empty()) rejections = "no profiled scale fits the cluster";
    rec_->scheduleAttempt(job.id, job.spec.program, 0, 0, 0.0, rejections);
  }
  return std::nullopt;
}

}  // namespace sns::sched
