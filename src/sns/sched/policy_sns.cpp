#include "sns/sched/policies.hpp"

#include <bit>

#include "sns/profile/demand.hpp"
#include "sns/profile/exploration.hpp"
#include "sns/util/error.hpp"
#include "sns/util/hot_path.hpp"
#include "sns/util/table.hpp"

namespace sns::sched {

std::size_t SnsPolicy::PlanKeyHash::operator()(const PlanKey& k) const {
  // splitmix64-style mix over the pointer, alpha bits, procs and size.
  std::uint64_t x = reinterpret_cast<std::uintptr_t>(k.prog) ^
                    (k.alpha_bits * 0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.procs))
                     << 17) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.cluster_nodes))
                     << 37);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

SnsPolicy::Plan SnsPolicy::buildPlan(const Job& job,
                                     const actuator::ResourceLedger& ledger,
                                     const profile::ProfileDatabase& db) const {
  // Walking the IPC-LLC / BW-LLC profile curves is the demand estimation
  // the curve-score span covers; plans are memoized, so it runs once per
  // spec.
  xray::ScopedSpan xs(xray_, xray::SpanKind::kCurveScore, job.id);
  Plan plan;
  plan.program = job.spec.program;
  const auto* prof = db.find(job.spec.program, job.spec.procs);
  // Unprofiled or partially-explored program: run it exclusively at the
  // next trial scale; the monitor profiles it during that run (§4.2, §4.4).
  plan.trial = profile::nextTrialScale(prof, *job.program, job.spec.procs,
                                       ledger.nodeCount(), *est_,
                                       opts_.exploration);
  if (plan.trial > 0) return plan;
  SNS_REQUIRE(prof != nullptr, "finished exploration implies a profile");

  const double alpha = alphaOf(job);
  // Scale factors in preference order: fastest-profiled first for scaling
  // programs (Fig 11's "select fastest scale factor among remaining"),
  // most-compact first for neutral/compact programs, which are only
  // scaled passively (§6.1).
  for (int k : prof->preferredScaleOrder()) {
    const auto* sp = prof->at(k);
    SNS_REQUIRE(sp != nullptr, "profile lost a scale");
    PlanStep& step = plan.steps.emplace_back();
    step.k = k;
    step.nodes = sp->nodes;
    step.request.cores = sp->procs_per_node;
    if (sp->nodes > 1 && !job.program->multi_node) {
      step.skip = xray::RejectReason::kMultiNodeUnsupported;
      continue;
    }
    if (sp->nodes > ledger.nodeCount()) {
      step.skip = xray::RejectReason::kClusterTooSmall;
      continue;
    }
    const profile::ResourceDemand demand =
        profile::estimateDemand(*sp, alpha, ledger.machine());
    step.request.ways = demand.ways;
    step.request.bw_gbps = demand.bw_gbps;
    step.request.net_gbps = opts_.manage_network ? demand.net_gbps : 0.0;
  }
  return plan;
}

const SnsPolicy::Plan& SnsPolicy::planFor(const Job& job,
                                          const actuator::ResourceLedger& ledger,
                                          const profile::ProfileDatabase& db) const {
  if (plans_generation_ != db.generation()) {
    plans_.clear();
    plans_generation_ = db.generation();
  }
  const PlanKey key{job.program, job.spec.procs,
                    std::bit_cast<std::uint64_t>(job.spec.alpha),
                    ledger.nodeCount()};
  const auto it = plans_.find(key);
  // A program model shared by two spec names would find the other name's
  // plan; such a plan is rebuilt for this name.
  if (it != plans_.end() && it->second.program == job.spec.program) {
    return it->second;
  }
  // A never-seen spec grows the memo — warm-up, like a solver-cache miss,
  // so the enclosing hot-path activation is a boundary. Replayed specs
  // stay heap-silent.
  util::hotpath::markInnermostBoundary();
  return plans_.insert_or_assign(key, buildPlan(job, ledger, db)).first->second;
}

std::optional<Placement> SnsPolicy::tryPlace(const Job& job,
                                             const actuator::ResourceLedger& ledger,
                                             const profile::ProfileDatabase& db) const {
  xray::ProvenanceStore* prov = provenance();
  if (prov != nullptr) {
    prov->beginAttempt(job.id, job.spec.program, job.spec.procs, alphaOf(job),
                       opts_.beta, xray_->passSimTime());
  }

  const Plan& plan = planFor(job, ledger, db);
  if (plan.trial > 0) {
    std::optional<Placement> p;
    {
      xray::ScopedSpan xs(xray_, xray::SpanKind::kCandidatePrune, job.id);
      p = exclusivePlacement(job, ledger, *est_, plan.trial);
    }
    if (prov != nullptr) {
      prov->noteExploration(job.id, plan.trial, p.has_value());
      if (p.has_value()) decide(*prov, job.id, ledger, *p, plan.trial, opts_.beta);
    }
    if (!p.has_value()) {
      explainFailure(job, ledger, db);
    } else if (tracing()) {
      rec_->explorationStarted(job.id, job.spec.program, plan.trial);
    }
    return p;
  }

  for (std::size_t i = 0; i < plan.steps.size(); ++i) {
    const PlanStep& step = plan.steps[i];
    const actuator::NodeAllocation& request = step.request;
    if (step.skip != xray::RejectReason::kNone) {
      if (prov != nullptr) {
        prov->addAttempt(job.id, {step.k, step.nodes, request.cores, 0, 0.0, step.skip});
      }
      continue;
    }
    std::vector<int> nodes;
    {
      // Candidate pruning: the ledger scan scoring every feasible node —
      // the dominant cost of the contended SNS decision path.
      xray::ScopedSpan xs(xray_, xray::SpanKind::kCandidatePrune, job.id);
      nodes = opts_.packing == Packing::kDotProduct
                  ? ledger.selectNodesByAlignment(step.nodes, request)
                  : ledger.selectNodes(step.nodes, request, opts_.beta);
    }
    if (nodes.empty()) {
      if (prov != nullptr) {
        prov->addAttempt(job.id,
                         {step.k, step.nodes, request.cores, request.ways,
                          request.bw_gbps,
                          xray::RejectReason::kInsufficientResources});
      }
      continue;
    }

    Placement p;
    p.nodes = std::move(nodes);
    p.procs_per_node = request.cores;
    p.scale_factor = step.k;
    p.ways = request.ways;
    p.bw_gbps = request.bw_gbps;
    p.net_gbps = request.net_gbps;
    p.exclusive = false;
    if (prov != nullptr) {
      prov->addAttempt(job.id, {step.k, step.nodes, request.cores, request.ways,
                                request.bw_gbps, xray::RejectReason::kNone});
      decide(*prov, job.id, ledger, p, step.k, opts_.beta);
    }
    if (tracing()) {
      // Chosen nodes with the Co + Bo + beta x Wo score they were picked by
      // (pre-allocation, i.e. the value the selection compared).
      std::vector<obs::NodeScore> scored;
      scored.reserve(p.nodes.size());
      for (int nd : p.nodes) {
        scored.push_back({nd, ledger.node(nd).score(opts_.beta)});
      }
      rec_->scheduleAttempt(job.id, job.spec.program, step.k, request.ways,
                            request.bw_gbps, rejectionText(plan, i), scored);
      rec_->placementDecided(job.id, job.spec.program, step.k, request.ways,
                             request.bw_gbps, /*exclusive=*/false,
                             std::move(scored));
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

std::string SnsPolicy::rejectionText(const Plan& plan, std::size_t end) {
  std::string text;
  for (std::size_t i = 0; i < end; ++i) {
    const PlanStep& step = plan.steps[i];
    if (step.skip != xray::RejectReason::kNone) continue;
    const actuator::NodeAllocation& request = step.request;
    text += "k=" + std::to_string(step.k) + ": no " + std::to_string(step.nodes) +
            " node(s) with " + std::to_string(request.cores) + " cores + " +
            std::to_string(request.ways) + " ways + " +
            util::fmt(request.bw_gbps, 1) + " GB/s free; ";
  }
  return text;
}

void SnsPolicy::explainFailure(const Job& job, const actuator::ResourceLedger& ledger,
                               const profile::ProfileDatabase& db) const {
  if (!tracing()) return;
  // Built from the memoized plan: a failure means every step the walk
  // asked the ledger about found no nodes.
  const Plan& plan = planFor(job, ledger, db);
  if (plan.trial > 0) {
    rec_->explorationPreempted(job.id, job.spec.program, plan.trial,
                               "no idle nodes for the exclusive trial run");
    return;
  }
  if (plan.failure_text.empty()) {
    plan.failure_text = rejectionText(plan, plan.steps.size());
    if (plan.failure_text.empty()) {
      plan.failure_text = "no profiled scale fits the cluster";
    }
  }
  rec_->scheduleAttempt(job.id, job.spec.program, 0, 0, 0.0, plan.failure_text);
}

}  // namespace sns::sched
