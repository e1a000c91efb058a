#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "sns/profile/profiler.hpp"
#include "sns/sched/policy.hpp"
#include "sns/xray/provenance.hpp"

namespace sns::sched {

/// Compact-n-Exclusive: the conventional baseline. A job takes its minimum
/// node footprint, each node fully dedicated (node mode E).
class CePolicy final : public SchedulingPolicy {
 public:
  explicit CePolicy(const perfmodel::Estimator& est) : est_(&est) {}
  std::string name() const override { return "CE"; }
  std::optional<Placement> tryPlace(const Job& job,
                                    const actuator::ResourceLedger& ledger,
                                    const profile::ProfileDatabase& db) const override;
  void explainFailure(const Job& job, const actuator::ResourceLedger& ledger,
                      const profile::ProfileDatabase& db) const override;

 private:
  const perfmodel::Estimator* est_;
};

/// Compact-n-Share: the intermediate policy (paper Fig 8). Nodes are
/// shared (mode S) and idle cores filled; a scale factor of 1 is preferred
/// but not forced — the lowest currently feasible scale is used. No cache
/// partitioning and no bandwidth awareness.
class CsPolicy final : public SchedulingPolicy {
 public:
  explicit CsPolicy(const perfmodel::Estimator& est) : est_(&est) {}
  std::string name() const override { return "CS"; }
  std::optional<Placement> tryPlace(const Job& job,
                                    const actuator::ResourceLedger& ledger,
                                    const profile::ProfileDatabase& db) const override;
  void explainFailure(const Job& job, const actuator::ResourceLedger& ledger,
                      const profile::ProfileDatabase& db) const override;

 private:
  const perfmodel::Estimator* est_;
};

/// Spread-n-Share: the paper's contribution (§4.4, Fig 11). Walks the
/// job's profiled scale factors in descending exclusive-run performance;
/// per scale, estimates the (cores, ways, bandwidth) demand from the
/// profile curves and the slowdown threshold alpha, and searches for nodes
/// with that much residual capacity (group-aware, least-loaded-first with
/// node score Co + Bo + beta x Wo). Unprofiled programs run compact and
/// exclusive, which doubles as a profiling opportunity.
class SnsPolicy final : public SchedulingPolicy {
 public:
  /// Node-selection heuristic: the paper's idlest-first score within
  /// idle-core groups, or the dot-product vector-bin-packing alternative
  /// its §7 points to.
  enum class Packing { kIdlestScore, kDotProduct };

  struct Options {
    Packing packing = Packing::kIdlestScore;
    double beta = 2.0;          ///< LLC weight in the node score (§4.4)
    double default_alpha = 0.9; ///< used when a job does not specify alpha
    /// Treat per-node NIC bandwidth as a third managed resource (§3.3's
    /// extension): reserve the profiled network demand when placing.
    bool manage_network = false;
    /// Knobs of the piggybacked scale exploration for unprofiled or
    /// partially profiled programs (§4.2).
    profile::ProfilerConfig exploration;
  };

  explicit SnsPolicy(const perfmodel::Estimator& est) : SnsPolicy(est, Options()) {}
  SnsPolicy(const perfmodel::Estimator& est, Options opts) : est_(&est), opts_(opts) {}
  std::string name() const override { return "SNS"; }
  std::optional<Placement> tryPlace(const Job& job,
                                    const actuator::ResourceLedger& ledger,
                                    const profile::ProfileDatabase& db) const override;
  void explainFailure(const Job& job, const actuator::ResourceLedger& ledger,
                      const profile::ProfileDatabase& db) const override;
  const Options& options() const { return opts_; }

 private:
  /// Everything tryPlace() derives from a job's spec alone, before it
  /// reads the ledger's free capacity: the exploration trial scale, or
  /// the profiled scales in preference order, each with the per-node
  /// request it makes or the reason it is skipped. A pure function of
  /// (program, procs, alpha, cluster size, profile contents) for the
  /// policy's fixed machine and options, so it is built once per spec.
  struct PlanStep {
    int k = 0;
    int nodes = 0;
    /// Per-node request (cores, and for placeable scales the estimated
    /// ways, bandwidth and NIC demand).
    actuator::NodeAllocation request;
    /// kMultiNodeUnsupported or kClusterTooSmall for a skipped scale,
    /// kNone for one the walk asks the ledger about.
    xray::RejectReason skip = xray::RejectReason::kNone;
  };
  struct Plan {
    std::string program;  ///< spec name the plan's profile was found under
    int trial = 0;        ///< > 0: run exclusively at this trial scale
    std::vector<PlanStep> steps;
    mutable std::string failure_text;  ///< built by the first explainFailure()
  };
  /// Keyed like the simulator's failed-spec memo (program identity,
  /// procs, alpha bits) plus the cluster size the walk is checked
  /// against. The database generation, unique across the process, guards
  /// the whole memo against every way a profile can come to mean
  /// different contents: a profile replaced in place (the monitor
  /// re-profiles programs mid-run), a copied database, or another
  /// database built at a recycled address.
  struct PlanKey {
    const app::ProgramModel* prog = nullptr;
    int procs = 0;
    std::uint64_t alpha_bits = 0;
    int cluster_nodes = 0;
    bool operator==(const PlanKey&) const = default;
  };
  struct PlanKeyHash {
    std::size_t operator()(const PlanKey& k) const;
  };

  double alphaOf(const Job& job) const {
    return job.spec.alpha > 0.0 ? job.spec.alpha : opts_.default_alpha;
  }
  /// The memoized plan for `job` on `ledger`'s cluster, built on first use.
  const Plan& planFor(const Job& job, const actuator::ResourceLedger& ledger,
                      const profile::ProfileDatabase& db) const;
  Plan buildPlan(const Job& job, const actuator::ResourceLedger& ledger,
                 const profile::ProfileDatabase& db) const;
  /// Rejection text of the ledger-queried steps of `plan` before `end`.
  static std::string rejectionText(const Plan& plan, std::size_t end);

  const perfmodel::Estimator* est_;
  Options opts_;
  // Memo state is logically observational (results are bit-identical with
  // or without it), so it is mutable behind the const tryPlace() path.
  mutable std::unordered_map<PlanKey, Plan, PlanKeyHash> plans_;
  mutable std::uint64_t plans_generation_ = ~std::uint64_t{0};
};

/// Shared helper: an exclusive placement at the given scale factor. CE
/// always uses scale 1; SNS exploration runs use the trial scale (the
/// paper piggybacks scaling-out profiling on exclusive production runs).
std::optional<Placement> exclusivePlacement(const Job& job,
                                            const actuator::ResourceLedger& ledger,
                                            const perfmodel::Estimator& est,
                                            int scale_factor);

}  // namespace sns::sched
