#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/perfmodel/contention.hpp"
#include "sns/sched/job.hpp"

namespace sns::sched {

/// Solver slots and job histograms over the ledger's co-run groups
/// (DESIGN.md section 11, "Co-run groups").
///
/// actuator::ResourceLedger owns the one node -> group map: every node
/// names the group of its ordered resident list, and nodes of one group
/// present the same co-run signature to the contention solver and get the
/// same outcome. This table keeps, per ledger group id, the per-resident
/// solver input and outcome of the owner's last solve (a Slot, re-sized
/// whenever the ledger's serial shows a new incarnation behind the id),
/// and for every running job the histogram (group, node count, resident
/// index) over the groups its placement touches. Both are fed from the
/// (src, dst, count) transitions the ledger reports for a join or leave,
/// so they change once per transition, not once per node, and a job's
/// co-run quantities derive in O(groups) instead of O(footprint). The same
/// holds for NIC demand: each group incarnation sums its residents' demand
/// once, in arrival order, and the count of nodes above the link rate
/// moves once per transition.
/// Finished jobs' histogram storage is reused by the next job to start.
class CorunGroups {
 public:
  using GroupId = actuator::ResourceLedger::GroupId;
  using Transition = actuator::ResourceLedger::Transition;
  static constexpr GroupId kIdle = actuator::ResourceLedger::kIdleGroup;

  /// Per-group solve state, indexed by the ledger's group id.
  struct Slot {
    /// Per resident: the contention solver's input and outcome, last solve.
    std::vector<perfmodel::NodeShare> in;
    std::vector<perfmodel::ShareOutcome> out;
    /// histogram(residents[i])[hist_pos[i]] is residents[i]'s entry for
    /// this group.
    std::vector<std::uint32_t> hist_pos;
    /// Free for the owner (the simulator's refresh dedup); 0 on creation.
    std::uint64_t stamp = 0;
    std::uint64_t serial = 0;  ///< the ledger incarnation this slot is sized for
    /// The residents' NIC demand (GB/s) per node, summed in arrival order;
    /// 0 on the idle group.
    double nic = 0.0;
  };

  /// One job's share of one group: `count` of the job's placement nodes
  /// name `group`, where the job sits at residents[index].
  struct HistEntry {
    GroupId group = kIdle;
    std::uint32_t count = 0;
    std::uint32_t index = 0;
    /// firstOf()'s answer, cached; kUnknown until asked and whenever
    /// `count` changes.
    std::uint32_t first = kUnknown;
  };
  static constexpr std::uint32_t kUnknown = 0xffffffffu;

  /// No slots, histograms sized for jobs 0..n_jobs-1.
  void reset(std::size_t n_jobs);

  const Slot& slot(GroupId g) const { return slots_[g]; }
  Slot& slot(GroupId g) { return slots_[g]; }
  const std::vector<HistEntry>& histogram(JobId job) const {
    return hist_[static_cast<std::size_t>(job)];
  }
  /// Position in `placement` (the job's whole placement, in order) of its
  /// first node in the group of histogram(job)[entry]. A node enters or
  /// leaves that group only through a transition that changes the entry's
  /// count, so the answer is cached in the entry until then; a miss scans
  /// the placement up to the answer.
  std::size_t firstOf(JobId job, std::size_t entry, std::span<const int> placement,
                      const actuator::ResourceLedger& ledger);

  /// Nodes whose NIC demand exceeds the link rate.
  std::int64_t nicOverNodes() const { return nic_over_nodes_; }
  /// The NIC demand `job` registered when it joined.
  double nicDemand(JobId job) const { return nic_[static_cast<std::size_t>(job)]; }
  /// The highest NIC demand over `job`'s nodes.
  double nicPeak(JobId job) const;
  /// Position in `placement` (the job's whole placement, in order) of its
  /// first node whose histogram entry satisfies `pred`; placement.size()
  /// when none does.
  template <class Pred>
  std::size_t firstWhere(JobId job, std::span<const int> placement,
                         const actuator::ResourceLedger& ledger, Pred pred) {
    const auto& h = hist_[static_cast<std::size_t>(job)];
    std::size_t first = placement.size();
    for (std::size_t k = 0; k < h.size(); ++k) {
      if (pred(h[k])) first = std::min(first, firstOf(job, k, placement, ledger));
    }
    return first;
  }

  // ---- events ---------------------------------------------------------------
  /// `job` landed on its whole placement with `nic_demand` GB/s of NIC
  /// demand per node; `moves` is what the ledger's allocate() returned.
  void join(JobId job, double nic_demand, const actuator::ResourceLedger& ledger,
            std::span<const Transition> moves) {
    apply(job, nic_demand, ledger, moves, true);
  }
  /// `job` departed its whole placement; `moves` from the ledger's release().
  void leave(JobId job, const actuator::ResourceLedger& ledger,
             std::span<const Transition> moves) {
    apply(job, 0.0, ledger, moves, false);
  }

  // ---- test hooks (audit coverage) -------------------------------------------
  void debugCorruptHistogram(JobId job, int delta);

 private:
  void apply(JobId job, double nic_demand, const actuator::ResourceLedger& ledger,
             std::span<const Transition> moves, bool joining);
  /// Take `n` nodes off a histogram entry; drops it (swap-with-last) at 0.
  void shrink(std::vector<HistEntry>& h, std::uint32_t pos, std::uint32_t n);

  std::vector<Slot> slots_;
  std::vector<std::vector<HistEntry>> hist_;       ///< per job
  std::vector<std::vector<HistEntry>> hist_pool_;  ///< finished jobs' storage
  std::vector<double> nic_;                        ///< per job: NIC demand
  std::int64_t nic_over_nodes_ = 0;
};

}  // namespace sns::sched
