#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "sns/perfmodel/contention.hpp"
#include "sns/sched/job.hpp"

namespace sns::sched {

/// Canonical co-run group table (DESIGN.md section 11, "Co-run groups").
///
/// SNS spreads a job with the same allocation on every node it occupies
/// (§4.4), so nodes hosting the same *ordered* resident list present the
/// same co-run signature to the contention solver and get the same
/// outcome. The table names, for every node, the immutable group of its
/// resident list: exactly one group per distinct ordered list, group 0
/// (kIdle) being the empty list. Each group carries its resident list and
/// the per-resident input and outcome of its owner's last solve.
///
/// Placement changes are events over one job's nodes. join() moves every
/// node from its group G to G+[job]; leave() moves it to G-[job] (the
/// remaining residents keep their relative order, as on a real node). An
/// event memoizes its src -> dst transitions, so moving a node is one id
/// load and store, and the per-job histograms — for every running job,
/// (group, node count, resident index) over the groups its placement
/// touches — are updated once per transition, not once per node. A job's
/// co-run quantities then derive in O(groups) instead of O(footprint).
///
/// Group records, their vectors and the histograms are pooled: a group
/// that loses its last node returns its id and capacity to a free list
/// when the event ends, and a finished job's histogram storage is reused
/// by the next job to start.
///
/// Lookup by resident list goes through a hash index that is only ever
/// probed, never iterated, so nothing observable depends on hash order;
/// group ids themselves are internal names (the free list is LIFO, so they
/// are deterministic too).
class CorunGroups {
 public:
  using GroupId = std::uint32_t;
  static constexpr GroupId kIdle = 0;

  struct Group {
    std::vector<JobId> residents;  ///< arrival order on the node
    /// Per resident: the contention solver's input and outcome, last solve.
    std::vector<perfmodel::NodeShare> in;
    std::vector<perfmodel::ShareOutcome> out;
    /// histogram(residents[i])[hist_pos[i]] is residents[i]'s entry for
    /// this group.
    std::vector<std::uint32_t> hist_pos;
    std::uint32_t members = 0;  ///< nodes naming this group
    /// Free for the owner (the simulator's refresh dedup); 0 on creation.
    std::uint64_t stamp = 0;
    bool live = false;  ///< false while the record sits on the free list
    /// Unique per incarnation (never 0): owners caching per-group results
    /// key them on this, since pooled ids are reused.
    std::uint64_t serial = 0;

    // ---- table internals ----------------------------------------------------
    std::uint64_t hash = 0;        ///< index key: hash of `residents`
    std::uint64_t born_epoch = 0;  ///< event that created the group
    std::uint64_t move_epoch = 0;  ///< event whose transition is memoized
    GroupId move_dst = kIdle;      ///< memoized transition target
    std::uint32_t moved = 0;       ///< nodes moved by the current event
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

  /// Every node idle, histograms sized for jobs 0..n_jobs-1.
  void reset(int nodes, std::size_t n_jobs);

  int nodeCount() const { return static_cast<int>(node_group_.size()); }
  GroupId groupOf(int nd) const { return node_group_[static_cast<std::size_t>(nd)]; }
  const Group& group(GroupId g) const { return groups_[g]; }
  Group& group(GroupId g) { return groups_[g]; }
  /// Upper bound on group ids (live or pooled).
  std::size_t slots() const { return groups_.size(); }
  const std::vector<HistEntry>& histogram(JobId job) const {
    return hist_[static_cast<std::size_t>(job)];
  }
  /// Position in `placement` (the job's whole placement, in order) of its
  /// first node in the group of histogram(job)[entry]. A node enters or
  /// leaves that group only through a transition that changes the entry's
  /// count, so the answer is cached in the entry until then; a miss scans
  /// the placement up to the answer.
  std::size_t firstOf(JobId job, std::size_t entry, std::span<const int> placement);

  // ---- events ---------------------------------------------------------------
  /// `job` lands on `nodes` (distinct; the job resident on none of them),
  /// which must be its whole placement.
  void join(JobId job, std::span<const int> nodes) { event(job, nodes, true); }
  /// `job` departs `nodes`, which must be its whole placement.
  void leave(JobId job, std::span<const int> nodes) { event(job, nodes, false); }

  // ---- test hooks (audit coverage) -------------------------------------------
  void debugCorruptMembers(GroupId g, int delta);
  void debugSetNodeGroup(int nd, GroupId g) {
    node_group_[static_cast<std::size_t>(nd)] = g;
  }
  void debugCorruptHistogram(JobId job, int delta);

 private:
  void event(JobId job, std::span<const int> nodes, bool joining);
  /// The group `from` becomes under the current event: memoized per
  /// event, interned on first use.
  GroupId route(GroupId from);
  /// Settle member counts and histograms, and pool emptied groups.
  void settle();
  GroupId intern(const std::vector<JobId>& residents);
  void release(GroupId g);
  /// Take `n` nodes off a histogram entry; drops it (swap-with-last) at 0.
  void shrink(std::vector<HistEntry>& h, std::uint32_t pos, std::uint32_t n);

  std::vector<GroupId> node_group_;
  std::vector<Group> groups_;
  std::vector<GroupId> free_;
  std::unordered_multimap<std::uint64_t, GroupId> index_;  ///< hash -> group
  std::vector<std::vector<HistEntry>> hist_;       ///< per job
  std::vector<std::vector<HistEntry>> hist_pool_;  ///< finished jobs' storage
  std::vector<GroupId> moves_;  ///< source groups of the current event
  std::vector<JobId> key_;      ///< transition scratch
  std::uint64_t epoch_ = 0;
  std::uint64_t serial_ = 0;  ///< last Group::serial issued
  JobId job_ = -1;
  bool joining_ = false;
};

}  // namespace sns::sched
