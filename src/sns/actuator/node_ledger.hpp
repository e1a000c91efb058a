#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sns/hw/machine.hpp"
#include "sns/util/error.hpp"

namespace sns::actuator {

using JobId = std::int64_t;

/// Resources one job holds on one node.
struct NodeAllocation {
  int cores = 0;
  int ways = 0;          ///< CAT-partitioned ways; 0 = no partition (free sharing)
  double bw_gbps = 0.0;  ///< bandwidth reservation (estimated, not enforced —
                         ///< the paper's testbed lacks MBA, §4.4)
  bool exclusive = false;  ///< the job claims the node exclusively (E mode)
  /// NIC bandwidth reservation — the paper's §3.3 extension direction
  /// ("inter-node network ... can be accommodated by the SNS scheduling
  /// algorithm"). 0 when network management is off.
  double net_gbps = 0.0;
};

/// What every node of one co-run group holds alike. SNS places a job with
/// one allocation on every node it spreads to (§4.4), so a node's resident
/// list — and with it every integer total, the exclusive flag and the
/// core/way occupancy fractions — is a function of its group. The ledger
/// keeps one GroupState per distinct ordered resident list
/// (ResourceLedger::Group); the two bandwidth sums, which depend on a
/// node's history, live in its exact node-state class
/// (ResourceLedger::NodeClass).
struct GroupState {
  /// (job, allocation) in arrival order on the node.
  std::vector<std::pair<JobId, NodeAllocation>> residents;
  int cores_used = 0;
  int ways_reserved = 0;
  /// Residents holding a CAT partition (ways > 0, not exclusive).
  int partitioned = 0;
  bool exclusive = false;
  double occ_cores = 0.0;  ///< cores_used / cores
  double occ_ways = 0.0;   ///< ways_reserved / llc_ways
};

/// The node-independent half of NodeLedger::fits(): exclusivity, cores,
/// the CAT partition count and ways. Only the bandwidth and NIC checks
/// read per-node state.
inline bool groupAdmits(const GroupState& g, const hw::MachineConfig& mach,
                        const NodeAllocation& r) {
  if (g.exclusive) return false;  // resident exclusive job blocks all
  if (r.exclusive && !g.residents.empty()) return false;
  if (r.cores > mach.cores - g.cores_used) return false;
  if (r.ways > 0 && static_cast<int>(g.residents.size()) >= mach.max_llc_partitions) {
    return false;
  }
  if (r.ways > mach.llc_ways - g.ways_reserved) return false;
  return true;
}

/// Ways backing `alloc`'s data on a node of group `g`: its partition plus
/// an equal share of the unallocated ways (CAT partitions can overlap, so
/// leftover capacity is donated and reclaimed dynamically). A function of
/// the group alone, so one co-run solve serves every member node.
inline double effectiveWays(const GroupState& g, const hw::MachineConfig& mach,
                            const NodeAllocation& alloc) {
  if (alloc.exclusive || alloc.ways == 0) {
    // Exclusive jobs own the whole cache; unpartitioned jobs compete for it
    // (the contention model resolves the free-for-all split).
    return alloc.ways == 0 ? 0.0 : static_cast<double>(mach.llc_ways);
  }
  const double donated = static_cast<double>(mach.llc_ways - g.ways_reserved) /
                         static_cast<double>(g.residents.size());
  return alloc.ways + donated;
}

/// Read-only view of one node's resource accounting, returned by value
/// from ResourceLedger::node(): the node's co-run group state plus its
/// class's bandwidth and NIC reservation sums. CAT semantics: way partitioning
/// with the hardware's constraints (minimum 2 ways per partition for
/// associativity, at most 16 partitions, §5.1) and the SNS policy of
/// donating unallocated ways to residents in equal shares, reclaimed when
/// a new job arrives (§4.4). A view (and any reference it hands out) is
/// valid until the ledger's next allocate/release.
class NodeLedger {
 public:
  NodeLedger(const GroupState& group, double bw_reserved, double net_reserved,
             const hw::MachineConfig& mach, double peak_bw)
      : g_(&group), mach_(&mach), peak_bw_(peak_bw), bw_(bw_reserved),
        net_(net_reserved) {}

  // ---- capacity queries -----------------------------------------------------
  int idleCores() const { return mach_->cores - g_->cores_used; }
  int freeWays() const { return mach_->llc_ways - g_->ways_reserved; }
  double freeBandwidth() const { return peak_bw_ - bw_; }
  double freeNetwork() const { return mach_->net_bw_gbps - net_; }
  int jobCount() const { return static_cast<int>(g_->residents.size()); }
  bool idle() const { return g_->residents.empty(); }
  bool hasExclusiveJob() const { return g_->exclusive; }
  /// Residents holding a CAT partition (ways > 0, not exclusive) — the
  /// only jobs way donation applies to, so donation observers can skip the
  /// per-resident recompute on the (dominant) nodes where it provably
  /// totals zero.
  int partitionedResidents() const { return g_->partitioned; }

  /// True if the requested allocation fits; exclusive requests need an
  /// idle node; nothing fits next to an exclusive resident. Inline: the
  /// candidate scans evaluate this for every node they touch.
  bool fits(const NodeAllocation& r) const {
    if (!groupAdmits(*g_, *mach_, r)) return false;
    if (r.bw_gbps > freeBandwidth() + 1e-9) return false;
    if (r.net_gbps > freeNetwork() + 1e-9) return false;
    return true;
  }

  /// Legacy convenience overload (no network term).
  bool fits(int cores, int ways, double bw_gbps, bool exclusive) const {
    return fits(NodeAllocation{cores, ways, bw_gbps, exclusive, 0.0});
  }

  // ---- occupancy fractions for the SNS node score (§4.4) --------------------
  // Core and way fractions are the group's, computed once when the group
  // is created; the bandwidth fraction divides this node's own sum.
  double coreOccupancy() const { return g_->occ_cores; }
  double wayOccupancy() const { return g_->occ_ways; }
  double bwOccupancy() const { return bw_ / peak_bw_; }

  /// The paper's node-selection metric Co + Bo + beta x Wo.
  double score(double beta) const {
    return coreOccupancy() + bwOccupancy() + beta * wayOccupancy();
  }

  bool holds(JobId job) const { return find(job) != nullptr; }
  const NodeAllocation& allocation(JobId job) const {
    const NodeAllocation* alloc = find(job);
    SNS_REQUIRE(alloc != nullptr, "job holds nothing on this node");
    return *alloc;
  }
  /// Resident allocations in arrival order.
  const std::vector<std::pair<JobId, NodeAllocation>>& allocations() const {
    return g_->residents;
  }

  /// Ways actually backing a job's data right now (actuator::effectiveWays).
  double effectiveWays(JobId job) const { return effectiveWays(allocation(job)); }
  /// Same, for a caller that already holds the allocation.
  double effectiveWays(const NodeAllocation& alloc) const {
    return actuator::effectiveWays(*g_, *mach_, alloc);
  }

  const hw::MachineConfig& machine() const { return *mach_; }

 private:
  const NodeAllocation* find(JobId job) const {
    for (const auto& [id, alloc] : g_->residents) {
      if (id == job) return &alloc;
    }
    return nullptr;
  }

  const GroupState* g_;
  const hw::MachineConfig* mach_;
  double peak_bw_;  ///< mach_->peakBandwidth(), hoisted by the ledger
  double bw_;
  double net_;
};

}  // namespace sns::actuator
