#pragma once

// Independent reference implementations for the ledger tests.
//
// ReferenceNodeLedger is the per-node resource accounting the ledger kept
// before node state moved into co-run groups: one object per node with its
// own sorted allocation list and running sums, updated by += / -= on every
// allocate/release and pinned to zero when the node goes idle. It shares
// no code with actuator::ResourceLedger, so comparing the two bit-for-bit
// after every call checks the group-level ledger against the per-node
// semantics it replaced.
//
// referenceRanked(), referenceAligned() and referenceFeasible() are the
// regroup-per-query node selections: they read nothing but per-node
// accessors, so they run over either ledger.

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "sns/actuator/node_ledger.hpp"
#include "sns/hw/machine.hpp"
#include "sns/util/error.hpp"

namespace sns::testsupport {

using actuator::JobId;
using actuator::NodeAllocation;

class ReferenceNodeLedger {
 public:
  explicit ReferenceNodeLedger(const hw::MachineConfig& mach)
      : mach_(&mach), peak_bw_(mach.peakBandwidth()) {}

  int idleCores() const { return mach_->cores - cores_used_; }
  int freeWays() const { return mach_->llc_ways - ways_reserved_; }
  double freeBandwidth() const { return peak_bw_ - bw_reserved_; }
  double freeNetwork() const { return mach_->net_bw_gbps - net_reserved_; }
  double bwReserved() const { return bw_reserved_; }
  double netReserved() const { return net_reserved_; }
  int jobCount() const { return static_cast<int>(allocs_.size()); }
  bool idle() const { return allocs_.empty(); }
  bool hasExclusiveJob() const { return exclusive_; }
  int partitionedResidents() const { return partitioned_; }

  bool fits(const NodeAllocation& r) const {
    if (exclusive_) return false;
    if (r.exclusive && !allocs_.empty()) return false;
    if (r.cores > idleCores()) return false;
    if (r.ways > 0 && jobCount() >= mach_->max_llc_partitions) return false;
    if (r.ways > freeWays()) return false;
    if (r.bw_gbps > freeBandwidth() + 1e-9) return false;
    if (r.net_gbps > freeNetwork() + 1e-9) return false;
    return true;
  }

  double coreOccupancy() const { return occ_cores_; }
  double wayOccupancy() const { return occ_ways_; }
  double bwOccupancy() const { return occ_bw_; }
  double score(double beta) const {
    return coreOccupancy() + bwOccupancy() + beta * wayOccupancy();
  }

  void allocate(JobId job, const NodeAllocation& alloc) {
    SNS_REQUIRE(alloc.cores >= 1, "allocation needs at least one core");
    SNS_REQUIRE(!holds(job), "job already holds resources on this node");
    SNS_REQUIRE(alloc.ways == 0 || alloc.ways >= mach_->min_ways_per_job,
                "CAT partitions need at least min_ways_per_job ways");
    SNS_REQUIRE(fits(alloc), "allocation does not fit on node");
    const auto it = std::lower_bound(
        allocs_.begin(), allocs_.end(), job,
        [](const auto& entry, JobId id) { return entry.first < id; });
    allocs_.insert(it, {job, alloc});
    cores_used_ += alloc.cores;
    ways_reserved_ += alloc.ways;
    bw_reserved_ += alloc.bw_gbps;
    net_reserved_ += alloc.net_gbps;
    if (alloc.exclusive) exclusive_ = true;
    if (!alloc.exclusive && alloc.ways > 0) ++partitioned_;
    refresh();
  }

  void release(JobId job) {
    const auto it = std::find_if(allocs_.begin(), allocs_.end(),
                                 [job](const auto& e) { return e.first == job; });
    SNS_REQUIRE(it != allocs_.end(), "job holds nothing on this node");
    cores_used_ -= it->second.cores;
    ways_reserved_ -= it->second.ways;
    bw_reserved_ -= it->second.bw_gbps;
    net_reserved_ -= it->second.net_gbps;
    if (it->second.exclusive) exclusive_ = false;
    if (!it->second.exclusive && it->second.ways > 0) --partitioned_;
    allocs_.erase(it);
    if (allocs_.empty()) {
      bw_reserved_ = 0.0;
      net_reserved_ = 0.0;
    }
    refresh();
  }

  bool holds(JobId job) const { return find(job) != nullptr; }
  const NodeAllocation& allocation(JobId job) const {
    const NodeAllocation* a = find(job);
    SNS_REQUIRE(a != nullptr, "job holds nothing on this node");
    return *a;
  }
  /// Resident allocations in ascending JobId order.
  const std::vector<std::pair<JobId, NodeAllocation>>& allocations() const {
    return allocs_;
  }

  double effectiveWays(JobId job) const {
    const NodeAllocation& a = allocation(job);
    if (a.exclusive || a.ways == 0) {
      return a.ways == 0 ? 0.0 : static_cast<double>(mach_->llc_ways);
    }
    return a.ways + static_cast<double>(freeWays()) / static_cast<double>(jobCount());
  }

 private:
  const NodeAllocation* find(JobId job) const {
    for (const auto& [id, a] : allocs_) {
      if (id == job) return &a;
    }
    return nullptr;
  }
  void refresh() {
    occ_cores_ = static_cast<double>(cores_used_) / mach_->cores;
    occ_ways_ = static_cast<double>(ways_reserved_) / mach_->llc_ways;
    occ_bw_ = bw_reserved_ / peak_bw_;
  }

  const hw::MachineConfig* mach_;
  double peak_bw_;
  std::vector<std::pair<JobId, NodeAllocation>> allocs_;
  int cores_used_ = 0;
  int ways_reserved_ = 0;
  double bw_reserved_ = 0.0;
  double net_reserved_ = 0.0;
  double occ_cores_ = 0.0;
  double occ_ways_ = 0.0;
  double occ_bw_ = 0.0;
  bool exclusive_ = false;
  int partitioned_ = 0;
};

/// Ranked selection (ResourceLedger::selectNodes) from scratch: regroup
/// every node by idle-core count, walk the groups best-fit first (fewest
/// idle cores that still hold the request), each scan capped at
/// max(64, 2*count+8) fitting nodes in ascending id order; the first group
/// with `count` candidates wins, else every candidate competes; rank by
/// (score, id). `node_at(id)` returns anything with idleCores(), fits()
/// and score().
template <typename NodeAt>
std::vector<int> referenceRanked(int nodes, const NodeAt& node_at, int count,
                                 const NodeAllocation& req, double beta) {
  std::map<int, std::vector<int>> groups;
  for (int id = 0; id < nodes; ++id) {
    const int idle = node_at(id).idleCores();
    if (idle >= std::max(0, req.cores)) groups[idle].push_back(id);
  }
  const std::size_t n = static_cast<std::size_t>(count);
  const std::size_t cap = std::max<std::size_t>(64, 2 * n + 8);
  const auto rank = [&](const std::vector<int>& ids) {
    std::vector<std::pair<double, int>> scored;
    for (int id : ids) scored.emplace_back(node_at(id).score(beta), id);
    std::sort(scored.begin(), scored.end());
    std::vector<int> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(scored[i].second);
    return out;
  };
  std::vector<int> all;
  for (const auto& [idle, ids] : groups) {
    std::vector<int> fit;
    for (int id : ids) {
      if (fit.size() >= cap) break;
      if (node_at(id).fits(req)) fit.push_back(id);
    }
    if (fit.size() >= n) return rank(fit);
    all.insert(all.end(), fit.begin(), fit.end());
  }
  return all.size() < n ? std::vector<int>{} : rank(all);
}

/// Alignment selection (ResourceLedger::selectNodesByAlignment) from
/// scratch: every fitting node, ranked by the dot product of the
/// normalized request and free-capacity vectors, highest first, id as the
/// tie-break. `node_at(id)` returns anything with fits() and the free
/// capacity accessors.
template <typename NodeAt>
std::vector<int> referenceAligned(int nodes, const NodeAt& node_at,
                                  const hw::MachineConfig& m, int count,
                                  const NodeAllocation& req) {
  const double want[4] = {
      static_cast<double>(req.cores) / m.cores,
      static_cast<double>(req.ways) / m.llc_ways,
      req.bw_gbps / m.peakBandwidth(),
      req.net_gbps / m.net_bw_gbps,
  };
  std::vector<std::pair<double, int>> scored;
  for (int id = 0; id < nodes; ++id) {
    const auto& nl = node_at(id);
    if (!nl.fits(req)) continue;
    const double free[4] = {
        static_cast<double>(nl.idleCores()) / m.cores,
        static_cast<double>(nl.freeWays()) / m.llc_ways,
        nl.freeBandwidth() / m.peakBandwidth(),
        nl.freeNetwork() / m.net_bw_gbps,
    };
    double dot = 0.0;
    for (int d = 0; d < 4; ++d) dot += want[d] * free[d];
    scored.emplace_back(dot, id);
  }
  if (scored.size() < static_cast<std::size_t>(count)) return {};
  std::sort(scored.begin(), scored.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<int> out;
  for (int i = 0; i < count; ++i) out.push_back(scored[static_cast<std::size_t>(i)].second);
  return out;
}

/// ResourceLedger::feasibleNodes from scratch: the nodes where `req` fits,
/// most idle cores first, ascending id among equal idle cores.
template <typename NodeAt>
std::vector<int> referenceFeasible(int nodes, const NodeAt& node_at,
                                   const NodeAllocation& req) {
  std::vector<std::pair<int, int>> fit;  // (-idle cores, id)
  for (int id = 0; id < nodes; ++id) {
    const auto& nl = node_at(id);
    if (nl.idleCores() >= req.cores && nl.fits(req)) fit.emplace_back(-nl.idleCores(), id);
  }
  std::sort(fit.begin(), fit.end());
  std::vector<int> out;
  for (const auto& [neg_idle, id] : fit) out.push_back(id);
  return out;
}

}  // namespace sns::testsupport
