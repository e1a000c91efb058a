#pragma once

#include <span>
#include <vector>

#include "sns/app/program.hpp"
#include "sns/hw/machine.hpp"

namespace sns::perfmodel {

/// One job's footprint on one node, input to the contention solver.
struct NodeShare {
  const app::ProgramModel* prog = nullptr;
  int procs = 0;          ///< processes of this job on this node
  double ways = 0.0;      ///< CAT-allocated LLC ways; <= 0 means no
                          ///< partitioning (free-for-all cache sharing)
  double remote_frac = 0.0;  ///< from the job's placement (spread side effects)
  double mem_intensity = 1.0;  ///< phase multiplier on memory refs/instr
  /// Hardware bandwidth throttle (Intel MBA). <= 0 means unthrottled — the
  /// paper's testbed, where reservations are estimates only (§4.4).
  double bw_cap_gbps = 0.0;
};

/// Reusable flat working set for NodeContentionSolver::solveInto(): one
/// array per model quantity (structure-of-arrays), grown once and reused
/// across calls so the hot solve path stops allocating. Caller-owned
/// because one solver instance is shared const across parallel simulators
/// (bench_fig20's replay grid) — a member scratch would race.
struct SolveScratch {
  std::vector<double> eff_ways;
  std::vector<double> pressure;
  std::vector<double> miss;
  std::vector<double> refs;
  std::vector<double> raw_rate;
  std::vector<double> demand;
  std::vector<double> capped;
};

/// Per-job outcome of the node-level co-run model.
struct ShareOutcome {
  double rate_per_proc = 0.0;  ///< achieved instructions/second per process
  double raw_rate_per_proc = 0.0;  ///< rate if bandwidth were unconstrained
  double bw_gbps = 0.0;        ///< achieved DRAM bandwidth of this job
  double demand_gbps = 0.0;    ///< unconstrained bandwidth demand
  double ipc = 0.0;            ///< achieved per-core IPC
  double miss_ratio = 0.0;     ///< LLC miss ratio at the effective capacity
  double eff_ways = 0.0;       ///< ways actually backing the job's data
};

/// Node-level co-run model: given the jobs sharing one node (with CAT
/// partitions or free-for-all cache sharing), computes each job's achieved
/// instruction rate, bandwidth, IPC and miss ratio.
///
/// Model summary (see DESIGN.md §4):
///  * per-process CPI = cpi_core + refs/instr x miss x (latency / MLP);
///  * per-job bandwidth demand follows from the unconstrained rate; a job
///    alone cannot exceed the saturation curve at its own core count;
///  * when total demand exceeds the node's achievable aggregate bandwidth,
///    jobs receive proportional shares and their progress scales down
///    (bandwidth-roofline behaviour);
///  * jobs without a CAT partition split the unpartitioned ways in
///    proportion to their cache pressure (procs x refs x miss), solved by a
///    short fixed-point iteration.
class NodeContentionSolver {
 public:
  explicit NodeContentionSolver(const hw::MachineConfig& mach) : mach_(mach) {}

  /// Solve one node. `shares` may mix CAT-partitioned and free entries.
  std::vector<ShareOutcome> solve(std::span<const NodeShare> shares) const;

  /// Allocation-free, SIMD-friendly form of solve() — the path SolverCache
  /// misses take; solve() is its test reference. Identical model
  /// arithmetic — each per-share quantity is produced by the same
  /// expressions in the same element order, and every cross-share
  /// reduction stays a serial in-order sum — but staged through the
  /// caller's flat scratch arrays, so results are bit-identical to solve()
  /// while the element-wise demand/roofline/outcome loops compile to
  /// vector code and the ~6 per-call heap allocations disappear. `out` is
  /// resized to shares.size().
  void solveInto(std::span<const NodeShare> shares, SolveScratch& scratch,
                 std::vector<ShareOutcome>& out) const;

  /// LLC megabytes available per process when `procs` processes share
  /// `ways` ways on this node (two-socket layout: processes spread evenly
  /// across sockets; per the paper the same ways are allocated on both).
  double mbPerProc(double ways, int procs) const;

  const hw::MachineConfig& machine() const { return mach_; }

 private:
  hw::MachineConfig mach_;
};

}  // namespace sns::perfmodel
