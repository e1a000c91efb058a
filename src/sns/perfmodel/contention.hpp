#pragma once

#include <optional>
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

/// One share's contention-free quantities at one way count. A pure
/// function of the share's bits and the ways it is derived at: with CAT
/// honouring each partition exactly, co-runners touch a share only through
/// the ways a free-sharing share is derived at and the node's bandwidth
/// roofline, which the per-node combine applies.
struct ShareDerivation {
  double miss = 0.0;      ///< LLC miss ratio at the derived ways
  double refs = 0.0;      ///< memory references per instruction
  double raw_rate = 0.0;  ///< instructions/s per process, unconstrained
  double demand = 0.0;    ///< unconstrained bandwidth demand, GB/s
  /// Demand clamped by the saturation curve at the share's own core count
  /// and by its MBA throttle: what it pulls from an uncongested node.
  double capped = 0.0;
};

/// Where a lone free-sharing share's fixed point ends: the ways it
/// converges to and its derivation there. A pure function of the share.
struct LoneFixedPoint {
  double ways = 0.0;
  ShareDerivation d;
};

/// Where NodeContentionSolver::solveInto() takes each derivation from:
/// derived fresh, or read from a memo (SolverCache).
class DerivationSource {
 public:
  virtual ShareDerivation derive(const NodeShare& share, double ways) = 0;
  /// The fixed point of `share` alone on a node, when the source holds
  /// it: solveInto() then skips the iteration.
  virtual std::optional<LoneFixedPoint> findLone(const NodeShare& /*share*/) {
    return std::nullopt;
  }
  /// solveInto() iterated `share` alone on a node to `fp`.
  virtual void storeLone(const NodeShare& /*share*/, const LoneFixedPoint& /*fp*/) {}

 protected:
  ~DerivationSource() = default;
};

/// Reusable working set for NodeContentionSolver::solveInto(), grown once
/// and reused across calls so the hot solve path stops allocating.
/// Caller-owned because one solver instance is shared const across
/// parallel simulators (bench_fig20's replay grid) — a member scratch
/// would race.
struct SolveScratch {
  std::vector<double> eff_ways;
  std::vector<double> pressure;
  std::vector<ShareDerivation> derived;
  std::vector<double> derived_at;  ///< ways each `derived` entry was derived at
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

  /// One share's derivation at `ways` (> 0). solve() and solveInto() run
  /// exactly this arithmetic, so a stored derivation is bit-identical to a
  /// fresh one.
  ShareDerivation derive(const NodeShare& share, double ways) const;

  /// Allocation-free form of solve(), in two steps: a derivation per share
  /// (at its partition, or at each fixed-point iterate of its free-pool
  /// split), then one combine per node — the capped demands summed serially
  /// in share order, one saturation-curve read, the proportional scale.
  /// A share is derived again only when its ways moved since its last
  /// derivation, and a lone free-sharing share's fixed point is asked of
  /// the source before it is iterated. Each value comes from the same
  /// expressions in the same order as in solve(), so results are
  /// bit-identical to it. The four-argument form takes every derivation
  /// from `source`; the three-argument form derives each one fresh. `out`
  /// is resized to shares.size().
  void solveInto(std::span<const NodeShare> shares, SolveScratch& scratch,
                 std::vector<ShareOutcome>& out) const;
  void solveInto(std::span<const NodeShare> shares, SolveScratch& scratch,
                 std::vector<ShareOutcome>& out, DerivationSource& source) const;

  /// LLC megabytes available per process when `procs` processes share
  /// `ways` ways on this node (two-socket layout: processes spread evenly
  /// across sockets; per the paper the same ways are allocated on both).
  double mbPerProc(double ways, int procs) const;

  const hw::MachineConfig& machine() const { return mach_; }

 private:
  hw::MachineConfig mach_;
};

}  // namespace sns::perfmodel
