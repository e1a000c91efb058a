#include "sns/perfmodel/contention.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "sns/util/error.hpp"

namespace sns::perfmodel {

double NodeContentionSolver::mbPerProc(double ways, int procs) const {
  SNS_REQUIRE(procs >= 1, "mbPerProc() needs procs >= 1");
  SNS_REQUIRE(ways > 0.0, "mbPerProc() needs ways > 0");
  // Processes are spread evenly across the two sockets; with c processes on
  // the node, each socket hosts c/2 of them sharing (ways/20)*llc_mb. A job
  // with a single process on the node still only spans one socket's LLC.
  const double per_socket_mb = ways / static_cast<double>(mach_.llc_ways) * mach_.llc_mb;
  const double procs_per_socket = std::max(1.0, static_cast<double>(procs) / 2.0);
  return per_socket_mb / procs_per_socket;
}

ShareDerivation NodeContentionSolver::derive(const NodeShare& share,
                                             double ways) const {
  const app::ProgramModel& prog = *share.prog;
  ShareDerivation d;
  d.miss = prog.missRatio(mbPerProc(ways, share.procs), share.remote_frac);
  d.refs = prog.memRefs(share.remote_frac) * share.mem_intensity;
  const double lat_eff = prog.dram_latency_cycles / prog.mlp;
  const double cpi = prog.cpi_core + d.refs * d.miss * lat_eff;
  d.raw_rate = mach_.frequency_ghz * 1e9 / cpi;
  d.demand = share.procs * d.raw_rate * d.refs * d.miss * prog.bytes_per_miss / 1e9;
  // A job alone cannot pull more than the saturation curve allows at its
  // own core count; an MBA throttle clamps it further.
  d.capped = std::min(d.demand, mach_.mem_bw.aggregate(share.procs));
  if (share.bw_cap_gbps > 0.0) d.capped = std::min(d.capped, share.bw_cap_gbps);
  return d;
}

std::vector<ShareOutcome> NodeContentionSolver::solve(
    std::span<const NodeShare> shares) const {
  SNS_REQUIRE(!shares.empty(), "solve() needs at least one share");
  int total_procs = 0;
  double cat_ways = 0.0;
  int free_count = 0;
  for (const auto& s : shares) {
    SNS_REQUIRE(s.prog != nullptr, "NodeShare::prog must be set");
    SNS_REQUIRE(s.procs >= 1, "NodeShare::procs must be >= 1");
    total_procs += s.procs;
    if (s.ways > 0.0) cat_ways += s.ways;
    else ++free_count;
  }
  SNS_REQUIRE(total_procs <= mach_.cores, "node oversubscribed in cores");
  SNS_REQUIRE(cat_ways <= mach_.llc_ways + 1e-9, "node oversubscribed in LLC ways");

  const double free_pool = std::max(0.0, static_cast<double>(mach_.llc_ways) - cat_ways);

  // Resolve effective ways. CAT entries use exactly their partition. Free
  // entries split `free_pool` in proportion to cache pressure, found by a
  // short fixed-point iteration (their miss ratio depends on the split).
  std::vector<double> eff_ways(shares.size(), 0.0);
  if (free_count > 0) {
    SNS_REQUIRE(free_pool > 0.0, "free-sharing jobs but no unpartitioned ways left");
    // Start from an even per-process split.
    int free_procs = 0;
    for (const auto& s : shares)
      if (s.ways <= 0.0) free_procs += s.procs;
    for (std::size_t i = 0; i < shares.size(); ++i) {
      if (shares[i].ways <= 0.0)
        eff_ways[i] = free_pool * shares[i].procs / static_cast<double>(free_procs);
    }
    constexpr int kIters = 4;
    constexpr double kMinWays = 0.25;  // a thrashing job still occupies some lines
    for (int it = 0; it < kIters; ++it) {
      double total_pressure = 0.0;
      std::vector<double> pressure(shares.size(), 0.0);
      for (std::size_t i = 0; i < shares.size(); ++i) {
        if (shares[i].ways > 0.0) continue;
        const ShareDerivation d = derive(shares[i], eff_ways[i]);
        // Occupancy in an unpartitioned LLC tracks each job's miss traffic.
        pressure[i] = shares[i].procs * d.refs * d.miss + 1e-9;
        total_pressure += pressure[i];
      }
      if (total_pressure <= 0.0) break;
      for (std::size_t i = 0; i < shares.size(); ++i) {
        if (shares[i].ways > 0.0) continue;
        eff_ways[i] = std::max(kMinWays, free_pool * pressure[i] / total_pressure);
      }
    }
    // The stability floor can overcommit the pool when many thrashing jobs
    // share it; renormalize so occupancy never exceeds the free ways.
    double total_free = 0.0;
    for (std::size_t i = 0; i < shares.size(); ++i) {
      if (shares[i].ways <= 0.0) total_free += eff_ways[i];
    }
    if (total_free > free_pool) {
      const double scale_down = free_pool / total_free;
      for (std::size_t i = 0; i < shares.size(); ++i) {
        if (shares[i].ways <= 0.0) eff_ways[i] *= scale_down;
      }
    }
  }
  for (std::size_t i = 0; i < shares.size(); ++i) {
    if (shares[i].ways > 0.0) eff_ways[i] = shares[i].ways;
  }

  // Bandwidth demands and the proportional-share roofline.
  std::vector<ShareDerivation> derived(shares.size());
  double total_capped = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    derived[i] = derive(shares[i], eff_ways[i]);
    total_capped += derived[i].capped;
  }
  const double capacity = mach_.mem_bw.aggregate(total_procs);
  const double scale = total_capped > capacity ? capacity / total_capped : 1.0;

  std::vector<ShareOutcome> out(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const ShareDerivation& d = derived[i];
    const double bw = d.capped * scale;
    const double f_bw = d.demand > 1e-12 ? std::min(1.0, bw / d.demand) : 1.0;
    ShareOutcome& o = out[i];
    o.raw_rate_per_proc = d.raw_rate;
    o.rate_per_proc = d.raw_rate * f_bw;
    o.bw_gbps = d.demand > 1e-12 ? d.demand * f_bw : 0.0;
    o.demand_gbps = d.demand;
    o.ipc = o.rate_per_proc / (mach_.frequency_ghz * 1e9);
    o.miss_ratio = d.miss;
    o.eff_ways = eff_ways[i];
  }
  return out;
}

void NodeContentionSolver::solveInto(std::span<const NodeShare> shares,
                                     SolveScratch& sc,
                                     std::vector<ShareOutcome>& out) const {
  struct Fresh final : DerivationSource {
    explicit Fresh(const NodeContentionSolver& s) : solver(s) {}
    ShareDerivation derive(const NodeShare& share, double ways) override {
      return solver.derive(share, ways);
    }
    const NodeContentionSolver& solver;
  } fresh(*this);
  solveInto(shares, sc, out, fresh);
}

void NodeContentionSolver::solveInto(std::span<const NodeShare> shares,
                                     SolveScratch& sc,
                                     std::vector<ShareOutcome>& out,
                                     DerivationSource& source) const {
  SNS_REQUIRE(!shares.empty(), "solve() needs at least one share");
  const std::size_t n = shares.size();
  int total_procs = 0;
  double cat_ways = 0.0;
  int free_count = 0;
  for (const auto& s : shares) {
    SNS_REQUIRE(s.prog != nullptr, "NodeShare::prog must be set");
    SNS_REQUIRE(s.procs >= 1, "NodeShare::procs must be >= 1");
    total_procs += s.procs;
    if (s.ways > 0.0) cat_ways += s.ways;
    else ++free_count;
  }
  SNS_REQUIRE(total_procs <= mach_.cores, "node oversubscribed in cores");
  SNS_REQUIRE(cat_ways <= mach_.llc_ways + 1e-9, "node oversubscribed in LLC ways");

  const double free_pool = std::max(0.0, static_cast<double>(mach_.llc_ways) - cat_ways);

  // Effective ways: same fixed point as solve(), each iterate's
  // derivation taken from `source`, the pressures kept in the scratch.
  // derive() is pure, so a share whose ways did not move since its last
  // derivation keeps it: a lone free share's iterates mostly repeat.
  sc.eff_ways.assign(n, 0.0);
  sc.derived.resize(n);
  sc.derived_at.assign(n, 0.0);  // ways are > 0, so 0 marks "not derived"
  const auto derivedAt = [&](std::size_t i) -> const ShareDerivation& {
    if (std::bit_cast<std::uint64_t>(sc.derived_at[i]) !=
        std::bit_cast<std::uint64_t>(sc.eff_ways[i])) {
      sc.derived[i] = source.derive(shares[i], sc.eff_ways[i]);
      sc.derived_at[i] = sc.eff_ways[i];
    }
    return sc.derived[i];
  };
  // A free-sharing share alone on its node (CE's exclusive placements)
  // iterates to a fixed point that depends on nothing else.
  const bool lone = n == 1 && free_count == 1;
  const std::optional<LoneFixedPoint> known =
      lone ? source.findLone(shares[0]) : std::nullopt;
  if (known) {
    sc.eff_ways[0] = known->ways;
    sc.derived[0] = known->d;
    sc.derived_at[0] = known->ways;
  } else if (free_count > 0) {
    SNS_REQUIRE(free_pool > 0.0, "free-sharing jobs but no unpartitioned ways left");
    int free_procs = 0;
    for (const auto& s : shares)
      if (s.ways <= 0.0) free_procs += s.procs;
    for (std::size_t i = 0; i < n; ++i) {
      if (shares[i].ways <= 0.0)
        sc.eff_ways[i] = free_pool * shares[i].procs / static_cast<double>(free_procs);
    }
    constexpr int kIters = 4;
    constexpr double kMinWays = 0.25;  // a thrashing job still occupies some lines
    for (int it = 0; it < kIters; ++it) {
      double total_pressure = 0.0;
      sc.pressure.assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        if (shares[i].ways > 0.0) continue;
        const ShareDerivation& d = derivedAt(i);
        sc.pressure[i] = shares[i].procs * d.refs * d.miss + 1e-9;
        total_pressure += sc.pressure[i];
      }
      if (total_pressure <= 0.0) break;
      for (std::size_t i = 0; i < n; ++i) {
        if (shares[i].ways > 0.0) continue;
        sc.eff_ways[i] = std::max(kMinWays, free_pool * sc.pressure[i] / total_pressure);
      }
    }
    double total_free = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (shares[i].ways <= 0.0) total_free += sc.eff_ways[i];
    }
    if (total_free > free_pool) {
      const double scale_down = free_pool / total_free;
      for (std::size_t i = 0; i < n; ++i) {
        if (shares[i].ways <= 0.0) sc.eff_ways[i] *= scale_down;
      }
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (shares[i].ways > 0.0) sc.eff_ways[i] = shares[i].ways;
  }

  // The per-node combine. The capped sum is an in-order serial reduction,
  // so share order fixes its rounding exactly as in solve().
  double total_capped = 0.0;
  for (std::size_t i = 0; i < n; ++i) total_capped += derivedAt(i).capped;
  if (lone && !known) source.storeLone(shares[0], {sc.eff_ways[0], sc.derived[0]});
  const double capacity = mach_.mem_bw.aggregate(total_procs);
  const double scale = total_capped > capacity ? capacity / total_capped : 1.0;

  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ShareDerivation& d = sc.derived[i];
    const double bw = d.capped * scale;
    const double f_bw = d.demand > 1e-12 ? std::min(1.0, bw / d.demand) : 1.0;
    ShareOutcome& o = out[i];
    o.raw_rate_per_proc = d.raw_rate;
    o.rate_per_proc = d.raw_rate * f_bw;
    o.bw_gbps = d.demand > 1e-12 ? d.demand * f_bw : 0.0;
    o.demand_gbps = d.demand;
    o.ipc = o.rate_per_proc / (mach_.frequency_ghz * 1e9);
    o.miss_ratio = d.miss;
    o.eff_ways = sc.eff_ways[i];
  }
}

}  // namespace sns::perfmodel
