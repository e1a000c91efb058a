// Property-based sweeps over the ground-truth performance model: physical
// invariants that must hold for every program at every placement and cache
// allocation, and for arbitrary co-run mixes.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "sns/app/library.hpp"
#include "sns/perfmodel/estimator.hpp"
#include "sns/util/rng.hpp"

namespace sns::perfmodel {
namespace {

struct Fixture {
  Fixture() : lib(app::programLibrary()) {
    for (auto& p : lib) est.calibrate(p);
  }
  Estimator est;
  std::vector<app::ProgramModel> lib;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

// ---------------------------------------------------------------------------
// Solo-run invariants, swept over (program x nodes). The program name is a
// std::string, not a const char*, so the "# GetParam()" comment in the test
// listing shows the name rather than a per-process pointer address, and the
// test names stay the same from one build to the next.
class SoloSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(SoloSweep, PhysicalInvariantsHold) {
  auto& f = fixture();
  const auto& prog = app::findProgram(f.lib, std::get<0>(GetParam()));
  const int nodes = std::get<1>(GetParam());
  if (!prog.multi_node && nodes > 1) GTEST_SKIP();

  const auto& mach = f.est.machine();
  double prev_perf = 0.0;
  for (int w = mach.min_ways_per_job; w <= mach.llc_ways; ++w) {
    const auto r = f.est.solo(prog, 16, nodes, w);
    // Times positive and finite; components sum to the total.
    EXPECT_GT(r.time, 0.0);
    EXPECT_NEAR(r.time, r.comp_time + r.comm_data_time + r.wait_time, 1e-9);
    // Bandwidth within hardware limits.
    EXPECT_GE(r.node_bw_gbps, 0.0);
    EXPECT_LE(r.node_bw_gbps, mach.peakBandwidth() + 1e-9);
    // IPC plausible for a real core.
    EXPECT_GT(r.ipc, 0.0);
    EXPECT_LT(r.ipc, 4.0);
    // Miss ratio is a ratio.
    EXPECT_GE(r.miss_ratio, 0.0);
    EXPECT_LE(r.miss_ratio, 1.0);
    // More cache never hurts performance.
    const double perf = 1.0 / r.time;
    EXPECT_GE(perf * (1.0 + 1e-9), prev_perf) << prog.name << " w=" << w;
    prev_perf = perf;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ProgramsByNodes, SoloSweep,
    ::testing::Combine(::testing::Values("WC", "TS", "NW", "GAN", "RNN", "MG",
                                         "CG", "EP", "LU", "BFS", "HC", "BW"),
                       ::testing::Values(1, 2, 4, 8)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" +
             std::to_string(std::get<1>(info.param)) + "N";
    });

// ---------------------------------------------------------------------------
// Co-run invariants on random node mixes.
class CoRunFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CoRunFuzz, RandomMixesRespectCapacities) {
  auto& f = fixture();
  util::Rng rng(GetParam());
  const auto& mach = f.est.machine();

  for (int trial = 0; trial < 40; ++trial) {
    // Build a random feasible mix of 1-4 jobs. Mixes containing
    // free-sharing (unpartitioned) jobs must keep some ways out of CAT
    // partitions — the solver rejects a free-sharer with an empty pool.
    std::vector<NodeShare> shares;
    int cores_left = mach.cores;
    const bool with_free_sharers = rng.chance(0.5);
    double ways_left = mach.llc_ways - (with_free_sharers ? 4.0 : 0.0);
    const int jobs = static_cast<int>(rng.uniformInt(1, 4));
    for (int j = 0; j < jobs && cores_left > 0; ++j) {
      NodeShare s;
      s.prog = &f.lib[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(f.lib.size()) - 1))];
      s.procs = static_cast<int>(rng.uniformInt(1, std::min(cores_left, 14)));
      if (!with_free_sharers || (rng.chance(0.6) && ways_left >= 2.0)) {
        if (ways_left < 2.0) break;
        s.ways = static_cast<double>(
            rng.uniformInt(2, static_cast<std::int64_t>(ways_left)));
        ways_left -= s.ways;
      } else {
        s.ways = 0.0;  // free-for-all
      }
      s.remote_frac = rng.uniform(0.0, 0.9);
      s.mem_intensity = rng.uniform(0.5, 1.5);
      cores_left -= s.procs;
      shares.push_back(s);
    }
    if (shares.empty()) continue;

    int total_procs = 0;
    for (const auto& s : shares) total_procs += s.procs;
    const auto out = f.est.solver().solve(shares);
    ASSERT_EQ(out.size(), shares.size());

    double total_bw = 0.0;
    double total_eff_ways = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_GT(out[i].rate_per_proc, 0.0);
      EXPECT_LE(out[i].rate_per_proc, out[i].raw_rate_per_proc * (1.0 + 1e-9));
      EXPECT_GE(out[i].bw_gbps, 0.0);
      EXPECT_GE(out[i].eff_ways, 0.0);
      EXPECT_LE(out[i].miss_ratio, 1.0);
      total_bw += out[i].bw_gbps;
      total_eff_ways += out[i].eff_ways;
    }
    // Aggregate bandwidth within what the cores could pull.
    EXPECT_LE(total_bw, mach.mem_bw.aggregate(total_procs) + 1e-6);
    // Cache never over-committed.
    EXPECT_LE(total_eff_ways, mach.llc_ways + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoRunFuzz,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL, 55ULL,
                                           66ULL, 77ULL, 88ULL));

// ---------------------------------------------------------------------------
// Adding a co-runner never speeds up an incumbent with a fixed partition.
class InterferenceSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(InterferenceSweep, CoRunnerNeverHelpsPartitionedIncumbent) {
  auto& f = fixture();
  const auto& victim = app::findProgram(f.lib, GetParam());
  for (const auto& intruder : f.lib) {
    NodeShare v{&victim, 8, 10.0, 0.0, 1.0, 0.0};
    const auto solo =
        f.est.solver().solve(std::span<const NodeShare>(&v, 1)).front();
    std::vector<NodeShare> mix = {v, {&intruder, 8, 10.0, 0.0, 1.0, 0.0}};
    const auto corun = f.est.solver().solve(mix);
    EXPECT_LE(corun[0].rate_per_proc, solo.rate_per_proc * (1.0 + 1e-9))
        << GetParam() << " vs " << intruder.name;
    // With CAT, the incumbent's miss ratio is untouched.
    EXPECT_DOUBLE_EQ(corun[0].miss_ratio, solo.miss_ratio);
  }
}

INSTANTIATE_TEST_SUITE_P(Victims, InterferenceSweep,
                         ::testing::Values("MG", "CG", "NW", "EP", "TS", "BW"));

// ---------------------------------------------------------------------------
// Calibration invariance: solo reference time is reproduced for any
// perturbation of the reference inputs.
class CalibrationSweep : public ::testing::TestWithParam<double> {};

TEST_P(CalibrationSweep, ReferenceTimeReproducedAfterRescaling) {
  Estimator est;
  auto prog = app::programLibrary()[5];  // MG
  prog.solo_time_ref *= GetParam();
  est.calibrate(prog);
  const auto r = est.solo(prog, prog.ref_procs, 1, est.machine().llc_ways);
  EXPECT_NEAR(r.time, prog.solo_time_ref, prog.solo_time_ref * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Scales, CalibrationSweep,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 10.0));

}  // namespace
}  // namespace sns::perfmodel
