// Property-based fuzzing of the whole scheduling pipeline: random job
// sequences under every policy and feature combination must produce
// schedules satisfying global invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/audit/audit.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/sim/metrics.hpp"

namespace sns::sim {
namespace {

struct Fixture {
  Fixture() : lib(app::programLibrary()) {
    for (auto& p : lib) est.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.02;
    profile::Profiler prof(est, cfg, 99);
    for (const auto& p : lib) {
      db.put(prof.profileProgram(p, 16));
      if (!p.pow2_procs && p.multi_node) db.put(prof.profileProgram(p, 28));
    }
  }
  perfmodel::Estimator est;
  std::vector<app::ProgramModel> lib;
  profile::ProfileDatabase db;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

void checkInvariants(const SimResult& res, int nodes,
                     const std::vector<app::JobSpec>& seq) {
  ASSERT_EQ(res.jobs.size(), seq.size());
  for (const auto& j : res.jobs) {
    EXPECT_TRUE(j.completed());
    EXPECT_GE(j.start, j.submit - 1e-9);
    EXPECT_GT(j.finish, j.start);
    EXPECT_GE(j.placement.nodeCount(), 1);
    EXPECT_LE(j.placement.nodeCount(), nodes);
    EXPECT_GE(j.placement.procs_per_node * j.placement.nodeCount(), j.spec.procs);
  }
  EXPECT_LE(res.busy_node_seconds, nodes * res.makespan + 1e-6);

  // Resource conservation at every job-start instant: cores and ways on
  // any node never exceed the hardware.
  for (const auto& probe : res.jobs) {
    const double t = probe.start + 1e-9;
    std::map<int, int> cores, ways;
    for (const auto& j : res.jobs) {
      if (j.start <= t && t < j.finish) {
        for (int nd : j.placement.nodes) {
          cores[nd] += j.placement.procs_per_node;
          ways[nd] += j.placement.ways;
        }
      }
    }
    for (const auto& [nd, c] : cores) EXPECT_LE(c, 28) << "node " << nd;
    for (const auto& [nd, w] : ways) EXPECT_LE(w, 20) << "node " << nd;
  }
}

class PipelineFuzz
    : public ::testing::TestWithParam<std::tuple<sched::PolicyKind, std::uint64_t>> {
};

TEST_P(PipelineFuzz, RandomSequencesKeepInvariants) {
  auto& f = fixture();
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed);
  const auto seq = app::randomSequence(rng, f.lib, 18, 0.9);

  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = policy;
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  const auto res = sim.run(seq);
  checkInvariants(res, 8, seq);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyBySeed, PipelineFuzz,
    ::testing::Combine(::testing::Values(sched::PolicyKind::kCE,
                                         sched::PolicyKind::kCS,
                                         sched::PolicyKind::kSNS),
                       ::testing::Values(101ULL, 202ULL, 303ULL, 404ULL)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Seeded draws over the feature space: cluster size, per-job alpha, the
// node-score weight beta, packing, way donation, MBA caps, network
// management and online profiling (whose mid-run profile merges change the
// database generation and so rebuild the policy's placement plans). Every
// draw runs under a fail-fast auditor and must complete every job, and its
// busy-node integral must be the occupancy its schedule implies.
struct FeatureDraw {
  explicit FeatureDraw(int param) {
    auto& f = fixture();
    util::Rng rng(5000ULL + static_cast<std::uint64_t>(param));
    const auto pick = [&rng](const auto& options) {
      return options[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(std::size(options)) - 1))];
    };
    seq = app::randomSequence(rng, f.lib, 15, 0.9);
    const double alphas[] = {0.6, 0.75, 0.9, 1.0};
    for (auto& spec : seq) spec.alpha = pick(alphas);

    const int node_counts[] = {8, 16, 64};
    cfg.nodes = pick(node_counts);
    cfg.policy = sched::PolicyKind::kSNS;
    const double betas[] = {0.5, 1.0, 2.0, 4.0};
    cfg.sns.beta = pick(betas);
    cfg.sns.packing = rng.uniformInt(0, 1) == 0
                          ? sched::SnsPolicy::Packing::kIdlestScore
                          : sched::SnsPolicy::Packing::kDotProduct;
    cfg.donate_unused_ways = rng.uniformInt(0, 1) == 1;
    cfg.enforce_bandwidth_caps = rng.uniformInt(0, 1) == 1;
    cfg.sns.manage_network = rng.uniformInt(0, 1) == 1;
    cfg.online_profiling = rng.uniformInt(0, 1) == 1;
    // Online profiling starts from an empty or a half-known database and
    // learns the rest.
    if (!cfg.online_profiling) {
      db = f.db;
    } else if (rng.uniformInt(0, 1) == 1) {
      for (std::size_t i = 0; i < f.lib.size(); i += 2) {
        for (int procs : {16, 28}) {
          if (const auto* prof = f.db.find(f.lib[i].name, procs)) db.put(*prof);
        }
      }
    }
    label = "nodes=" + std::to_string(cfg.nodes) +
            " beta=" + std::to_string(cfg.sns.beta) + " dot_product=" +
            std::to_string(cfg.sns.packing == sched::SnsPolicy::Packing::kDotProduct) +
            " donate=" + std::to_string(cfg.donate_unused_ways) +
            " mba=" + std::to_string(cfg.enforce_bandwidth_caps) +
            " network=" + std::to_string(cfg.sns.manage_network) +
            " online=" + std::to_string(cfg.online_profiling) +
            " known=" + std::to_string(db.size());
  }

  SimResult run() const {
    auto& f = fixture();
    return ClusterSimulator(f.est, f.lib, db, cfg).run(seq);
  }

  std::vector<app::JobSpec> seq;
  SimConfig cfg;
  profile::ProfileDatabase db;
  std::string label;
};

class FeatureFuzz : public ::testing::TestWithParam<int> {};

TEST_P(FeatureFuzz, FeatureCombinationsKeepInvariants) {
  FeatureDraw draw(GetParam());
  audit::AuditorConfig acfg;
  acfg.fail_fast = true;
  audit::Auditor auditor(acfg);
  draw.cfg.auditor = &auditor;
  SCOPED_TRACE(draw.label);
  const auto res = draw.run();
  EXPECT_TRUE(auditor.ok()) << auditor.report();
  checkInvariants(res, draw.cfg.nodes, draw.seq);
}

// Conservation of busy time: a node is busy exactly while some job's
// placement holds it, so the simulator's busy-node integral must equal,
// node by node, the length of the union of [start, finish) over the jobs
// placed there.
TEST_P(FeatureFuzz, BusyIntegralIsTheUnionOfOccupancyIntervals) {
  const FeatureDraw draw(GetParam());
  SCOPED_TRACE(draw.label);
  const auto res = draw.run();
  std::map<int, std::vector<std::pair<double, double>>> held;
  for (const auto& j : res.jobs) {
    for (int nd : j.placement.nodes) held[nd].emplace_back(j.start, j.finish);
  }
  double busy = 0.0;
  for (auto& [nd, intervals] : held) {
    std::sort(intervals.begin(), intervals.end());
    double lo = intervals.front().first;
    double hi = intervals.front().second;
    for (const auto& [start, finish] : intervals) {
      if (start > hi) {
        busy += hi - lo;
        lo = start;
      }
      hi = std::max(hi, finish);
    }
    busy += hi - lo;
  }
  ASSERT_GT(busy, 0.0);
  EXPECT_NEAR(res.busy_node_seconds, busy, 1e-9 * busy);
}

INSTANTIATE_TEST_SUITE_P(Combos, FeatureFuzz, ::testing::Range(0, 48));

class ClusterSizeSweep : public ::testing::TestWithParam<int> {};

TEST_P(ClusterSizeSweep, SmallAndLargeClustersWork) {
  auto& f = fixture();
  const int nodes = GetParam();
  util::Rng rng(777);
  const auto seq = app::randomSequence(rng, f.lib, 10, 0.9);
  SimConfig cfg;
  cfg.nodes = nodes;
  cfg.policy = sched::PolicyKind::kSNS;
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  const auto res = sim.run(seq);
  checkInvariants(res, nodes, seq);
}

INSTANTIATE_TEST_SUITE_P(Nodes, ClusterSizeSweep,
                         ::testing::Values(1, 2, 3, 8, 16, 64));

}  // namespace
}  // namespace sns::sim
