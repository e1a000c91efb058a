// The allocation-free solver path (NodeContentionSolver::solveInto, which
// SolverCache recombines its memoized derivations through) must reproduce
// solve() bit-for-bit: identical expression shapes, identical iteration
// order, only the storage differs. Exact double comparisons throughout.
#include <gtest/gtest.h>

#include <vector>

#include "sns/app/library.hpp"
#include "sns/perfmodel/contention.hpp"
#include "sns/util/rng.hpp"

namespace sns::perfmodel {
namespace {

class FlatSolverTest : public ::testing::Test {
 protected:
  FlatSolverTest() : lib_(app::programLibrary()), solver_(mach_) {}

  void expectIdentical(std::span<const NodeShare> shares) {
    const std::vector<ShareOutcome> ref = solver_.solve(shares);
    std::vector<ShareOutcome> flat;
    solver_.solveInto(shares, scratch_, flat);
    ASSERT_EQ(ref.size(), flat.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].rate_per_proc, flat[i].rate_per_proc) << i;
      EXPECT_EQ(ref[i].raw_rate_per_proc, flat[i].raw_rate_per_proc) << i;
      EXPECT_EQ(ref[i].ipc, flat[i].ipc) << i;
      EXPECT_EQ(ref[i].bw_gbps, flat[i].bw_gbps) << i;
      EXPECT_EQ(ref[i].demand_gbps, flat[i].demand_gbps) << i;
      EXPECT_EQ(ref[i].miss_ratio, flat[i].miss_ratio) << i;
      EXPECT_EQ(ref[i].eff_ways, flat[i].eff_ways) << i;
    }
  }

  hw::MachineConfig mach_ = hw::MachineConfig::xeonE5_2680v4();
  std::vector<app::ProgramModel> lib_;
  NodeContentionSolver solver_;
  SolveScratch scratch_;
};

TEST_F(FlatSolverTest, SoloSharesMatchExactly) {
  for (const auto& p : lib_) {
    NodeShare s{&p, 16, 20.0, 0.0, 1.0};
    SCOPED_TRACE(p.name);
    expectIdentical(std::span<const NodeShare>(&s, 1));
  }
}

TEST_F(FlatSolverTest, UnpartitionedCoRunsMatchExactly) {
  // ways = 0 engages the shared-cache fixed point — the iterative path.
  for (std::size_t a = 0; a < lib_.size(); ++a) {
    for (std::size_t b = a; b < lib_.size(); ++b) {
      std::vector<NodeShare> shares = {{&lib_[a], 8, 0.0, 0.0, 1.0},
                                       {&lib_[b], 8, 0.0, 0.0, 1.0}};
      SCOPED_TRACE(lib_[a].name + "+" + lib_[b].name);
      expectIdentical(shares);
    }
  }
}

TEST_F(FlatSolverTest, RandomMixedCoRunsMatchExactly) {
  util::Rng rng(13);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = static_cast<int>(rng.uniformInt(1, 5));
    std::vector<NodeShare> shares;
    int cores_left = 28;
    // Keep the CAT budget honest: partitioned ways must leave headroom
    // for any free-sharing co-runner (a solver precondition, not a
    // solver-path difference).
    int ways_left = 15;
    for (int i = 0; i < n && cores_left > 0; ++i) {
      const auto& p = lib_[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(lib_.size()) - 1))];
      const int procs =
          static_cast<int>(rng.uniformInt(1, std::min(cores_left, 12)));
      cores_left -= procs;
      const bool partitioned = rng.uniformInt(0, 1) == 1 && ways_left >= 2;
      const double ways =
          partitioned ? static_cast<double>(rng.uniformInt(2, 4)) : 0.0;
      ways_left -= static_cast<int>(ways);
      const double remote = 0.1 * static_cast<double>(rng.uniformInt(0, 5));
      const double cap =
          rng.uniformInt(0, 2) == 0 ? static_cast<double>(rng.uniformInt(5, 40))
                                    : 0.0;
      shares.push_back({&p, procs, ways, remote, 1.0, cap});
    }
    SCOPED_TRACE("trial " + std::to_string(trial));
    expectIdentical(shares);
  }
}

TEST_F(FlatSolverTest, ScratchReuseAcrossShapesIsClean) {
  // A big solve followed by a small one must not read stale scratch.
  std::vector<NodeShare> big;
  for (int i = 0; i < 6; ++i) {
    big.push_back({&lib_[static_cast<std::size_t>(i) % lib_.size()], 4,
                   static_cast<double>(2 + i % 2), 0.0, 1.0});
  }
  expectIdentical(big);
  NodeShare one{&lib_.front(), 16, 20.0, 0.0, 1.0};
  expectIdentical(std::span<const NodeShare>(&one, 1));
  expectIdentical(big);
}

}  // namespace
}  // namespace sns::perfmodel
