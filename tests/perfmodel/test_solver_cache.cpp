// The solver cache's capacity safety valve wipes the whole cache on a miss
// that finds it full, counting every discarded entry as an eviction. The
// production bound (1 << 20 signatures) is never reached by real traces —
// which is why GoldenDigests.WorkCountersMatchTheBaseline pins
// solver_cache_evictions = 0 in every cell — so these tests shrink the
// capacity to actually drive the eviction path and pin down its accounting.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/perfmodel/contention.hpp"
#include "sns/perfmodel/solver_cache.hpp"

namespace sns::perfmodel {
namespace {

class SolverCacheTest : public ::testing::Test {
 protected:
  SolverCacheTest() : lib_(app::programLibrary()), solver_(mach_) {}

  /// One-share signature that varies with `procs` — distinct procs values
  /// are distinct cache keys.
  NodeShare share(int procs) const {
    return NodeShare{&lib_.front(), procs, 20.0, 0.0, 1.0};
  }

  hw::MachineConfig mach_ = hw::MachineConfig::xeonE5_2680v4();
  std::vector<app::ProgramModel> lib_;
  NodeContentionSolver solver_;
};

TEST_F(SolverCacheTest, CapacityWipeCountsEveryDiscardedEntry) {
  SolverCache cache(solver_);
  obs::Registry reg;
  cache.attachMetrics(reg);
  cache.setCapacity(4);
  ASSERT_EQ(cache.capacity(), 4u);

  // Fill to capacity: 4 distinct signatures, 4 misses, no evictions yet.
  for (int procs = 1; procs <= 4; ++procs) {
    NodeShare s = share(procs);
    cache.solve(std::span<const NodeShare>(&s, 1));
  }
  EXPECT_EQ(cache.size(), 4u);
  EXPECT_EQ(cache.misses(), 4u);
  EXPECT_EQ(cache.evictions(), 0u);

  // The fifth distinct signature finds the cache full: wipe-then-insert.
  NodeShare fifth = share(5);
  cache.solve(std::span<const NodeShare>(&fifth, 1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.misses(), 5u);
  EXPECT_EQ(cache.evictions(), 4u);
  EXPECT_EQ(reg.counter("solver.cache.evictions").value(), 4.0);
  EXPECT_EQ(reg.counter("solver.cache.misses").value(), 5.0);
  EXPECT_EQ(reg.counter("solver.cache.hits").value(), 0.0);
}

TEST_F(SolverCacheTest, EvictedEntriesReSolveBitIdentically) {
  SolverCache cache(solver_);
  cache.setCapacity(2);

  NodeShare a = share(3);
  const std::vector<ShareOutcome> before =
      cache.solve(std::span<const NodeShare>(&a, 1));

  // Push two more distinct signatures through: the second wipes `a` out.
  for (int procs = 6; procs <= 7; ++procs) {
    NodeShare s = share(procs);
    cache.solve(std::span<const NodeShare>(&s, 1));
  }
  EXPECT_GT(cache.evictions(), 0u);

  // Re-solving after the wipe is a miss (not a stale hit) and reproduces
  // the original outcome exactly — solve() is pure in the signature.
  const std::uint64_t misses_before = cache.misses();
  const std::vector<ShareOutcome> after =
      cache.solve(std::span<const NodeShare>(&a, 1));
  EXPECT_EQ(cache.misses(), misses_before + 1);
  ASSERT_EQ(before.size(), after.size());
  EXPECT_EQ(before[0].rate_per_proc, after[0].rate_per_proc);
  EXPECT_EQ(before[0].bw_gbps, after[0].bw_gbps);
  EXPECT_EQ(before[0].eff_ways, after[0].eff_ways);
}

TEST_F(SolverCacheTest, WipeInvalidatesLastSignatureFastPath) {
  SolverCache cache(solver_);
  cache.setCapacity(1);

  // Every distinct signature evicts the previous one; the back-to-back
  // fast path must not serve the wiped entry. auditInvariants() would
  // flag a dangling last-signature pointer.
  for (int procs = 1; procs <= 5; ++procs) {
    NodeShare s = share(procs);
    cache.solve(std::span<const NodeShare>(&s, 1));
    EXPECT_TRUE(cache.auditInvariants().empty()) << "procs=" << procs;
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 4u);
  EXPECT_EQ(cache.hits(), 0u);

  // Repeating the last signature is still a hit (the survivor is live).
  NodeShare s = share(5);
  cache.solve(std::span<const NodeShare>(&s, 1));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(SolverCacheTest, HitsNeverEvict) {
  SolverCache cache(solver_);
  cache.setCapacity(2);
  NodeShare a = share(2);
  NodeShare b = share(4);
  cache.solve(std::span<const NodeShare>(&a, 1));
  cache.solve(std::span<const NodeShare>(&b, 1));

  // At capacity, but hits on resident signatures never trigger the valve.
  for (int i = 0; i < 8; ++i) {
    cache.solve(std::span<const NodeShare>(&a, 1));
    cache.solve(std::span<const NodeShare>(&b, 1));
  }
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.hits(), 16u);
  EXPECT_EQ(cache.misses(), 2u);
}

TEST_F(SolverCacheTest, ZeroCapacityClampsToOne) {
  SolverCache cache(solver_);
  cache.setCapacity(0);
  EXPECT_EQ(cache.capacity(), 1u);
  NodeShare s = share(1);
  cache.solve(std::span<const NodeShare>(&s, 1));
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace sns::perfmodel
