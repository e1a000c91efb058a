// The solver cache's capacity safety valve wipes the whole cache on a miss
// that finds it full, counting every discarded entry as an eviction. The
// production bound (1 << 20 signatures) is never reached by real traces —
// which is why GoldenDigests.WorkCountersMatchTheBaseline pins
// solver_cache_evictions = 0 in every cell — so these tests shrink the
// capacity to actually drive the eviction path and pin down its accounting.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <span>
#include <tuple>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/perfmodel/contention.hpp"
#include "sns/perfmodel/solver_cache.hpp"
#include "sns/util/rng.hpp"

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
  const auto first = cache.solve(std::span<const NodeShare>(&a, 1));
  const std::vector<ShareOutcome> before(first.begin(), first.end());

  // Push two more distinct signatures through: the second wipes `a` out.
  for (int procs = 6; procs <= 7; ++procs) {
    NodeShare s = share(procs);
    cache.solve(std::span<const NodeShare>(&s, 1));
  }
  EXPECT_GT(cache.evictions(), 0u);

  // Re-solving after the wipe is a miss (not a stale hit) and reproduces
  // the original outcome exactly — solve() is pure in the signature.
  const std::uint64_t misses_before = cache.misses();
  const auto again = cache.solve(std::span<const NodeShare>(&a, 1));
  const std::vector<ShareOutcome> after(again.begin(), again.end());
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

// Differential test of the flat table: a seeded stream of lookups drawn
// from a small signature pool (so hits recur, back-to-back repeats
// included) must return exactly what a fresh solve returns, and count
// hits, misses, evictions and live entries exactly like a reference memo
// keyed on the signature's bit patterns. The pool holds +0.0 and -0.0
// ways/cap values: distinct bit patterns are distinct keys.
TEST_F(SolverCacheTest, FlatTableMatchesFreshSolves) {
  using Bits = std::tuple<const app::ProgramModel*, int, std::uint64_t,
                          std::uint64_t, std::uint64_t, std::uint64_t>;
  const auto bitsOf = [](const std::vector<NodeShare>& shares) {
    std::vector<Bits> sig;
    for (const NodeShare& s : shares) {
      sig.emplace_back(s.prog, s.procs, std::bit_cast<std::uint64_t>(s.ways),
                       std::bit_cast<std::uint64_t>(s.remote_frac),
                       std::bit_cast<std::uint64_t>(s.mem_intensity),
                       std::bit_cast<std::uint64_t>(s.bw_cap_gbps));
    }
    return sig;
  };
  const auto sameBits = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };

  // Each drawn signature enters the pool with its sign twins: the same
  // shares with one zero way count or one zero cap negated, which solve
  // identically but are distinct keys.
  util::Rng pool_rng(2024);
  std::vector<std::vector<NodeShare>> pool;
  for (int i = 0; i < 60; ++i) {
    const int n = static_cast<int>(pool_rng.uniformInt(1, 6));
    std::vector<NodeShare> shares;
    int cores_left = 28;
    int ways_left = 15;  // leave unpartitioned ways for free-sharing jobs
    for (int j = 0; j < n; ++j) {
      const auto& p = lib_[static_cast<std::size_t>(pool_rng.uniformInt(
          0, static_cast<std::int64_t>(lib_.size()) - 1))];
      const int procs = static_cast<int>(
          pool_rng.uniformInt(1, std::max(1, std::min(cores_left - (n - j - 1), 8))));
      cores_left -= procs;
      double ways = pool_rng.uniformInt(0, 1) == 0 ? 0.0 : -0.0;
      if (pool_rng.uniformInt(0, 2) == 0 && ways_left >= 3) {
        ways = static_cast<double>(pool_rng.uniformInt(2, 3));
        ways_left -= static_cast<int>(ways);
      }
      const double caps[] = {0.0, -0.0, 12.5};
      const double cap = caps[pool_rng.uniformInt(0, 2)];
      const double remote = 0.25 * static_cast<double>(pool_rng.uniformInt(0, 2));
      shares.push_back({&p, procs, ways, remote, 1.0, cap});
    }
    pool.push_back(shares);
    const auto j = static_cast<std::size_t>(pool_rng.uniformInt(0, n - 1));
    if (shares[j].ways == 0.0) {
      pool.push_back(shares);
      pool.back()[j].ways = -shares[j].ways;
    }
    if (shares[j].bw_cap_gbps == 0.0) {
      pool.push_back(shares);
      pool.back()[j].bw_cap_gbps = -shares[j].bw_cap_gbps;
    }
  }

  for (const std::size_t capacity : {std::size_t{1}, std::size_t{7},
                                     std::size_t{1} << 20}) {
    SCOPED_TRACE("capacity " + std::to_string(capacity));
    SolverCache cache(solver_);
    cache.setCapacity(capacity);
    std::map<std::vector<Bits>, int> model;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    util::Rng rng(77 + capacity);
    std::size_t pick = 0;
    for (int lookup = 0; lookup < 20000; ++lookup) {
      // One lookup in four repeats the previous signature (the fast path).
      if (rng.uniformInt(0, 3) != 0) {
        pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
      }
      const std::vector<NodeShare>& shares = pool[pick];
      const std::vector<Bits> sig = bitsOf(shares);
      if (model.contains(sig)) {
        ++hits;
      } else {
        ++misses;
        if (model.size() >= capacity) {
          evictions += model.size();
          model.clear();
        }
        model.emplace(sig, 0);
      }

      const std::span<const ShareOutcome> got = cache.solve(shares);
      const std::vector<ShareOutcome> want = solver_.solve(shares);
      ASSERT_EQ(got.size(), want.size()) << "lookup " << lookup;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(sameBits(got[i].rate_per_proc, want[i].rate_per_proc) &&
                    sameBits(got[i].raw_rate_per_proc, want[i].raw_rate_per_proc) &&
                    sameBits(got[i].bw_gbps, want[i].bw_gbps) &&
                    sameBits(got[i].demand_gbps, want[i].demand_gbps) &&
                    sameBits(got[i].ipc, want[i].ipc) &&
                    sameBits(got[i].miss_ratio, want[i].miss_ratio) &&
                    sameBits(got[i].eff_ways, want[i].eff_ways))
            << "lookup " << lookup << " share " << i;
      }
      ASSERT_EQ(cache.hits(), hits) << "lookup " << lookup;
      ASSERT_EQ(cache.misses(), misses) << "lookup " << lookup;
      ASSERT_EQ(cache.evictions(), evictions) << "lookup " << lookup;
      ASSERT_EQ(cache.size(), model.size()) << "lookup " << lookup;
    }
    EXPECT_TRUE(cache.auditInvariants().empty());
    EXPECT_GT(hits, 0u);
    if (capacity == 7) {
      EXPECT_GT(evictions, 0u);
    }
  }
}

}  // namespace
}  // namespace sns::perfmodel
