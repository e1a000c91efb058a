// The solver cache memoizes per-share derivations and recombines them per
// node on every call; its outcomes must equal a fresh solve bit for bit, in
// any share order. Its capacity safety valve wipes the whole memo on a
// fresh derivation that finds it full, counting every discarded entry as an
// eviction. The production bound (1 << 20 derivations) is never reached by
// real traces — which is why GoldenDigests.WorkCountersMatchTheBaseline
// pins solver_cache_evictions = 0 in every cell — so these tests shrink
// the capacity to actually drive the eviction path and pin down its
// accounting.
#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <optional>
#include <set>
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

TEST_F(SolverCacheTest, CapacityOneWipesBeforeEachFreshDerivation) {
  SolverCache cache(solver_);
  cache.setCapacity(1);

  // Every distinct share evicts the previous one, and the memo stays
  // consistent through each wipe.
  for (int procs = 1; procs <= 5; ++procs) {
    NodeShare s = share(procs);
    cache.solve(std::span<const NodeShare>(&s, 1));
    EXPECT_TRUE(cache.auditInvariants().empty()) << "procs=" << procs;
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 4u);
  EXPECT_EQ(cache.hits(), 0u);

  // Repeating the last share is a hit (the survivor is live).
  NodeShare s = share(5);
  cache.solve(std::span<const NodeShare>(&s, 1));
  EXPECT_EQ(cache.hits(), 1u);

  // Two partitioned shares wipe each other within one call, so every call
  // misses; the outcomes still equal a fresh solve.
  const std::vector<NodeShare> pair = {{&lib_[0], 4, 8.0, 0.0, 1.0},
                                       {&lib_[1], 6, 8.0, 0.0, 1.0}};
  const std::vector<ShareOutcome> want = solver_.solve(pair);
  for (int rep = 0; rep < 3; ++rep) {
    const std::uint64_t misses = cache.misses();
    const auto got = cache.solve(pair);
    EXPECT_EQ(cache.misses(), misses + 1) << rep;
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].rate_per_proc, want[i].rate_per_proc) << rep;
      EXPECT_EQ(got[i].bw_gbps, want[i].bw_gbps) << rep;
    }
  }
  EXPECT_TRUE(cache.auditInvariants().empty());
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

using Bits = std::tuple<const app::ProgramModel*, int, std::uint64_t,
                        std::uint64_t, std::uint64_t, std::uint64_t>;

/// A share's key bits with the ways it is derived at.
Bits bitsOf(const NodeShare& s, double ways) {
  return {s.prog,
          s.procs,
          std::bit_cast<std::uint64_t>(ways),
          std::bit_cast<std::uint64_t>(s.remote_frac),
          std::bit_cast<std::uint64_t>(s.mem_intensity),
          std::bit_cast<std::uint64_t>(s.bw_cap_gbps)};
}

bool sameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool sameOutcome(const ShareOutcome& a, const ShareOutcome& b) {
  return sameBits(a.rate_per_proc, b.rate_per_proc) &&
         sameBits(a.raw_rate_per_proc, b.raw_rate_per_proc) &&
         sameBits(a.bw_gbps, b.bw_gbps) && sameBits(a.demand_gbps, b.demand_gbps) &&
         sameBits(a.ipc, b.ipc) && sameBits(a.miss_ratio, b.miss_ratio) &&
         sameBits(a.eff_ways, b.eff_ways);
}

/// Records the derivations a solve asks for, in order, deriving each fresh.
struct DerivationLog final : DerivationSource {
  explicit DerivationLog(const NodeContentionSolver& s) : solver(s) {}
  ShareDerivation derive(const NodeShare& share, double ways) override {
    keys.push_back(bitsOf(share, ways));
    return solver.derive(share, ways);
  }
  const NodeContentionSolver& solver;
  std::vector<Bits> keys;
};

enum class Mix { kPartitioned, kMixed, kFree };

/// A seeded co-run set of 1-6 shares that fits one node. Free-sharing
/// shares draw +0.0 or -0.0 ways, caps are +0.0, -0.0 or 12.5 GB/s.
std::vector<NodeShare> drawSet(util::Rng& rng, const std::vector<app::ProgramModel>& lib,
                               Mix mix) {
  const int n = static_cast<int>(rng.uniformInt(1, 6));
  std::vector<NodeShare> shares;
  int cores_left = 28;
  int ways_left = mix == Mix::kPartitioned ? 20 : 15;  // leave a free pool
  for (int j = 0; j < n; ++j) {
    const auto& p = lib[static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(lib.size()) - 1))];
    const int procs = static_cast<int>(
        rng.uniformInt(1, std::max(1, std::min(cores_left - (n - j - 1), 8))));
    cores_left -= procs;
    double ways = rng.uniformInt(0, 1) == 0 ? 0.0 : -0.0;
    const bool partition =
        mix == Mix::kPartitioned || (mix == Mix::kMixed && rng.uniformInt(0, 2) == 0);
    if (partition && ways_left >= 3) {
      ways = static_cast<double>(rng.uniformInt(1, 3));
      ways_left -= static_cast<int>(ways);
    }
    const double caps[] = {0.0, -0.0, 12.5};
    const double cap = caps[rng.uniformInt(0, 2)];
    const double remote = 0.25 * static_cast<double>(rng.uniformInt(0, 2));
    shares.push_back({&p, procs, ways, remote, 1.0, cap});
  }
  return shares;
}

/// A seeded permutation of 0..n-1 (Fisher-Yates on the project's Rng, so
/// the draw does not depend on the standard library's shuffle).
std::vector<std::size_t> drawPermutation(util::Rng& rng, std::size_t n) {
  std::vector<std::size_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    const auto j = static_cast<std::size_t>(
        rng.uniformInt(0, static_cast<std::int64_t>(i) - 1));
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

std::vector<NodeShare> permuted(const std::vector<NodeShare>& shares,
                                const std::vector<std::size_t>& perm) {
  std::vector<NodeShare> out;
  for (std::size_t i : perm) out.push_back(shares[i]);
  return out;
}

// Differential test of the memo: a seeded stream of solves drawn from a
// pool of all-partitioned, mixed and free-sharing sets, each with a
// permuted copy and its sign twins (one zero way count or one zero cap
// negated: the same model inputs, distinct key bits), must return exactly
// what NodeContentionSolver::solve() returns, and count hits, misses,
// evictions and stored derivations exactly like a reference memo keyed on
// each derivation's bits. The reference sees the derivations a solve asks
// for — every share at its partition, a free-sharing share at each
// fixed-point iterate that moved its ways — in order; a solve misses when
// any is new.
TEST_F(SolverCacheTest, FlatTableMatchesFreshSolves) {
  util::Rng pool_rng(2024);
  std::vector<std::vector<NodeShare>> pool;
  for (int i = 0; i < 90; ++i) {
    const Mix mix = i % 3 == 0 ? Mix::kPartitioned : i % 3 == 1 ? Mix::kMixed : Mix::kFree;
    const std::vector<NodeShare> shares = drawSet(pool_rng, lib_, mix);
    pool.push_back(shares);
    pool.push_back(permuted(shares, drawPermutation(pool_rng, shares.size())));
    const auto j = static_cast<std::size_t>(
        pool_rng.uniformInt(0, static_cast<std::int64_t>(shares.size()) - 1));
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
    std::map<Bits, int> model;
    std::uint64_t hits = 0, misses = 0, evictions = 0;
    SolveScratch scratch;
    std::vector<ShareOutcome> fresh;
    util::Rng rng(77 + capacity);
    std::size_t pick = 0;
    for (int lookup = 0; lookup < 20000; ++lookup) {
      // One solve in four repeats the previous set.
      if (rng.uniformInt(0, 3) != 0) {
        pick = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(pool.size()) - 1));
      }
      const std::vector<NodeShare>& shares = pool[pick];
      DerivationLog log(solver_);
      solver_.solveInto(shares, scratch, fresh, log);
      bool derived = false;
      for (const Bits& key : log.keys) {
        if (model.contains(key)) continue;
        derived = true;
        if (model.size() >= capacity) {
          evictions += model.size();
          model.clear();
        }
        model.emplace(key, 0);
      }
      ++(derived ? misses : hits);

      const std::span<const ShareOutcome> got = cache.solve(shares);
      const std::vector<ShareOutcome> want = solver_.solve(shares);
      ASSERT_EQ(got.size(), want.size()) << "lookup " << lookup;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(sameOutcome(got[i], want[i])) << "lookup " << lookup << " share " << i;
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

// Partitioned shares meet only through the node's bandwidth roofline, so
// a permuted set costs no fresh derivation and returns the original
// outcomes permuted: every per-share quantity bit for bit, and the
// bandwidth-scaled ones too whenever the capped demands sum to the same
// bits in both orders. The sum runs in share order (as in solve()), so
// on a saturated node a reordering may move its last bit; the cached
// outcome then still equals a fresh solve of the permuted set.
TEST_F(SolverCacheTest, PermutedPartitionedSetsAreEquivariantAndNeverMiss) {
  const auto cappedSum = [this](const std::vector<NodeShare>& shares) {
    double total = 0.0;
    for (const NodeShare& s : shares) total += solver_.derive(s, s.ways).capped;
    return total;
  };
  util::Rng rng(4242);
  SolverCache cache(solver_);
  int equal_sums = 0, moved_sums = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<NodeShare> shares = drawSet(rng, lib_, Mix::kPartitioned);
    const auto first = cache.solve(shares);
    const std::vector<ShareOutcome> base(first.begin(), first.end());
    const std::vector<ShareOutcome> want = solver_.solve(shares);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_TRUE(sameOutcome(base[i], want[i])) << "trial " << trial;
    }
    for (int rep = 0; rep < 3; ++rep) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " rep " + std::to_string(rep));
      const std::vector<std::size_t> perm = drawPermutation(rng, shares.size());
      const std::vector<NodeShare> moved = permuted(shares, perm);
      const std::uint64_t misses = cache.misses();
      const std::uint64_t hits = cache.hits();
      const auto got = cache.solve(moved);
      ASSERT_EQ(cache.misses(), misses);
      ASSERT_EQ(cache.hits(), hits + 1);
      const bool same_sum = sameBits(cappedSum(moved), cappedSum(shares));
      ++(same_sum ? equal_sums : moved_sums);
      const std::vector<ShareOutcome> fresh = solver_.solve(moved);
      for (std::size_t i = 0; i < perm.size(); ++i) {
        const ShareOutcome& was = base[perm[i]];
        ASSERT_TRUE(sameOutcome(got[i], fresh[i])) << "share " << i;
        ASSERT_TRUE(sameBits(got[i].raw_rate_per_proc, was.raw_rate_per_proc) &&
                    sameBits(got[i].demand_gbps, was.demand_gbps) &&
                    sameBits(got[i].miss_ratio, was.miss_ratio) &&
                    sameBits(got[i].eff_ways, was.eff_ways))
            << "share " << i;
        if (same_sum) {
          ASSERT_TRUE(sameOutcome(got[i], was)) << "share " << i;
        }
      }
    }
  }
  EXPECT_EQ(equal_sums + moved_sums, 900);
  EXPECT_GT(equal_sums, 0);
  EXPECT_GT(moved_sums, 0);
  EXPECT_TRUE(cache.auditInvariants().empty());
}

// A free-sharing share alone on its node converges to ways that depend on
// nothing else: solveInto() asks the source for that fixed point first,
// skips the iteration when it is known, and hands the source a fixed point
// it iterated to. Sets of two or more shares never ask.
TEST_F(SolverCacheTest, LoneFreeShareSkipsTheFixedPointOnceItsEndIsKnown) {
  struct Remembering final : DerivationSource {
    explicit Remembering(const NodeContentionSolver& s) : solver(s) {}
    ShareDerivation derive(const NodeShare& share, double ways) override {
      ++derived;
      return solver.derive(share, ways);
    }
    std::optional<LoneFixedPoint> findLone(const NodeShare& /*share*/) override {
      ++asked;
      return known;
    }
    void storeLone(const NodeShare& /*share*/, const LoneFixedPoint& fp) override {
      ++stored;
      known = fp;
    }
    const NodeContentionSolver& solver;
    std::optional<LoneFixedPoint> known;
    int derived = 0;
    int asked = 0;
    int stored = 0;
  } source(solver_);
  const NodeShare lone{&lib_.front(), 28, 0.0, 0.0, 1.0};
  const std::span<const NodeShare> one(&lone, 1);
  const std::vector<ShareOutcome> want = solver_.solve(one);
  SolveScratch scratch;
  std::vector<ShareOutcome> out;

  solver_.solveInto(one, scratch, out, source);
  ASSERT_TRUE(sameOutcome(out[0], want[0]));
  EXPECT_GT(source.derived, 0);
  EXPECT_EQ(source.stored, 1);
  ASSERT_TRUE(source.known.has_value());
  EXPECT_TRUE(sameBits(source.known->ways, want[0].eff_ways));

  source.derived = 0;
  solver_.solveInto(one, scratch, out, source);
  ASSERT_TRUE(sameOutcome(out[0], want[0]));
  EXPECT_EQ(source.derived, 0);
  EXPECT_EQ(source.asked, 2);
  EXPECT_EQ(source.stored, 1);

  const std::vector<NodeShare> pair = {{&lib_[0], 14, 0.0, 0.0, 1.0},
                                       {&lib_[1], 14, 0.0, 0.0, 1.0}};
  solver_.solveInto(pair, scratch, out, source);
  EXPECT_EQ(source.asked, 2);
  EXPECT_EQ(source.stored, 1);

  // The cache keeps the fixed point beside the derivations: the repeat is
  // a hit, size() counts derivations only, and the audit re-solves it.
  SolverCache cache(solver_);
  (void)cache.solve(one);
  const std::size_t size = cache.size();
  const std::uint64_t hits = cache.hits();
  ASSERT_TRUE(sameOutcome(cache.solve(one)[0], want[0]));
  EXPECT_EQ(cache.hits(), hits + 1);
  EXPECT_EQ(cache.size(), size);
  EXPECT_TRUE(cache.auditInvariants().empty());
}

// A lone share whose fixed point takes two distinct iterates: at capacity
// 1 the second derivation wipes the first, so the solve stores no fixed
// point, and a repeat misses as its iterates do.
TEST_F(SolverCacheTest, ASolveThatWipesTheMemoStoresNoFixedPoint) {
  const NodeShare lone{&lib_.front(), 24, 0.0, 0.0, 1.0};
  const std::span<const NodeShare> one(&lone, 1);
  DerivationLog log(solver_);
  SolveScratch scratch;
  std::vector<ShareOutcome> out;
  solver_.solveInto(one, scratch, out, log);
  ASSERT_EQ(std::set<Bits>(log.keys.begin(), log.keys.end()).size(), 2u)
      << "the share no longer takes two iterates; pick another";

  SolverCache cache(solver_);
  cache.setCapacity(1);
  (void)cache.solve(one);
  EXPECT_GE(cache.evictions(), 1u);
  ASSERT_TRUE(sameOutcome(cache.solve(one)[0], solver_.solve(one)[0]));
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_TRUE(cache.auditInvariants().empty());
}

}  // namespace
}  // namespace sns::perfmodel
