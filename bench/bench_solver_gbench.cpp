// Google-benchmark microbenchmarks of the solve layer and the SNS decision
// path above it. SolverCache memoizes per-share derivations and recombines
// them on every call, so: a hit (warm 1-4 share sets, a probe per
// derivation plus the combine), a miss (one share never seen), a
// replay-like stream where about 41% of lookups hit (the Fig 20 4K SNS
// replay's ratio before the memo became per-share), a warm 5-share
// partitioned solve (the common SNS node), a cold derivation (a lone
// partitioned share never seen: probe, derive, insert, combine), a
// CE-style exclusive singleton (one free-sharing share, whose fixed-point
// iterates repeat one memoized derivation), NodeContentionSolver::solveInto alone
// (every share derived fresh), and an SnsPolicy::tryPlace that is rejected
// on a loaded 4,096-node ledger (plan lookup plus one selection query per
// profiled scale).
//
//   ./build/bench/bench_solver_gbench --benchmark_min_time=0.5
//
// Exits 1 when an answer is wrong: a cached outcome that differs from a
// fresh solve, hit/miss counts that disagree with the lookup stream, or a
// rejection that places.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/app/library.hpp"
#include "sns/perfmodel/contention.hpp"
#include "sns/perfmodel/estimator.hpp"
#include "sns/perfmodel/solver_cache.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sched/policies.hpp"
#include "sns/util/rng.hpp"

namespace {

using sns::perfmodel::NodeShare;
using sns::perfmodel::ShareOutcome;
using sns::perfmodel::SolverCache;

/// Set by any benchmark that answered wrongly; the exit status.
bool g_failed = false;

void fail(benchmark::State& state, const char* why) {
  g_failed = true;
  state.SkipWithError(why);
}

struct Env {
  Env() : lib(sns::app::programLibrary()) {
    for (auto& p : lib) est.calibrate(p);
  }
  sns::perfmodel::Estimator est;
  std::vector<sns::app::ProgramModel> lib;
};

Env& env() {
  static Env e;
  return e;
}

/// `count` distinct co-run signatures of 1-4 shares that fit one node.
std::vector<std::vector<NodeShare>> signatures(int count) {
  const Env& e = env();
  sns::util::Rng rng(0x501fe);
  std::vector<std::vector<NodeShare>> out;
  for (int s = 0; s < count; ++s) {
    const int n = static_cast<int>(rng.uniformInt(1, 4));
    std::vector<NodeShare> shares;
    for (int i = 0; i < n; ++i) {
      const auto& p = e.lib[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(e.lib.size()) - 1))];
      const double ways = rng.uniformInt(0, 1) == 0 ? 0.0 : 3.0;
      // The remote fraction's low bits make every signature distinct.
      shares.push_back({&p, static_cast<int>(rng.uniformInt(1, 7)), ways,
                        0.1 + 1e-9 * static_cast<double>(s), 1.0, 0.0});
    }
    out.push_back(std::move(shares));
  }
  return out;
}

bool sameOutcomes(std::span<const ShareOutcome> got,
                  const std::vector<ShareOutcome>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i].rate_per_proc) !=
            std::bit_cast<std::uint64_t>(want[i].rate_per_proc) ||
        std::bit_cast<std::uint64_t>(got[i].bw_gbps) !=
            std::bit_cast<std::uint64_t>(want[i].bw_gbps)) {
      return false;
    }
  }
  return true;
}

void BM_CacheHit(benchmark::State& state) {
  const auto& solver = env().est.solver();
  const auto pool = signatures(64);
  SolverCache cache(solver);
  for (const auto& sig : pool) (void)cache.solve(sig);
  for (const auto& sig : pool) {
    if (!sameOutcomes(cache.solve(sig), solver.solve(sig))) {
      fail(state, "cached outcome differs from a fresh solve");
    }
  }
  const std::uint64_t hits0 = cache.hits();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.solve(pool[i]).data());
    i = (i + 1) % pool.size();  // never the same signature twice in a row
  }
  if (cache.hits() - hits0 != static_cast<std::uint64_t>(state.iterations()) ||
      cache.misses() != pool.size()) {
    fail(state, "a warm signature missed");
  }
}
BENCHMARK(BM_CacheHit)->Unit(benchmark::kNanosecond);

void BM_CacheMiss(benchmark::State& state) {
  // The signatures BM_SolveInto solves, with the first share's remote
  // fraction stepped on every lap, so every lookup derives that share
  // fresh (the other shares are warm after the first lap).
  auto pool = signatures(64);
  SolverCache cache(env().est.solver());
  std::uint64_t step = 0;
  for (auto _ : state) {
    const std::size_t i = step % pool.size();
    const auto lap = static_cast<double>(step / pool.size());
    pool[i][0].remote_frac = 0.5 + 1e-6 * static_cast<double>(i) + 1e-13 * lap;
    ++step;
    benchmark::DoNotOptimize(cache.solve(pool[i]).data());
  }
  if (cache.hits() != 0 ||
      cache.misses() != static_cast<std::uint64_t>(state.iterations())) {
    fail(state, "a fresh signature hit");
  }
}
BENCHMARK(BM_CacheMiss)->Unit(benchmark::kNanosecond);

void BM_CacheReplayMix(benchmark::State& state) {
  // 41 of every 100 lookups revisit one of 256 warm signatures; the rest
  // are never-seen signatures taken from a pregenerated stream.
  constexpr std::size_t kPool = 256;
  const auto all = signatures(static_cast<int>(kPool) + 4096);
  const std::span<const std::vector<NodeShare>> pool(all.data(), kPool);
  const std::span<const std::vector<NodeShare>> stream(all.data() + kPool,
                                                       all.size() - kPool);
  sns::util::Rng rng(41);
  std::vector<std::uint8_t> is_hit(1000);
  for (auto& h : is_hit) h = rng.uniformInt(0, 99) < 41 ? 1 : 0;

  SolverCache cache(env().est.solver());
  std::uint64_t hits = 0, misses = 0;  // of the timed lookups since warm-up
  std::uint64_t total_hits = 0, total = 0;
  const auto rewarm = [&] {
    if (cache.hits() != hits || cache.misses() != kPool + misses) {
      fail(state, "hit/miss counts disagree with the lookup stream");
    }
    total_hits += hits;
    total += hits + misses;
    hits = misses = 0;
    cache.clear();
    for (const auto& sig : pool) (void)cache.solve(sig);
  };
  for (const auto& sig : pool) (void)cache.solve(sig);
  std::size_t step = 0, next_fresh = 0;
  for (auto _ : state) {
    const bool hit = is_hit[step % is_hit.size()] != 0;
    const auto& sig = hit ? pool[step % kPool] : stream[next_fresh];
    benchmark::DoNotOptimize(cache.solve(sig).data());
    ++(hit ? hits : misses);
    ++step;
    if (!hit && ++next_fresh == stream.size()) {
      // Stream used up: wipe and re-warm, untimed.
      state.PauseTiming();
      rewarm();
      next_fresh = 0;
      state.ResumeTiming();
    }
  }
  rewarm();
  state.counters["hit_ratio"] =
      static_cast<double>(total_hits) / static_cast<double>(total > 0 ? total : 1);
}
BENCHMARK(BM_CacheReplayMix)->Unit(benchmark::kNanosecond);

/// The timed loop's hit and miss counts must be exactly `want_hits` and
/// `want_misses`.
void checkCounts(benchmark::State& state, const SolverCache& cache,
                 std::uint64_t hits0, std::uint64_t misses0,
                 std::uint64_t want_hits, std::uint64_t want_misses) {
  if (cache.hits() - hits0 != want_hits || cache.misses() - misses0 != want_misses) {
    fail(state, "hit/miss counts disagree with the lookup stream");
  }
}

void BM_WarmPartitionedSolve(benchmark::State& state) {
  // Five CAT-partitioned co-runners, as on a shared SNS node; warm, so each
  // call is five probes and the combine. The order rotates every call:
  // a permuted set reuses the same five derivations.
  const Env& e = env();
  std::vector<NodeShare> shares;
  for (int i = 0; i < 5; ++i) {
    shares.push_back({&e.lib[static_cast<std::size_t>(i) % e.lib.size()], 2 + i,
                      static_cast<double>(2 + i % 2), 0.1, 1.0, 0.0});
  }
  SolverCache cache(e.est.solver());
  (void)cache.solve(shares);
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  for (auto _ : state) {
    std::rotate(shares.begin(), shares.begin() + 1, shares.end());
    benchmark::DoNotOptimize(cache.solve(shares).data());
  }
  checkCounts(state, cache, hits0, misses0,
              static_cast<std::uint64_t>(state.iterations()), 0);
  if (!sameOutcomes(cache.solve(shares), e.est.solver().solve(shares))) {
    fail(state, "cached outcome differs from a fresh solve");
  }
}
BENCHMARK(BM_WarmPartitionedSolve)->Unit(benchmark::kNanosecond);

void BM_ColdDerivation(benchmark::State& state) {
  // A lone partitioned share whose remote fraction steps every call, so
  // each call derives once and inserts. The memo is bounded so a long run
  // wipes it now and then instead of growing without limit.
  const Env& e = env();
  NodeShare share{&e.lib.front(), 8, 4.0, 0.0, 1.0, 0.0};
  SolverCache cache(e.est.solver());
  cache.setCapacity(std::size_t{1} << 16);
  std::uint64_t step = 0;
  for (auto _ : state) {
    share.remote_frac = 1e-9 * static_cast<double>(++step);
    benchmark::DoNotOptimize(cache.solve(std::span<const NodeShare>(&share, 1)).data());
  }
  checkCounts(state, cache, 0, 0, 0, static_cast<std::uint64_t>(state.iterations()));
  const std::span<const NodeShare> one(&share, 1);
  if (!sameOutcomes(cache.solve(one), e.est.solver().solve(one))) {
    fail(state, "cached outcome differs from a fresh solve");
  }
}
BENCHMARK(BM_ColdDerivation)->Unit(benchmark::kNanosecond);

void BM_ExclusiveSingleton(benchmark::State& state) {
  // CE's whole-node placement: one unpartitioned share on all 28 cores.
  // Warm, its fixed-point iterates repeat one memoized derivation.
  const Env& e = env();
  const NodeShare share{&e.lib.front(), e.est.machine().cores, 0.0, 0.0, 1.0, 0.0};
  const std::span<const NodeShare> one(&share, 1);
  SolverCache cache(e.est.solver());
  (void)cache.solve(one);
  const std::uint64_t hits0 = cache.hits(), misses0 = cache.misses();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.solve(one).data());
  }
  checkCounts(state, cache, hits0, misses0,
              static_cast<std::uint64_t>(state.iterations()), 0);
  if (!sameOutcomes(cache.solve(one), e.est.solver().solve(one))) {
    fail(state, "cached outcome differs from a fresh solve");
  }
}
BENCHMARK(BM_ExclusiveSingleton)->Unit(benchmark::kNanosecond);

void BM_SolveInto(benchmark::State& state) {
  const auto& solver = env().est.solver();
  const auto pool = signatures(64);
  sns::perfmodel::SolveScratch scratch;
  std::vector<ShareOutcome> out;
  for (const auto& sig : pool) {
    solver.solveInto(sig, scratch, out);
    if (!sameOutcomes(out, solver.solve(sig))) {
      fail(state, "flat solve differs from solve()");
    }
  }
  std::size_t i = 0;
  for (auto _ : state) {
    solver.solveInto(pool[i], scratch, out);
    benchmark::DoNotOptimize(out.data());
    i = (i + 1) % pool.size();
  }
}
BENCHMARK(BM_SolveInto)->Unit(benchmark::kNanosecond);

void BM_SnsRejection(benchmark::State& state) {
  const Env& e = env();
  const auto& mach = e.est.machine();
  // A 4,096-node ledger loaded with spans of small co-located jobs, then
  // topped up so no node keeps more than 3 idle cores.
  sns::actuator::ResourceLedger ledger(4096, mach);
  sns::util::Rng rng(0x4e7);
  sns::actuator::JobId next = 1;
  while (ledger.meanCoreOccupancy() < 0.7) {
    sns::actuator::NodeAllocation a;
    a.cores = static_cast<int>(rng.uniformInt(1, 7));
    a.ways = rng.uniformInt(0, 1) == 0 ? 0 : 2;
    a.bw_gbps = 0.1 * static_cast<double>(rng.uniformInt(0, 30));
    const int lo = static_cast<int>(rng.uniformInt(0, 4095));
    std::vector<int> span;
    for (int i = 0; i < 256; ++i) {
      const int nd = (lo + i) % 4096;
      if (ledger.node(nd).fits(a)) span.push_back(nd);
    }
    if (!span.empty()) ledger.allocate(span, next++, a);
  }
  for (int nd = 0; nd < 4096; ++nd) {
    const int idle = ledger.node(nd).idleCores();
    if (idle > 3) ledger.allocate(nd, next++, {idle - 3, 0, 0.0, false});
  }

  // MG at 256 processes needs at least 4 cores per node at every profiled
  // scale (26, 13, 7 and 4 on 10 to 80 nodes), so every scale is rejected.
  sns::profile::ProfilerConfig pcfg;
  pcfg.pmu_noise = 0.0;
  sns::profile::Profiler profiler(e.est, pcfg);
  sns::profile::ProfileDatabase db;
  db.put(profiler.profileProgram(sns::app::findProgram(e.lib, "MG"), 256));
  sns::sched::Job job;
  job.id = 1;
  job.spec.program = "MG";
  job.spec.procs = 256;
  job.program = &sns::app::findProgram(e.lib, "MG");
  sns::sched::SnsPolicy policy(e.est);
  for (auto _ : state) {
    const auto p = policy.tryPlace(job, ledger, db);
    if (p.has_value()) fail(state, "a rejected placement placed");
    benchmark::DoNotOptimize(&p);
  }
}
BENCHMARK(BM_SnsRejection)->Unit(benchmark::kNanosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return g_failed ? 1 : 0;
}
