// Google-benchmark microbenchmarks of actuator::ResourceLedger, the
// engine layer behind every placement: ranked selection that succeeds,
// ranked selection that one bucket holds whole within its scan cap
// (ranked in one scan of the bucket), ranked selection that no single
// bucket holds but the buckets hold together (every fitting node of every
// bucket competes), ranked selection that passes the
// bucket-population bound and is then proven empty, ranked selection that
// the population bound rejects (the shape of most re-asked queries in a
// congested replay), and two
// whole-placement allocate/release pairs: one over the first fitting ids
// in order (runs of consecutive ids, the replay's shape, which the ledger
// commits a segment at a time) and one over every third id (no runs, the
// worst case). Each runs on a 4,096- and a
// 32,768-node ledger loaded with a congested mix of spread jobs
// (fractional bandwidths, CAT partitions, interleaved departures), so
// co-run groups split into several exact node-state classes as they do in
// the Fig 20 replay.
//
//   ./build/bench/bench_ledger_gbench --benchmark_min_time=0.5
//
// Exits 1 when a selection answers wrongly (an empty success, a failure
// that succeeds) or a query misses the shape its benchmark times.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/util/rng.hpp"

namespace {

using sns::actuator::NodeAllocation;
using sns::actuator::ResourceLedger;

/// Set by any benchmark whose ledger answered wrongly; the exit status.
bool g_failed = false;

void fail(benchmark::State& state, const char* why) {
  g_failed = true;
  state.SkipWithError(why);
}

/// A ledger loaded to a congested mix: spans of 16-512 nodes placed over
/// shifting windows until about four in five cores are held, with every
/// fifth job leaving again. Few nodes stay fully idle.
struct LoadedLedger {
  explicit LoadedLedger(int nodes) : mach(sns::hw::MachineConfig::xeonE5_2680v4()) {
    ledger = std::make_unique<ResourceLedger>(nodes, mach);
    sns::util::Rng rng(0x1ed9e7);
    const double bws[] = {0.1, 0.2, 0.7, 1.3, 2.9, 0.0};
    std::vector<std::pair<sns::actuator::JobId, std::vector<int>>> live;
    sns::actuator::JobId next = 1;
    while (ledger->meanCoreOccupancy() < 0.8) {
      NodeAllocation a;
      a.cores = static_cast<int>(rng.uniformInt(1, 7));
      a.ways = rng.uniform() < 0.5 ? 0 : static_cast<int>(rng.uniformInt(2, 3));
      a.bw_gbps = bws[rng.uniformInt(0, 5)];
      const int lo = static_cast<int>(rng.uniformInt(0, nodes - 1));
      const int width = static_cast<int>(rng.uniformInt(16, 512));
      std::vector<int> span;
      for (int i = 0; i < width; ++i) {
        const int nd = (lo + i) % nodes;
        if (ledger->node(nd).fits(a)) span.push_back(nd);
      }
      if (span.empty()) continue;
      ledger->allocate(span, next, a);
      live.emplace_back(next++, std::move(span));
      if (next % 5 == 0) {
        const std::size_t k = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
        ledger->release(live[k].second, live[k].first);
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
  }
  sns::hw::MachineConfig mach;
  std::unique_ptr<ResourceLedger> ledger;
};

/// One loaded ledger per size, shared by the benchmarks (loading a
/// 32K-node ledger takes longer than timing it).
LoadedLedger& loaded(int nodes) {
  static LoadedLedger small(4096);
  static LoadedLedger large(32768);
  return nodes == 4096 ? small : large;
}

void BM_SelectSuccess(benchmark::State& state) {
  ResourceLedger& ledger = *loaded(static_cast<int>(state.range(0))).ledger;
  const NodeAllocation req{4, 2, 0.7, false, 0.0};
  const int count = static_cast<int>(state.range(0)) / 64;
  for (auto _ : state) {
    const auto nodes = ledger.selectNodes(count, req, 2.0);
    if (nodes.empty()) fail(state, "selection came back empty");
    benchmark::DoNotOptimize(nodes.data());
  }
}
BENCHMARK(BM_SelectSuccess)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_SelectWholeBucket(benchmark::State& state) {
  LoadedLedger& l = loaded(static_cast<int>(state.range(0)));
  ResourceLedger& ledger = *l.ledger;
  // The most populated partly busy bucket, asked for half its nodes: the
  // request's core count is the bucket's idle cores, so it is the first
  // bucket read, and its fitting nodes score differently and all sit
  // inside the scan cap max(64, 2 * count + 8).
  NodeAllocation req{1, 0, 2.0, false, 0.0};
  std::vector<std::pair<double, int>> ranked;  // (score, id) of the fitting nodes
  for (int c = 1; c < l.mach.cores; ++c) {
    const NodeAllocation ask{c, 0, 2.0, false, 0.0};
    std::vector<std::pair<double, int>> fit;
    ledger.bucket(c).scan([&](int id) {
      if (ledger.node(id).fits(ask)) fit.emplace_back(ledger.node(id).score(2.0), id);
      return true;
    });
    if (fit.size() > ranked.size()) {
      req = ask;
      ranked = std::move(fit);
    }
  }
  const int count = static_cast<int>(ranked.size() / 2);
  const bool scored = std::any_of(ranked.begin(), ranked.end(), [&](const auto& e) {
    return e.first != ranked.front().first;
  });
  const std::size_t cap = std::max<std::size_t>(64, 2 * static_cast<std::size_t>(count) + 8);
  if (count < 1 || ranked.size() > cap || !scored) {
    fail(state, "the query misses the one-scan shape");
    return;
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> want;
  for (int i = 0; i < count; ++i) want.push_back(ranked[static_cast<std::size_t>(i)].second);
  if (ledger.selectNodes(count, req, 2.0) != want) fail(state, "selection answered wrongly");
  for (auto _ : state) {
    const auto nodes = ledger.selectNodes(count, req, 2.0);
    if (nodes.size() != static_cast<std::size_t>(count)) fail(state, "selection came back short");
    benchmark::DoNotOptimize(nodes.data());
  }
}
BENCHMARK(BM_SelectWholeBucket)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_SelectAcrossBuckets(benchmark::State& state) {
  LoadedLedger& l = loaded(static_cast<int>(state.range(0)));
  ResourceLedger& ledger = *l.ledger;
  // One node more than the fullest bucket fits: no single bucket holds
  // the query, so every fitting node of every bucket competes.
  const NodeAllocation req{1, 0, 2.0, false, 0.0};
  std::vector<std::pair<double, int>> ranked;  // (score, id) of the fitting nodes
  std::size_t widest = 0;
  for (int c = req.cores; c <= l.mach.cores; ++c) {
    std::size_t fit = 0;
    ledger.bucket(c).scan([&](int id) {
      if (ledger.node(id).fits(req)) {
        ranked.emplace_back(ledger.node(id).score(2.0), id);
        ++fit;
      }
      return true;
    });
    widest = std::max(widest, fit);
  }
  const int count = static_cast<int>(widest) + 1;
  if (ranked.size() < static_cast<std::size_t>(count)) {
    fail(state, "the query misses the multi-bucket shape");
    return;
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<int> want;
  for (int i = 0; i < count; ++i) want.push_back(ranked[static_cast<std::size_t>(i)].second);
  if (ledger.selectNodes(count, req, 2.0) != want) fail(state, "selection answered wrongly");
  for (auto _ : state) {
    const auto nodes = ledger.selectNodes(count, req, 2.0);
    if (nodes.size() != static_cast<std::size_t>(count)) fail(state, "selection came back short");
    benchmark::DoNotOptimize(nodes.data());
  }
}
BENCHMARK(BM_SelectAcrossBuckets)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_SelectProvenFailure(benchmark::State& state) {
  LoadedLedger& l = loaded(static_cast<int>(state.range(0)));
  ResourceLedger& ledger = *l.ledger;
  // Plenty of nodes have a free core, so the population bound passes;
  // only nodes without a bandwidth reservation fit, one too few.
  const NodeAllocation req{1, 0, l.mach.peakBandwidth() - 0.05, false, 0.0};
  const int count = static_cast<int>(ledger.feasibleNodes(req).size()) + 1;
  if (ledger.feasibleUpperBound(req.cores, req.ways, count) < count) {
    fail(state, "the population bound already rejects the query");
  }
  for (auto _ : state) {
    const auto nodes = ledger.selectNodes(count, req, 2.0);
    if (!nodes.empty()) fail(state, "selection should have failed");
    benchmark::DoNotOptimize(nodes.data());
  }
}
BENCHMARK(BM_SelectProvenFailure)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_SelectBoundRejected(benchmark::State& state) {
  ResourceLedger& ledger = *loaded(static_cast<int>(state.range(0))).ledger;
  // A wide request needing more idle cores than most loaded nodes have:
  // one node more than the population rows count, so the bound rejects it
  // before any bucket is read.
  const NodeAllocation req{16, 2, 0.7, false, 0.0};
  const int count =
      ledger.feasibleUpperBound(req.cores, req.ways, ledger.nodeCount()) + 1;
  if (count > ledger.nodeCount()) fail(state, "the request cannot be asked that wide");
  for (auto _ : state) {
    const auto nodes = ledger.selectNodes(count, req, 2.0);
    if (!nodes.empty()) fail(state, "a bound-rejected query placed");
    benchmark::DoNotOptimize(nodes.data());
  }
}
BENCHMARK(BM_SelectBoundRejected)->Arg(4096)->Arg(32768)->Unit(benchmark::kNanosecond);

/// Allocate and release one placement of the replay's mean event
/// footprint: the first 384 fitting nodes among every `stride`-th id.
void spanAllocateRelease(benchmark::State& state, int stride) {
  ResourceLedger& ledger = *loaded(static_cast<int>(state.range(0))).ledger;
  const NodeAllocation a{1, 0, 0.1, false, 0.0};
  std::vector<int> span;
  for (int nd = 0; nd < ledger.nodeCount() && span.size() < 384; nd += stride) {
    if (ledger.node(nd).fits(a)) span.push_back(nd);
  }
  const sns::actuator::JobId job = 1 << 30;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ledger.allocate(span, job, a).data());
    benchmark::DoNotOptimize(ledger.release(span, job).data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * static_cast<std::int64_t>(span.size()));
}

void BM_SpanAllocateRelease(benchmark::State& state) { spanAllocateRelease(state, 3); }
BENCHMARK(BM_SpanAllocateRelease)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

void BM_SpanRunsAllocateRelease(benchmark::State& state) { spanAllocateRelease(state, 1); }
BENCHMARK(BM_SpanRunsAllocateRelease)->Arg(4096)->Arg(32768)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return g_failed ? 1 : 0;
}
