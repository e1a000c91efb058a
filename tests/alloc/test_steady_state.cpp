// The hot-path allocation contract (DESIGN.md "Static contracts"): after
// warm-up, the SNS decision path, the finish-calendar re-key and the
// flight recorder's settle/reopen perform ZERO heap allocations at steady
// state. The whole binary runs under the operator new/delete interposer
// (tests/support/alloc_interposer.cpp), which attributes every allocation
// to the innermost active SNS_HOT_PATH scope; each marker records the
// activation ordinal of its most recent non-exempt allocation, so "steady
// state" is checkable without mid-run hooks: that ordinal must lie in the
// warm-up prefix of the run's activations.
//
// Exempt (boundary) activations are the rate-boundary state changes that
// allocate by design — a committed placement building its Running record,
// a first-failure growing the spec memo — never the replayed work that
// dominates steady state.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/flight/flight.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/trace/generator.hpp"
#include "sns/trace/replay.hpp"
#include "sns/util/hot_path.hpp"
#include "tests/support/alloc_guard.hpp"

namespace sns {
namespace {

/// Activations in the leading warm-up window that may allocate; after it,
/// a marker with a later non-exempt allocation fails the contract. Half
/// the run is deliberately generous — the engine's caches actually warm up
/// far earlier — so the gate only trips on genuine steady-state churn
/// (per-event allocations), never on slow one-time cache growth.
constexpr double kWarmupFraction = 0.5;

struct SteadyStateRun {
  sim::SimResult result;
  std::uint64_t events = 0;
};

SteadyStateRun runQuickTrace() {
  perfmodel::Estimator est;
  std::vector<app::ProgramModel> lib = app::programLibrary();
  for (auto& p : lib) est.calibrate(p);
  profile::ProfilerConfig pcfg;
  pcfg.pmu_noise = 0.0;
  profile::Profiler prof(est, pcfg, 11);
  profile::ProfileDatabase base_db;
  for (const auto& p : lib) base_db.put(prof.profileProgram(p, 16));

  // CI-sized slice of the Fig 20 synthetic trace (the quick trace's
  // discipline, scaled to unit-test wall time): congested enough that the
  // queue stays populated, so schedule passes replay failed specs — the
  // exact steady state the contract is about.
  trace::TraceGenParams params;
  params.jobs = 400;
  params.horizon_hours = 110.0;
  params.max_nodes = 256;
  util::Rng trace_rng(0x7417177);
  const auto raw = trace::generateTrace(trace_rng, params);
  util::Rng map_rng(900);
  const auto jobs =
      trace::mapTraceToJobs(map_rng, raw, 0.9, est.machine().cores);
  const auto db = trace::synthesizeTraceProfiles(base_db, 16, jobs, est);

  obs::Registry metrics;
  flight::FlightRecorder flight;  // the contract includes settle/reopen
  sim::SimConfig cfg;
  cfg.nodes = 256;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.monitor_episode_s = 0.0;
  cfg.age_limit_s = 14.0 * 86400.0;
  cfg.max_queue_scan = 256;
  cfg.metrics = &metrics;
  cfg.flight = &flight;
  // No event sink or tracer: an event sink's appends and a provenance
  // store's replays allocate by design, so the contract gates the run
  // without them (the engine path is the same either way).
  sim::ClusterSimulator sim(est, lib, db, cfg);

  util::hotpath::resetCounters();
  SteadyStateRun out;
  out.result = sim.run(jobs);
  const obs::Counter* ev = metrics.findCounter("sim.schedule_passes");
  out.events = ev != nullptr ? static_cast<std::uint64_t>(ev->value()) : 0;
  return out;
}

const SteadyStateRun& steadyStateRun() {
  static SteadyStateRun run = runQuickTrace();
  return run;
}

struct MarkerStats {
  std::uint64_t entries = 0;
  std::uint64_t allocs = 0;
  std::uint64_t exempt = 0;
  std::uint64_t last_alloc_entry = 0;
};

MarkerStats statsOf(const char* name) {
  util::hotpath::Marker* m = util::hotpath::findMarker(name);
  if (m == nullptr) return {};
  MarkerStats s;
  s.entries = m->entries.load();
  s.allocs = m->allocs.load();
  s.exempt = m->exempt_allocs.load();
  s.last_alloc_entry = m->last_alloc_entry.load();
  return s;
}

void expectSteadyStateSilent(const char* name) {
  const MarkerStats s = statsOf(name);
  ASSERT_GT(s.entries, 0u) << name << ": marker never activated — the "
                           << "trace no longer exercises this path";
  const auto warmup = static_cast<std::uint64_t>(
      static_cast<double>(s.entries) * kWarmupFraction);
  EXPECT_LE(s.last_alloc_entry, warmup)
      << name << ": allocated on activation " << s.last_alloc_entry
      << " of " << s.entries << " (" << s.allocs
      << " non-exempt allocations total) — the steady-state heap-silence "
      << "contract is broken; either a per-event allocation crept in or a "
      << "scratch structure lost its warm capacity";
  std::printf("  %-22s entries=%-9" PRIu64 " allocs=%-7" PRIu64
              " exempt=%-7" PRIu64 " last_alloc@%" PRIu64 "\n",
              name, s.entries, s.allocs, s.exempt, s.last_alloc_entry);
}

TEST(AllocContract, InterposerActive) {
  ASSERT_TRUE(testing::AllocGuard::interposerLinked())
      << "sns_alloc_tests must link tests/support/alloc_interposer.cpp";
}

TEST(AllocContract, QuickTraceCompletes) {
  const SteadyStateRun& run = steadyStateRun();
  EXPECT_EQ(run.result.jobs.size(), 400u);
  EXPECT_GT(run.events, 500u) << "trace too small to have a steady state";
}

TEST(AllocContract, DecisionPathHeapSilentAtSteadyState) {
  (void)steadyStateRun();
  expectSteadyStateSilent("sched.decision");
  expectSteadyStateSilent("sched.pass");
}

TEST(AllocContract, CalendarRekeyNeverAllocates) {
  (void)steadyStateRun();
  const MarkerStats s = statsOf("engine.calendar_rekey");
  ASSERT_GT(s.entries, 0u) << "finish-calendar re-key never ran";
  // Strict zero, not just steady-state: update() is two sifts over
  // preallocated arrays, with no warm-up phase to excuse.
  EXPECT_EQ(s.allocs, 0u);
  EXPECT_EQ(s.exempt, 0u);
}

TEST(AllocContract, FlightSettleReopenHeapSilentAtSteadyState) {
  (void)steadyStateRun();
  expectSteadyStateSilent("flight.settle");
  expectSteadyStateSilent("flight.reopen");
}

TEST(AllocContract, RateRefreshHeapSilentAtSteadyState) {
  (void)steadyStateRun();
  // Refreshes that miss the solver cache (a never-seen share's derivation
  // entering the memo) declare themselves boundary activations — memo
  // warm-up happens at event rate for the whole run, it is not a leak.
  // Every refresh of known shares must be heap-silent.
  expectSteadyStateSilent("engine.refresh");
}

}  // namespace
}  // namespace sns
