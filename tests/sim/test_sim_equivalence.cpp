// Equivalence suite for the simulator's one engine path. The failed-spec
// memo, the end-of-pass rate refresh and the futile-pass gate run whatever
// observers are attached; a run with an event sink and a tracer (which are
// shown memo hits and skipped passes as replays) must reproduce the plain
// run bit-for-bit — exact double comparisons, no tolerances — across
// policies, seeds, trace-style ce_time_override jobs, and monitored runs
// (which exercise the dense accumulate path). The values themselves are
// pinned by test_golden_digests.cpp, and what the observers are shown by
// its ObserverOutputsMatchTheBaseline.
#include <gtest/gtest.h>

#include <vector>

#include "sns/app/library.hpp"
#include "sns/flight/flight.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/xray/span.hpp"

namespace sns::sim {
namespace {

struct Fixture {
  Fixture() : lib(app::programLibrary()) {
    for (auto& p : lib) est.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.02;
    profile::Profiler prof(est, cfg, 7);
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

// Exact comparison: any difference — a reordered node list, a solver
// round-off, one-ULP drift in a finish time — is a bug in a path.
void expectIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.busy_node_seconds, b.busy_node_seconds);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobRecord& ja = a.jobs[i];
    const JobRecord& jb = b.jobs[i];
    EXPECT_EQ(ja.id, jb.id);
    EXPECT_EQ(ja.spec.program, jb.spec.program);
    EXPECT_EQ(ja.submit, jb.submit);
    EXPECT_EQ(ja.start, jb.start) << "job " << ja.id;
    EXPECT_EQ(ja.finish, jb.finish) << "job " << ja.id;
    EXPECT_EQ(ja.placement.nodes, jb.placement.nodes) << "job " << ja.id;
    EXPECT_EQ(ja.placement.procs_per_node, jb.placement.procs_per_node);
    EXPECT_EQ(ja.placement.scale_factor, jb.placement.scale_factor);
    EXPECT_EQ(ja.placement.ways, jb.placement.ways);
    EXPECT_EQ(ja.placement.bw_gbps, jb.placement.bw_gbps);
    EXPECT_EQ(ja.placement.net_gbps, jb.placement.net_gbps);
    EXPECT_EQ(ja.placement.exclusive, jb.placement.exclusive);
  }
  ASSERT_EQ(a.node_bw_episodes.size(), b.node_bw_episodes.size());
  for (std::size_t n = 0; n < a.node_bw_episodes.size(); ++n) {
    EXPECT_EQ(a.node_bw_episodes[n], b.node_bw_episodes[n]) << "node " << n;
  }
}

SimConfig baseConfig(sched::PolicyKind policy, bool monitored) {
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = policy;
  // Monitoring on exercises the busy-node accumulate path; off matches
  // the large-trace replay configuration.
  cfg.monitor_episode_s = monitored ? 30.0 : 0.0;
  return cfg;
}

SimResult runWith(const Fixture& f, SimConfig cfg,
                  const std::vector<app::JobSpec>& seq) {
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  return sim.run(seq);
}

/// A run with an event sink and an xray tracer (provenance on) attached:
/// the observers every diagnostic run carries.
SimResult runObserved(const Fixture& f, SimConfig cfg,
                      const std::vector<app::JobSpec>& seq) {
  obs::RingBufferLog log;
  xray::Tracer tracer;
  cfg.sink = &log;
  cfg.xray = &tracer;
  return runWith(f, cfg, seq);
}

// The plain run against the same run under the observers every diagnostic
// run attaches.
class OptimizedVsLegacy
    : public ::testing::TestWithParam<std::tuple<sched::PolicyKind, std::uint64_t>> {
};

TEST_P(OptimizedVsLegacy, RandomSequencesBitIdentical) {
  auto& f = fixture();
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed);
  const auto seq = app::randomSequence(rng, f.lib, 16, 0.9);

  const SimConfig cfg = baseConfig(policy, /*monitored=*/true);
  expectIdentical(runWith(f, cfg, seq), runObserved(f, cfg, seq));
}

// Each observer alone — an event sink with a tracer, a tracer without
// provenance — with and without the flight recorder, which rides the
// settle points of the end-of-pass refresh and must stay a pure observer.
TEST_P(OptimizedVsLegacy, EachFlagAloneBitIdentical) {
  auto& f = fixture();
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed + 17);
  const auto seq = app::randomSequence(rng, f.lib, 12, 0.9);

  const SimConfig cfg = baseConfig(policy, /*monitored=*/false);
  const SimResult ref = runWith(f, cfg, seq);

  for (bool recorded : {false, true}) {
    flight::FlightRecorder fr;
    SimConfig one = cfg;
    if (recorded) one.flight = &fr;
    SCOPED_TRACE(recorded ? "recorder on" : "recorder off");
    expectIdentical(runWith(f, one, seq), ref);
    expectIdentical(runObserved(f, one, seq), ref);
    xray::TracerConfig no_prov;
    no_prov.provenance = false;
    xray::Tracer tracer(no_prov);
    SimConfig traced = one;
    traced.xray = &tracer;
    expectIdentical(runWith(f, traced, seq), ref);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, OptimizedVsLegacy,
    ::testing::Combine(::testing::Values(sched::PolicyKind::kCE,
                                         sched::PolicyKind::kCS,
                                         sched::PolicyKind::kSNS),
                       ::testing::Values(1u, 2u, 3u)));

// Trace-style jobs: ce_time_override supplies the ground-truth run time
// (the Fig 20 replay path), tight scan limits force backfilling decisions,
// and the queue stays deep enough that the memo and the futile-pass gate
// answer many visits, which the observers are shown as replays.
TEST(SimEquivalence, TraceStyleOverrideJobsBitIdentical) {
  auto& f = fixture();
  std::vector<app::JobSpec> seq;
  const char* progs[] = {"MG", "LU", "WC", "EP", "CG", "TS"};
  for (int i = 0; i < 18; ++i) {
    app::JobSpec j;
    j.program = progs[i % 6];
    // WC/TS carry 28-proc profiles (non-pow2 multi-node); the rest are
    // profiled at their 16-proc reference.
    j.procs = (i % 6 == 2 || i % 6 == 5) ? 28 : 16;
    j.alpha = 0.9;
    j.submit_time = 40.0 * i;
    j.ce_time_override = 300.0 + 60.0 * (i % 5);
    seq.push_back(j);
  }
  for (sched::PolicyKind policy :
       {sched::PolicyKind::kCE, sched::PolicyKind::kCS, sched::PolicyKind::kSNS}) {
    SimConfig cfg = baseConfig(policy, /*monitored=*/true);
    cfg.age_limit_s = 120.0;
    cfg.max_queue_scan = 4;
    SCOPED_TRACE(sched::to_string(policy));
    const SimResult ref = runWith(f, cfg, seq);
    expectIdentical(runObserved(f, cfg, seq), ref);
  }
}

// Worst case for the incremental-prune and batched-scoring caches: many
// jobs sharing a handful of specs pile up on a small contended cluster, so
// the queue walk repeats identical selection queries and identical
// tryPlace failures pass after pass, with releases invalidating both
// caches mid-run. Observing the memoized decisions must not change them.
TEST(SimEquivalence, ContendedDuplicateSpecsBitIdentical) {
  auto& f = fixture();
  std::vector<app::JobSpec> seq;
  const char* progs[] = {"MG", "LU", "EP"};
  for (int i = 0; i < 24; ++i) {
    app::JobSpec j;
    j.program = progs[i % 3];
    j.procs = 16;
    j.alpha = 0.9;
    // Burst arrivals: eight jobs per wave so the queue stays deep and most
    // dispatch attempts fail (and hit the failed-spec memo).
    j.submit_time = 500.0 * (i / 8);
    seq.push_back(j);
  }
  for (sched::PolicyKind policy :
       {sched::PolicyKind::kCE, sched::PolicyKind::kCS, sched::PolicyKind::kSNS}) {
    SimConfig cfg = baseConfig(policy, /*monitored=*/true);
    cfg.nodes = 4;  // contended: nothing close to the aggregate demand
    SCOPED_TRACE(sched::to_string(policy));
    expectIdentical(runWith(f, cfg, seq), runObserved(f, cfg, seq));
  }
}

// The simulator must also be deterministic run-to-run: identical inputs,
// identical results, including across back-to-back runs of the same
// simulator instance (run() must fully reset dense state).
TEST(SimEquivalence, SameSeedSameInstanceDeterminism) {
  auto& f = fixture();
  util::Rng rng(1234);
  const auto seq = app::randomSequence(rng, f.lib, 14, 0.9);
  SimConfig cfg = baseConfig(sched::PolicyKind::kSNS, /*monitored=*/true);

  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  const SimResult first = sim.run(seq);
  const SimResult again = sim.run(seq);  // same instance, state must reset
  expectIdentical(first, again);

  ClusterSimulator fresh(f.est, f.lib, f.db, cfg);
  expectIdentical(first, fresh.run(seq));
}

// run() interns each job's (program, procs, alpha) into a per-run spec id
// that indexes the failed-spec memo. Back-to-back runs of one instance over
// job lists with different spec sets and sizes must each match a fresh
// instance, results and spec-skip counts alike. The lists cycle through
// three and five specs, so a spec table carried over from the previous run
// would map this run's jobs onto the wrong memo entries: distinct specs
// would share an entry (an attempt skipped that must run) and equal specs
// would not (an attempt repeated that may be skipped).
TEST(SimEquivalence, BackToBackRunsOfDifferentListsMatchFreshInstances) {
  auto& f = fixture();
  const auto waves = [](std::vector<const char*> progs, int jobs, double alpha) {
    std::vector<app::JobSpec> seq;
    for (int i = 0; i < jobs; ++i) {
      app::JobSpec j;
      j.program = progs[static_cast<std::size_t>(i) % progs.size()];
      j.procs = 16;
      j.alpha = alpha;
      j.submit_time = 100.0 * (i / 12);  // bursts of twelve: a deep queue
      seq.push_back(j);
    }
    return seq;
  };
  const auto longer = waves({"MG", "LU", "EP"}, 24, 0.9);
  const auto shorter = waves({"CG", "TS", "WC", "BW", "NW"}, 20, 0.9);
  SimConfig cfg = baseConfig(sched::PolicyKind::kSNS, /*monitored=*/false);
  cfg.nodes = 4;  // contended: failed attempts recur, so the memo answers

  const auto skips = [](const obs::Registry& m) {
    const obs::Counter* c = m.findCounter("sim.spec_skips");
    return c != nullptr ? c->value() : 0.0;
  };
  obs::Registry reused_m;
  SimConfig reused_cfg = cfg;
  reused_cfg.metrics = &reused_m;
  ClusterSimulator reused(f.est, f.lib, f.db, reused_cfg);
  for (const auto* seq : {&longer, &shorter, &longer}) {
    SCOPED_TRACE(seq->size());
    const double before = skips(reused_m);
    const SimResult got = reused.run(*seq);
    const double got_skips = skips(reused_m) - before;

    obs::Registry fresh_m;
    SimConfig fresh_cfg = cfg;
    fresh_cfg.metrics = &fresh_m;
    ClusterSimulator fresh(f.est, f.lib, f.db, fresh_cfg);
    expectIdentical(got, fresh.run(*seq));
    EXPECT_EQ(got_skips, skips(fresh_m));
    EXPECT_GT(got_skips, 0.0);  // the memo answered in this run
  }
}

}  // namespace
}  // namespace sns::sim
