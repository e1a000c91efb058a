// Sim-level behavior of the O(log n) event engine (DESIGN.md section 11):
// completion ordering under finish-time ties, calendar re-keying when a
// rate boundary moves a running job's projection, and the futile-pass gate
// (empty queue / memoized-failure replay) — checked through observable
// surfaces only: the event stream, the metrics registry, the audit hooks,
// and the SimResult. The engine's results are pinned by
// test_golden_digests.cpp; these tests pin down the engine-specific
// semantics that the digests alone do not express.
#include <gtest/gtest.h>

#include <vector>

#include "sns/app/library.hpp"
#include "sns/audit/audit.hpp"
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
    cfg.pmu_noise = 0.0;
    profile::Profiler prof(est, cfg, 11);
    for (const auto& p : lib) db.put(prof.profileProgram(p, 16));
  }
  perfmodel::Estimator est;
  std::vector<app::ProgramModel> lib;
  profile::ProfileDatabase db;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

SimConfig baseConfig() {
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kCE;  // exclusive: rates never interact
  cfg.monitor_episode_s = 0.0;
  return cfg;
}

/// Identical trace-override jobs submitted together: every one the
/// simulator can start at t=0 finishes at exactly the same instant.
std::vector<app::JobSpec> simultaneousBatch(int n, double run_s) {
  std::vector<app::JobSpec> seq;
  for (int i = 0; i < n; ++i) {
    app::JobSpec j;
    j.program = "EP";
    j.procs = 16;
    j.alpha = 0.9;
    j.submit_time = 0.0;
    j.ce_time_override = run_s;
    seq.push_back(j);
  }
  return seq;
}

TEST(EventEngine, SimultaneousFinishesEmitInAscendingIdOrder) {
  auto& f = fixture();
  SimConfig cfg = baseConfig();
  obs::RingBufferLog log;
  cfg.sink = &log;

  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  const SimResult res = sim.run(simultaneousBatch(6, 500.0));

  // All six fit the 8-node cluster at once, so all six finish together —
  // a six-way tie the calendar must pop in ascending JobId order
  // (DESIGN.md section 11 tie rule).
  std::vector<std::int64_t> finish_order;
  double finish_time = -1.0;
  for (const obs::Event& e : log.snapshot()) {
    if (e.type != obs::EventType::kJobFinished) continue;
    finish_order.push_back(e.job);
    if (finish_time < 0.0) {
      finish_time = e.time;
    } else {
      EXPECT_EQ(e.time, finish_time) << "expected a simultaneous batch";
    }
  }
  EXPECT_EQ(finish_order, (std::vector<std::int64_t>{0, 1, 2, 3, 4, 5}));
  ASSERT_EQ(res.jobs.size(), 6u);
  for (const JobRecord& j : res.jobs) EXPECT_EQ(j.finish, finish_time);
}

TEST(EventEngine, StaggeredTiesStillPopById) {
  auto& f = fixture();
  // Job 0 submits first but runs long; jobs 1 and 2 submit later and are
  // tuned to land on job 0's exact finish instant. Power-of-two times keep
  // the tie exact through the rate reciprocal (1/500 would round and break
  // it by ULPs); the calendar sees three staggered inserts converging on
  // one key and must still pop 0, 1, 2.
  std::vector<app::JobSpec> seq;
  const double spec[][2] = {{0.0, 1024.0}, {512.0, 512.0}, {768.0, 256.0}};
  for (const auto& s : spec) {
    app::JobSpec j;
    j.program = "EP";
    j.procs = 16;
    j.alpha = 0.9;
    j.submit_time = s[0];
    j.ce_time_override = s[1];
    seq.push_back(j);
  }
  SimConfig cfg = baseConfig();
  obs::RingBufferLog log;
  cfg.sink = &log;
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  sim.run(seq);

  std::vector<std::int64_t> finish_order;
  for (const obs::Event& e : log.snapshot()) {
    if (e.type == obs::EventType::kJobFinished) finish_order.push_back(e.job);
  }
  EXPECT_EQ(finish_order, (std::vector<std::int64_t>{0, 1, 2}));
}

#if SNS_AUDIT_ENABLED
TEST(EventEngine, CalendarStaysBitExactAcrossRateBoundaries) {
  // SNS shares nodes, so every start and finish moves co-residents' rates
  // — each one a settle-and-re-key of every affected calendar entry. The
  // per-pass audit recomputes the full expected (id, projection) set and
  // demands bit-exact calendar keys, so a single missed or drifted re-key
  // fails the run.
  auto& f = fixture();
  SimConfig cfg = baseConfig();
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.monitor_episode_s = 30.0;
  audit::Auditor auditor;
  cfg.auditor = &auditor;

  std::vector<app::JobSpec> seq;
  const char* progs[] = {"MG", "LU", "EP", "CG"};
  for (int i = 0; i < 12; ++i) {
    app::JobSpec j;
    j.program = progs[i % 4];
    j.procs = 16;
    j.alpha = 0.9;
    j.submit_time = 150.0 * i;  // arrivals land while others run
    seq.push_back(j);
  }
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  const SimResult res = sim.run(seq);

  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(auditor.passesRun(), 0u);
  ASSERT_EQ(res.jobs.size(), 12u);
  for (const JobRecord& j : res.jobs) EXPECT_GT(j.finish, j.start);
}
#endif  // SNS_AUDIT_ENABLED

TEST(EventEngine, EmptyQueueEventsSkipSchedulingEntirely) {
  auto& f = fixture();
  // Six simultaneous jobs all start at t=0; their six finish events then
  // drain with the queue empty. Every one of those scheduling points is
  // provably futile and must be skipped, not walked.
  SimConfig cfg = baseConfig();
  obs::Registry reg;
  cfg.metrics = &reg;
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  sim.run(simultaneousBatch(6, 500.0));

  const double skips = reg.counter("sim.futile_pass_skips").value();
  const double passes = reg.counter("sim.schedule_passes").value();
  EXPECT_GT(skips, 0.0);
  // Skipped points never count as passes: the admission points (and any
  // pass that could place) still run, so both counters move.
  EXPECT_GT(passes, 0.0);

  // Observed: an attached xray tracer reads the engine, it does not pick
  // it, so the same trace skips the same points and times only the passes
  // that ran.
  SimConfig traced = cfg;
  obs::Registry reg_traced;
  traced.metrics = &reg_traced;
  xray::Tracer tracer;
  traced.xray = &tracer;
  ClusterSimulator sim_traced(f.est, f.lib, f.db, traced);
  sim_traced.run(simultaneousBatch(6, 500.0));
  EXPECT_EQ(reg_traced.counter("sim.futile_pass_skips").value(), skips);
  EXPECT_EQ(reg_traced.counter("sim.schedule_passes").value(), passes);
  EXPECT_EQ(static_cast<double>(tracer.passes()), passes);
}

TEST(EventEngine, MemoizedFailureReplayIsGated) {
  auto& f = fixture();
  // A two-node cluster with a deep backlog: after the first pass fails to
  // place the overflow, every later completion re-runs an identical walk
  // unless the release is big enough to unblock a memoized spec. The gate
  // may only skip a pass it can prove is a replay, so the schedule (and
  // every finish time) must match the ungated run exactly.
  std::vector<app::JobSpec> seq;
  for (int i = 0; i < 10; ++i) {
    app::JobSpec j;
    j.program = "EP";
    j.procs = 16;
    j.alpha = 0.9;
    j.submit_time = 0.0;
    j.ce_time_override = 300.0 + 50.0 * i;  // staggered finishes, one at a time
    seq.push_back(j);
  }
  SimConfig gated = baseConfig();
  gated.nodes = 2;
  obs::Registry reg;
  gated.metrics = &reg;
  ClusterSimulator sim(f.est, f.lib, f.db, gated);
  const SimResult a = sim.run(seq);

  EXPECT_GT(reg.counter("sim.futile_pass_skips").value(), 0.0);

  // Every job is EP at 16 procs on its own node (one node's worth of
  // cores), so a sound gate starts the backlog strictly in order, each job
  // at the instant a node frees: job i > 1 starts when job i - 2 finishes.
  ASSERT_EQ(a.jobs.size(), seq.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const double want = i < 2 ? 0.0 : a.jobs[i - 2].finish;
    EXPECT_EQ(a.jobs[i].start, want) << "job " << i;
  }

  // An attached event sink sees the skipped passes replayed and changes
  // nothing.
  SimConfig logged = gated;
  logged.metrics = nullptr;
  obs::RingBufferLog log;
  logged.sink = &log;
  ClusterSimulator sim_logged(f.est, f.lib, f.db, logged);
  const SimResult b = sim_logged.run(seq);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    EXPECT_EQ(a.jobs[i].start, b.jobs[i].start) << "job " << i;
    EXPECT_EQ(a.jobs[i].finish, b.jobs[i].finish) << "job " << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
}

}  // namespace
}  // namespace sns::sim
