// End-to-end check of the SimConfig telemetry hooks: a sampler attached to
// ClusterSimulator records ticks on the virtual clock, the headline series
// reflect the run, the attached SLO watchdog sees every tick, and an xray
// tracer covers the whole event loop — without changing the simulation's
// outcome.
#include <gtest/gtest.h>

#include <sstream>

#include "sns/app/library.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/telemetry/sampler.hpp"
#include "sns/xray/span.hpp"

namespace sns::sim {
namespace {

class TelemetryHookTest : public ::testing::Test {
 protected:
  TelemetryHookTest() : lib_(app::programLibrary()) {
    for (auto& p : lib_) est_.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.0;
    profile::Profiler prof(est_, cfg);
    for (const auto& p : lib_) db_.put(prof.profileProgram(p, 16));
  }

  std::vector<app::JobSpec> jobs() const {
    return {{"MG", 16, 0.9, 0.0, 2, 0.0},
            {"HC", 28, 0.9, 10.0, 1, 0.0},
            {"LU", 16, 0.9, 20.0, 2, 0.0}};
  }

  perfmodel::Estimator est_;
  std::vector<app::ProgramModel> lib_;
  profile::ProfileDatabase db_;
};

TEST_F(TelemetryHookTest, SamplerTicksOnTheVirtualClock) {
  telemetry::TimeSeriesStore store(256);
  telemetry::SloWatchdog wd(telemetry::SloWatchdog::defaultRules());
  telemetry::SamplerConfig scfg;
  scfg.period_s = 5.0;
  telemetry::Sampler sampler(store, scfg);
  sampler.attachWatchdog(&wd);

  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.sampler = &sampler;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  const auto res = sim.run(jobs());
  ASSERT_EQ(res.jobs.size(), 3u);

  // One tick per elapsed 5 s period across the whole makespan.
  EXPECT_GE(sampler.ticks(), static_cast<std::uint64_t>(res.makespan / 5.0));

  // The headline series were recorded and saw real activity.
  const telemetry::Series* core = store.find("cluster.core_util");
  ASSERT_NE(core, nullptr);
  EXPECT_EQ(core->sampleCount(), sampler.ticks());
  EXPECT_GT(core->maxSeen(), 0.0);
  const telemetry::Series* running = store.find("jobs.running");
  ASSERT_NE(running, nullptr);
  EXPECT_GT(running->maxSeen(), 0.0);

  // An 8-node cluster is under the per-node limit: per-node series exist.
  EXPECT_NE(store.find("node.core_occ", {{"node", "0"}}), nullptr);
  EXPECT_NE(store.find("node.core_occ", {{"node", "7"}}), nullptr);

  // The watchdog ran on every tick and the healthy testbed stays clean.
  for (const telemetry::SloStatus& st : wd.status()) {
    EXPECT_EQ(st.ticks_evaluated, sampler.ticks());
  }
  EXPECT_FALSE(wd.anyViolation());
}

TEST_F(TelemetryHookTest, TelemetryDoesNotChangeTheSchedule) {
  SimConfig plain;
  plain.nodes = 8;
  plain.policy = sched::PolicyKind::kSNS;
  ClusterSimulator base(est_, lib_, db_, plain);
  const auto base_res = base.run(jobs());

  telemetry::TimeSeriesStore store(256);
  telemetry::Sampler sampler(store);
  SimConfig instrumented = plain;
  instrumented.sampler = &sampler;
  ClusterSimulator sim(est_, lib_, db_, instrumented);
  const auto res = sim.run(jobs());

  ASSERT_EQ(res.jobs.size(), base_res.jobs.size());
  EXPECT_DOUBLE_EQ(res.makespan, base_res.makespan);
  for (std::size_t i = 0; i < res.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(res.jobs[i].start, base_res.jobs[i].start);
    EXPECT_DOUBLE_EQ(res.jobs[i].finish, base_res.jobs[i].finish);
  }
}

TEST_F(TelemetryHookTest, TracerCoversTheWholeEventLoop) {
  xray::Tracer tracer;
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.xray = &tracer;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  sim.run(jobs());

  using xray::SpanKind;
  EXPECT_GT(tracer.stat(SpanKind::kEvent).calls, 0u);
  EXPECT_GT(tracer.stat(SpanKind::kDecision).calls, 0u);
  EXPECT_GT(tracer.stat(SpanKind::kCommit).calls, 0u);
  EXPECT_GT(tracer.stat(SpanKind::kAccounting).calls, 0u);
  EXPECT_GT(tracer.stat(SpanKind::kFinish).calls, 0u);
  EXPECT_GT(tracer.stat(SpanKind::kObserve).calls, 0u);
  // Every step, the t = 0 admission step included, is one event root.
  EXPECT_EQ(tracer.stat(SpanKind::kEvent).calls, tracer.steps());
  // The solves a job completion triggers are timed under its finish span:
  // some folded line reads "event;finish;...;solver_call <ns>".
  const std::string folded = tracer.foldedStacks();
  std::istringstream lines(folded);
  bool finish_solve = false;
  for (std::string sig, ns; lines >> sig >> ns;) {
    finish_solve |= sig.starts_with("event;finish;") &&
                    sig.ends_with(";solver_call");
  }
  EXPECT_TRUE(finish_solve) << folded;
}

TEST_F(TelemetryHookTest, SolverCacheCountersFlowIntoTheRegistry) {
  obs::Registry reg;
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.metrics = &reg;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  sim.run(jobs());

  const obs::Counter* hits = reg.findCounter("solver.cache.hits");
  const obs::Counter* misses = reg.findCounter("solver.cache.misses");
  ASSERT_NE(hits, nullptr);
  ASSERT_NE(misses, nullptr);
  // Any run does at least one fresh solve; repeated co-run sets hit.
  EXPECT_GT(misses->value(), 0.0);
  EXPECT_GE(hits->value(), 0.0);
}

}  // namespace
}  // namespace sns::sim
