#include <gtest/gtest.h>

#include <map>

#include "sns/app/library.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"

namespace sns::sim {
namespace {

class SimTracingTest : public ::testing::Test {
 protected:
  SimTracingTest() : lib_(app::programLibrary()) {
    for (auto& p : lib_) est_.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.0;
    profile::Profiler prof(est_, cfg);
    for (const auto& p : lib_) db_.put(prof.profileProgram(p, 16));
  }

  std::vector<app::JobSpec> smallWorkload() const {
    return {{"MG", 16, 0.9, 0.0, 1, 0.0},
            {"NW", 16, 0.9, 0.0, 1, 0.0},
            {"EP", 16, 0.9, 0.0, 1, 0.0}};
  }

  perfmodel::Estimator est_;
  std::vector<app::ProgramModel> lib_;
  profile::ProfileDatabase db_;
};

TEST_F(SimTracingTest, EventStreamCoversEveryJobInOrder) {
  obs::RingBufferLog log;
  SimConfig cfg;
  cfg.nodes = 4;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.sink = &log;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  const auto res = sim.run(smallWorkload());

  // Per job: submitted -> started -> finished with non-decreasing times.
  std::map<std::int64_t, int> stage;
  double last_t = 0.0;
  for (const auto& e : log.snapshot()) {
    EXPECT_GE(e.time, last_t);
    last_t = e.time;
    switch (e.type) {
      case obs::EventType::kJobSubmitted:
        EXPECT_EQ(stage[e.job], 0);
        stage[e.job] = 1;
        break;
      case obs::EventType::kJobStarted:
        EXPECT_EQ(stage[e.job], 1);
        stage[e.job] = 2;
        break;
      case obs::EventType::kJobFinished:
        EXPECT_EQ(stage[e.job], 2);
        stage[e.job] = 3;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(stage.size(), res.jobs.size());
  for (const auto& [job, s] : stage) EXPECT_EQ(s, 3) << "job " << job;
}

TEST_F(SimTracingTest, RegistryCountsMatchResult) {
  obs::Registry reg;
  SimConfig cfg;
  cfg.nodes = 4;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.metrics = &reg;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  const auto res = sim.run(smallWorkload());

  const auto n = static_cast<double>(res.jobs.size());
  EXPECT_DOUBLE_EQ(reg.findCounter("sim.jobs_submitted")->value(), n);
  EXPECT_DOUBLE_EQ(reg.findCounter("sim.jobs_started")->value(), n);
  EXPECT_DOUBLE_EQ(reg.findCounter("sim.jobs_finished")->value(), n);
  EXPECT_EQ(reg.findHistogram("sim.wait_s")->count(),
            static_cast<std::uint64_t>(n));
  EXPECT_GT(reg.findCounter("sim.solver_calls")->value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.findGauge("sim.queue_depth")->value(), 0.0);
  EXPECT_GE(reg.findGauge("sim.busy_nodes")->max(), 1.0);
}

TEST_F(SimTracingTest, RerunDetachesSinkCleanly) {
  // Two runs on the same simulator, the second without metrics consumers
  // still attached from the first: no stale state, counters accumulate.
  obs::Registry reg;
  obs::RingBufferLog log;
  SimConfig cfg;
  cfg.nodes = 4;
  cfg.policy = sched::PolicyKind::kCS;
  cfg.sink = &log;
  cfg.metrics = &reg;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  sim.run(smallWorkload());
  const auto first = log.totalRecorded();
  sim.run(smallWorkload());
  EXPECT_EQ(log.totalRecorded(), 2 * first);
  EXPECT_DOUBLE_EQ(reg.findCounter("sim.jobs_finished")->value(), 6.0);
}

}  // namespace
}  // namespace sns::sim
