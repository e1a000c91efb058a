#include "sns/telemetry/sampler.hpp"

#include <gtest/gtest.h>

#include "sns/telemetry/timeseries.hpp"
#include "sns/util/error.hpp"

namespace sns::telemetry {
namespace {

ClusterSample sampleWithDepth(std::size_t depth) {
  ClusterSample s;
  s.core_util = 0.5;
  s.queue_depth = depth;
  return s;
}

TEST(Sampler, DueBeforeFirstBoundary) {
  TimeSeriesStore store(64);
  Sampler sampler(store);  // period 1 s, first boundary at t = 0
  EXPECT_TRUE(sampler.due(0.0));
  sampler.advanceTo(0.0, sampleWithDepth(0));
  EXPECT_EQ(sampler.ticks(), 1u);
  EXPECT_FALSE(sampler.due(0.5));
  EXPECT_TRUE(sampler.due(1.0));
}

TEST(Sampler, CatchUpStampsEveryBoundaryInTheGap) {
  TimeSeriesStore store(64);
  SamplerConfig cfg;
  cfg.period_s = 10.0;
  Sampler sampler(store, cfg);

  // The producer jumps from t=0 straight to t=35: the piecewise-constant
  // state is stamped at 0, 10, 20, 30 — four ticks, one call.
  sampler.advanceTo(35.0, sampleWithDepth(7));
  EXPECT_EQ(sampler.ticks(), 4u);

  const Series* depth = store.find("queue.depth");
  ASSERT_NE(depth, nullptr);
  ASSERT_EQ(depth->points().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(depth->points()[i].t_first, 10.0 * i);
    EXPECT_DOUBLE_EQ(depth->points()[i].last, 7.0);
  }

  // The next boundary is 40; a call before it records nothing.
  sampler.advanceTo(39.0, sampleWithDepth(0));
  EXPECT_EQ(sampler.ticks(), 4u);
  sampler.advanceTo(40.0, sampleWithDepth(0));
  EXPECT_EQ(sampler.ticks(), 5u);
}

TEST(Sampler, HeadlineSeriesAllRecorded) {
  TimeSeriesStore store(64);
  Sampler sampler(store);
  ClusterSample s;
  s.core_util = 0.25;
  s.way_util = 0.5;
  s.bw_util = 0.75;
  s.busy_nodes = 3;
  s.running_jobs = 4;
  s.queue_depth = 5;
  s.queue_head_age_s = 6.0;
  s.solver_hit_rate = 0.875;
  s.decision_us_p99 = 42.0;
  sampler.advanceTo(0.0, s);

  const struct { const char* name; double v; } expected[] = {
      {"cluster.core_util", 0.25}, {"cluster.way_util", 0.5},
      {"cluster.bw_util", 0.75},   {"cluster.busy_nodes", 3.0},
      {"jobs.running", 4.0},       {"queue.depth", 5.0},
      {"queue.head_age_s", 6.0},   {"solver.hit_rate", 0.875},
      {"sched.decision_us_p99", 42.0},
  };
  for (const auto& e : expected) {
    const Series* ser = store.find(e.name);
    ASSERT_NE(ser, nullptr) << e.name;
    EXPECT_EQ(ser->sampleCount(), 1u) << e.name;
    EXPECT_DOUBLE_EQ(ser->last(), e.v) << e.name;
  }
}

TEST(Sampler, PerNodeSeriesAndAggregates) {
  TimeSeriesStore store(64);
  Sampler sampler(store);
  ClusterSample s;
  s.node_core_occ = {0.2, 0.8, 0.5};
  sampler.advanceTo(0.0, s);

  EXPECT_DOUBLE_EQ(store.find("node.core_occ_min")->last(), 0.2);
  EXPECT_DOUBLE_EQ(store.find("node.core_occ_max")->last(), 0.8);
  EXPECT_NEAR(store.find("node.core_occ_mean")->last(), 0.5, 1e-12);
  for (int nd = 0; nd < 3; ++nd) {
    const Series* per =
        store.find("node.core_occ", {{"node", std::to_string(nd)}});
    ASSERT_NE(per, nullptr) << nd;
    EXPECT_DOUBLE_EQ(per->last(), s.node_core_occ[static_cast<std::size_t>(nd)]);
  }
  EXPECT_EQ(store.find("node.core_occ", {{"node", "3"}}), nullptr);
}

TEST(Sampler, WantsPerNodeHonorsLimit) {
  TimeSeriesStore store(64);
  SamplerConfig cfg;
  Sampler sampler(store, cfg);
  EXPECT_TRUE(sampler.wantsPerNode(8));
  EXPECT_TRUE(sampler.wantsPerNode(64));
  EXPECT_FALSE(sampler.wantsPerNode(65));
  EXPECT_FALSE(sampler.wantsPerNode(4096));
}

TEST(Sampler, WatchdogRunsOncePerTick) {
  TimeSeriesStore store(64);
  SamplerConfig cfg;
  cfg.period_s = 5.0;
  Sampler sampler(store, cfg);
  SloWatchdog wd(SloWatchdog::defaultRules());
  sampler.attachWatchdog(&wd);

  sampler.advanceTo(22.0, sampleWithDepth(1));  // ticks at 0, 5, 10, 15, 20
  EXPECT_EQ(sampler.ticks(), 5u);
  for (const SloStatus& st : wd.status()) EXPECT_EQ(st.ticks_evaluated, 5u);
}

TEST(Sampler, RecordScalarBypassesPeriodicMachinery) {
  TimeSeriesStore store(64);
  Sampler sampler(store);
  sampler.recordScalar("uberun.batch_wall_s", 12.5, 3.25);
  EXPECT_EQ(sampler.ticks(), 0u);
  const Series* s = store.find("uberun.batch_wall_s");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->points().back().t_first, 12.5);
  EXPECT_DOUBLE_EQ(s->last(), 3.25);
}

TEST(Sampler, ResetRestartsAtZeroAndResetsWatchdog) {
  TimeSeriesStore store(64);
  Sampler sampler(store);
  SloWatchdog wd(SloWatchdog::defaultRules());
  sampler.attachWatchdog(&wd);
  ClusterSample bad = sampleWithDepth(1);
  bad.decision_us_p99 = 1e6;
  sampler.advanceTo(3.0, bad);
  ASSERT_TRUE(wd.anyViolation());

  sampler.reset();
  EXPECT_EQ(sampler.ticks(), 0u);
  EXPECT_TRUE(sampler.due(0.0));  // the next run samples t = 0 again
  EXPECT_FALSE(wd.anyViolation());
}

TEST(Sampler, NonPositivePeriodRejected) {
  TimeSeriesStore store(64);
  SamplerConfig cfg;
  cfg.period_s = 0.0;
  EXPECT_THROW(Sampler(store, cfg), util::PreconditionError);
}

}  // namespace
}  // namespace sns::telemetry
