#include "sns/telemetry/export.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sns/obs/metrics.hpp"
#include "sns/telemetry/timeseries.hpp"
#include "sns/util/error.hpp"

namespace sns::telemetry {
namespace {

bool contains(const std::string& hay, const std::string& needle) {
  return hay.find(needle) != std::string::npos;
}

TEST(Prometheus, CountersGetTotalSuffixAndHeaders) {
  obs::Registry reg;
  reg.counter("solver.cache.hits").inc(41);
  reg.counter("solver.cache.hits").inc();
  const std::string out = renderPrometheus(nullptr, &reg);
  EXPECT_TRUE(contains(out, "# HELP sns_solver_cache_hits_total "));
  EXPECT_TRUE(contains(out, "# TYPE sns_solver_cache_hits_total counter\n"));
  EXPECT_TRUE(contains(out, "sns_solver_cache_hits_total 42\n"));
}

TEST(Prometheus, GaugesKeepBareName) {
  obs::Registry reg;
  reg.gauge("sim.queue_depth").set(17.0);
  const std::string out = renderPrometheus(nullptr, &reg);
  EXPECT_TRUE(contains(out, "# TYPE sns_sim_queue_depth gauge\n"));
  EXPECT_TRUE(contains(out, "sns_sim_queue_depth 17\n"));
  EXPECT_FALSE(contains(out, "sns_sim_queue_depth_total"));
}

TEST(Prometheus, HistogramBucketsAreCumulativeWithInf) {
  obs::Registry reg;
  auto& h = reg.histogram("sim.decision_us", {10.0, 100.0, 1000.0});
  h.observe(5.0);    // bucket le=10
  h.observe(50.0);   // bucket le=100
  h.observe(70.0);   // bucket le=100
  h.observe(5000.0); // overflow
  const std::string out = renderPrometheus(nullptr, &reg);
  EXPECT_TRUE(contains(out, "# TYPE sns_sim_decision_us histogram\n"));
  EXPECT_TRUE(contains(out, "sns_sim_decision_us_bucket{le=\"10\"} 1\n"));
  EXPECT_TRUE(contains(out, "sns_sim_decision_us_bucket{le=\"100\"} 3\n"));
  EXPECT_TRUE(contains(out, "sns_sim_decision_us_bucket{le=\"1000\"} 3\n"));
  EXPECT_TRUE(contains(out, "sns_sim_decision_us_bucket{le=\"+Inf\"} 4\n"));
  EXPECT_TRUE(contains(out, "sns_sim_decision_us_sum 5125\n"));
  EXPECT_TRUE(contains(out, "sns_sim_decision_us_count 4\n"));
}

TEST(Prometheus, SeriesExportLastValueWithLabels) {
  TimeSeriesStore store(16);
  store.series("cluster.core_util").append(0.0, 0.25);
  store.series("cluster.core_util").append(60.0, 0.75);
  store.series("node.core_occ", {{"node", "0"}}).append(0.0, 0.5);
  const std::string out = renderPrometheus(&store, nullptr);
  EXPECT_TRUE(contains(out, "# TYPE sns_cluster_core_util gauge\n"));
  EXPECT_TRUE(contains(out, "sns_cluster_core_util 0.75\n"));
  EXPECT_TRUE(contains(out, "sns_node_core_occ{node=\"0\"} 0.5\n"));
  // Dots in series names are sanitized out of the metric name.
  EXPECT_FALSE(contains(out, "cluster.core_util 0.75"));
}

TEST(Prometheus, LabelValuesAreEscaped) {
  TimeSeriesStore store(16);
  store.series("x", {{"k", "a\"b\\c"}}).append(0.0, 1.0);
  const std::string out = renderPrometheus(&store, nullptr);
  EXPECT_TRUE(contains(out, "sns_x{k=\"a\\\"b\\\\c\"} 1\n"));
}

TEST(Prometheus, EmptyInputsProduceEmptyOutput) {
  EXPECT_TRUE(renderPrometheus(nullptr, nullptr).empty());
  TimeSeriesStore store(16);
  store.series("never.appended");
  EXPECT_TRUE(renderPrometheus(&store, nullptr).empty());
}

TEST(HtmlReport, SelfContainedWithSeriesCards) {
  TimeSeriesStore store(64);
  for (int i = 0; i < 50; ++i) {
    store.series("cluster.core_util").append(10.0 * i, 0.4 + 0.01 * (i % 7));
    store.series("queue.depth").append(10.0 * i, static_cast<double>(i % 5));
  }
  SloWatchdog wd(SloWatchdog::defaultRules());
  ReportContext ctx;
  ctx.title = "test run";
  ctx.store = &store;
  ctx.watchdog = &wd;
  ctx.summary = {{"policy", "sns"}, {"nodes", "4096"}};
  const std::string html = renderHtmlReport(ctx);

  EXPECT_TRUE(contains(html, "<!doctype html"));
  EXPECT_TRUE(contains(html, "</html>"));
  EXPECT_TRUE(contains(html, "test run"));
  EXPECT_TRUE(contains(html, "cluster.core_util"));
  EXPECT_TRUE(contains(html, "queue.depth"));
  EXPECT_TRUE(contains(html, "<svg"));       // inline sparklines
  EXPECT_TRUE(contains(html, "queue_starvation"));  // SLO table
  // Self-contained: no external fetches of any kind.
  EXPECT_FALSE(contains(html, "http://"));
  EXPECT_FALSE(contains(html, "https://"));
  EXPECT_FALSE(contains(html, "<script src"));
}

TEST(HtmlReport, FlagsDroppedEvents) {
  ReportContext ctx;
  ctx.title = "drops";
  ctx.events_dropped = 123;
  const std::string html = renderHtmlReport(ctx);
  EXPECT_TRUE(contains(html, "123"));
}

TEST(Top, RendersHeadlineRowsAndClampsTime) {
  TimeSeriesStore store(64);
  for (int i = 0; i <= 10; ++i) {
    store.series("cluster.core_util").append(60.0 * i, 0.1 * i);
    store.series("queue.depth").append(60.0 * i, 10.0 - i);
  }
  const std::string out = renderTop(store, 300.0);
  EXPECT_TRUE(contains(out, "t=300.0"));
  EXPECT_TRUE(contains(out, "core utilization"));
  EXPECT_TRUE(contains(out, "queue depth"));
  EXPECT_TRUE(contains(out, "#"));  // occupancy bar

  // Out-of-range times clamp to the sampled window.
  EXPECT_TRUE(contains(renderTop(store, 1e12), "t=600.0"));
  EXPECT_TRUE(contains(renderTop(store, -5.0), "t=0.0"));
}

TEST(Top, PerNodeBarsWhenRecorded) {
  TimeSeriesStore store(64);
  store.series("cluster.core_util").append(0.0, 0.5);
  store.series("node.core_occ", {{"node", "0"}}).append(0.0, 0.25);
  store.series("node.core_occ", {{"node", "1"}}).append(0.0, 1.0);
  const std::string out = renderTop(store, 0.0);
  EXPECT_TRUE(contains(out, "per-node core occupancy"));
  EXPECT_TRUE(contains(out, "node 0"));
  EXPECT_TRUE(contains(out, "node 1"));
}

TEST(Top, MalformedNodeLabelIsADataErrorNamingIt) {
  for (const char* bad : {"x1", "1x", "", " 2", "99999999999"}) {
    TimeSeriesStore store(64);
    store.series("cluster.core_util").append(0.0, 0.5);
    store.series("node.core_occ", {{"node", bad}}).append(0.0, 0.25);
    try {
      (void)renderTop(store, 0.0);
      ADD_FAILURE() << "label \"" << bad << "\" rendered";
    } catch (const util::DataError& e) {
      EXPECT_TRUE(contains(e.what(), "node.core_occ")) << e.what();
      EXPECT_TRUE(contains(e.what(), std::string("node=\"") + bad + "\"")) << e.what();
    }
  }
}

TEST(Top, EmptyStoreSaysSo) {
  TimeSeriesStore store(16);
  EXPECT_TRUE(contains(renderTop(store, 0.0), "no telemetry samples"));
}

}  // namespace
}  // namespace sns::telemetry
