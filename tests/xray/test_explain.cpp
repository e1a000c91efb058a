// Golden-ish tests for the sns::xray render layer: `uberun explain`'s
// per-job report and index, and `uberun hotpath`'s attribution report.
// Assertions pin the load-bearing phrases, not the full byte layout, so
// cosmetic table tweaks don't churn the suite.
#include <gtest/gtest.h>

#include "sns/xray/explain.hpp"

namespace sns::xray {
namespace {

ProvenanceStore placedStore() {
  ProvenanceStore store;
  store.beginAttempt(3, "MG", 16, 0.9, 1.0, 100.0);
  ScaleAttempt a4;
  a4.scale = 4;
  a4.nodes = 4;
  a4.cores = 4;
  a4.reason = RejectReason::kInsufficientResources;
  store.addAttempt(3, a4);
  ScaleAttempt a2;
  a2.scale = 2;
  a2.nodes = 2;
  a2.cores = 8;
  a2.ways = 5;
  a2.bw_gbps = 3.5;
  store.addAttempt(3, a2);
  store.decide(3, 120.0, 2, 5, 8, 3.5, false,
               {{1, 0.25, 0.1, 0.2, 0.05}, {4, 0.40, 0.2, 0.3, 0.10}}, 2);
  store.noteSolverDelta(3, 10, 7);
  return store;
}

TEST(Explain, PlacedJobReportsWalkScoresAndSolver) {
  const auto store = placedStore();
  const std::string out = renderExplain(store, 3);
  EXPECT_NE(out.find("job 3: MG/16"), std::string::npos) << out;
  EXPECT_NE(out.find("first considered at t=100.0 s"), std::string::npos);
  EXPECT_NE(out.find("placed at t=120.0 s"), std::string::npos);
  EXPECT_NE(out.find("k=2, 8 proc(s)/node, 5 LLC way(s)"), std::string::npos);
  // The rejected scale names its reason; the winning one is accepted.
  EXPECT_NE(out.find("k=4 (4 node(s) x 4 core(s)): no node set with enough "
                     "free cores, ways and bandwidth"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("accepted"), std::string::npos);
  // Score breakdown table with both chosen nodes.
  EXPECT_NE(out.find("score = Co + Bo + 1.0 x Wo"), std::string::npos);
  EXPECT_NE(out.find("0.2500"), std::string::npos);
  EXPECT_NE(out.find("0.4000"), std::string::npos);
  // Solver-cache provenance credited to the placement.
  EXPECT_NE(out.find("10 contention solve(s)"), std::string::npos);
  EXPECT_NE(out.find("7 served from cache"), std::string::npos);
}

TEST(Explain, CandidateOverflowNoted) {
  ProvenanceStore store(2);
  store.beginAttempt(0, "MG", 64, 0.9, 1.0, 0.0);
  store.decide(0, 1.0, 4, 0, 16, 0.0, true,
               {{0, 0, 0, 0, 0}, {1, 0, 0, 0, 0}, {2, 0, 0, 0, 0},
                {3, 0, 0, 0, 0}},
               4);
  const std::string out = renderExplain(store, 0);
  EXPECT_NE(out.find("... 2 more node(s) in the placement"), std::string::npos)
      << out;
}

TEST(Explain, UnplacedAndUnknownJobs) {
  ProvenanceStore store;
  store.beginAttempt(0, "NW", 16, 0.9, 1.0, 10.0);
  ScaleAttempt a;
  a.scale = 1;
  a.nodes = 1;
  a.cores = 16;
  a.reason = RejectReason::kInsufficientResources;
  store.addAttempt(0, a);
  EXPECT_NE(renderExplain(store, 0).find("NOT PLACED"), std::string::npos);
  EXPECT_NE(renderExplain(store, 7).find("no placement decision recorded"),
            std::string::npos);
}

TEST(Explain, ExplorationTrialReported) {
  ProvenanceStore store;
  store.beginAttempt(5, "GAN", 16, 0.9, 1.0, 50.0);
  store.noteExploration(5, 2, true);
  store.decide(5, 50.0, 2, 0, 8, 0.0, true, {{0, 0, 0, 0, 0}}, 1);
  const std::string out = renderExplain(store, 5);
  EXPECT_NE(out.find("exclusive exploration trial at k=2"), std::string::npos)
      << out;
}

TEST(Explain, IndexListsOneLinePerDecision) {
  auto store = placedStore();
  store.beginAttempt(5, "NW", 16, 0.9, 1.0, 130.0);  // still queued
  const std::string out = renderExplainIndex(store);
  EXPECT_NE(out.find("MG"), std::string::npos);
  EXPECT_NE(out.find("shared"), std::string::npos);
  EXPECT_NE(out.find("queued"), std::string::npos);
  // Gap ids (0-2, 4) don't produce rows; jobs 3 and 5 do.
  EXPECT_EQ(out.find("explore"), std::string::npos);
}

TEST(Explain, HotpathReportsAttributionAndReconciliation) {
  Tracer t;
  for (int p = 0; p < 3; ++p) {
    t.beginPass(static_cast<double>(p));
    {
      ScopedSpan prune(&t, SpanKind::kCandidatePrune);
      ScopedSpan solve(&t, SpanKind::kSolverCall);
      volatile double x = 1.0;
      for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 0.5;
    }
    t.endPass();
  }
  const std::string out = renderHotpath(t, 125.0);
  EXPECT_NE(out.find("3 of 3 scheduling passes traced"), std::string::npos)
      << out;
  EXPECT_NE(out.find("candidate_prune"), std::string::npos);
  EXPECT_NE(out.find("decision span mean per pass:"), std::string::npos);
  EXPECT_NE(out.find("vs measured decision_us_mean 125.0 us"),
            std::string::npos);
  EXPECT_NE(out.find("folded stacks"), std::string::npos);
  EXPECT_NE(out.find("decision;candidate_prune;solver_call"),
            std::string::npos);
  // Without a measured mean the reconciliation clause is omitted.
  EXPECT_EQ(renderHotpath(t).find("vs measured"), std::string::npos);
}

TEST(Explain, HotpathReconcilesAttributedTimeWithRunWall) {
  Tracer t;
  for (int s = 0; s < 2; ++s) {
    t.beginStep(static_cast<double>(s));
    { ScopedSpan acct(&t, SpanKind::kAccounting); }
    t.beginPass(static_cast<double>(s));
    t.endPass();
    t.endStep();
  }
  const std::string out = renderHotpath(t, 0.0, 1.0);
  EXPECT_NE(out.find("2 of 2 scheduling passes traced in 2 of 2 event steps"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("attributed self time:"), std::string::npos);
  EXPECT_NE(out.find("ms run wall time"), std::string::npos);
  EXPECT_NE(out.find("event;accounting"), std::string::npos);
  // Without a measured run wall time the line is omitted.
  EXPECT_EQ(renderHotpath(t).find("run wall time"), std::string::npos);
}

TEST(Explain, HotpathSurfacesDroppedSpans) {
  TracerConfig cfg;
  cfg.span_budget = 1;  // only the root fits
  Tracer t(cfg);
  t.beginPass(0.0);
  { ScopedSpan s(&t, SpanKind::kSolverCall); }
  t.endPass();
  const std::string out = renderHotpath(t);
  EXPECT_NE(out.find("dropped spans (budget 1 per traced unit): 1"),
            std::string::npos)
      << out;
}

}  // namespace
}  // namespace sns::xray
