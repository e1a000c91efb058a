// sns::xray::Tracer unit tests: span nesting and self/inclusive
// accounting, RAII early-exit safety, the per-unit span budget, pass and
// event-step sampling, folded stacks, and record retention.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "sns/util/error.hpp"
#include "sns/xray/span.hpp"

namespace sns::xray {
namespace {

void spin() {
  // A little real work so every span accumulates nonzero time on any
  // clock granularity.
  volatile double x = 1.0;
  for (int i = 0; i < 1000; ++i) x = x * 1.0000001 + 0.5;
}

TEST(Span, KindNamesAreStable) {
  EXPECT_STREQ(to_string(SpanKind::kDecision), "decision");
  EXPECT_STREQ(to_string(SpanKind::kCandidatePrune), "candidate_prune");
  EXPECT_STREQ(to_string(SpanKind::kCurveScore), "curve_score");
  EXPECT_STREQ(to_string(SpanKind::kSolverCall), "solver_call");
  EXPECT_STREQ(to_string(SpanKind::kCommit), "commit");
  EXPECT_STREQ(to_string(SpanKind::kRateRefresh), "rate_refresh");
  EXPECT_STREQ(to_string(SpanKind::kBatchRefresh), "batch_refresh");
  EXPECT_STREQ(to_string(SpanKind::kEvent), "event");
  EXPECT_STREQ(to_string(SpanKind::kAccounting), "accounting");
  EXPECT_STREQ(to_string(SpanKind::kFinish), "finish");
  EXPECT_STREQ(to_string(SpanKind::kObserve), "observe");
}

TEST(Span, NestedSpansAttributeSelfAndInclusive) {
  Tracer t;
  t.beginPass(10.0);
  {
    ScopedSpan prune(&t, SpanKind::kCandidatePrune, 3);
    spin();
    {
      ScopedSpan solve(&t, SpanKind::kSolverCall, 3);
      spin();
    }
    {
      ScopedSpan solve(&t, SpanKind::kSolverCall, 3);
      spin();
    }
    spin();
  }
  t.endPass();

  EXPECT_EQ(t.stat(SpanKind::kDecision).calls, 1u);
  EXPECT_EQ(t.stat(SpanKind::kCandidatePrune).calls, 1u);
  EXPECT_EQ(t.stat(SpanKind::kSolverCall).calls, 2u);
  EXPECT_EQ(t.stat(SpanKind::kCommit).calls, 0u);

  const auto& dec = t.stat(SpanKind::kDecision);
  const auto& prune = t.stat(SpanKind::kCandidatePrune);
  const auto& solve = t.stat(SpanKind::kSolverCall);
  // Inclusive nests: decision >= prune >= both solves together.
  EXPECT_GE(dec.total_ns, prune.total_ns);
  EXPECT_GE(prune.total_ns, solve.total_ns);
  // Self excludes children: prune did real work outside the solves.
  EXPECT_LT(prune.self_ns, prune.total_ns);
  EXPECT_GT(prune.self_ns, 0u);
  // Leaves have self == inclusive.
  EXPECT_EQ(solve.self_ns, solve.total_ns);
  // The attributed total is the sum of the self times.
  EXPECT_EQ(t.totalSelfNs(), dec.self_ns + prune.self_ns + solve.self_ns);
  // max_ns tracks the worst single inclusive span.
  EXPECT_GE(solve.max_ns, solve.total_ns / 2);
  // Per-kind histograms observed every call.
  EXPECT_EQ(t.kindUs(SpanKind::kSolverCall).count(), 2u);
}

TEST(Span, FoldedStacksEncodeTheScopePath) {
  Tracer t;
  t.beginPass(0.0);
  {
    ScopedSpan prune(&t, SpanKind::kCandidatePrune);
    ScopedSpan solve(&t, SpanKind::kSolverCall);
    spin();
  }
  t.endPass();
  const std::string folded = t.foldedStacks();
  EXPECT_NE(folded.find("decision "), std::string::npos);
  EXPECT_NE(folded.find("decision;candidate_prune "), std::string::npos);
  EXPECT_NE(folded.find("decision;candidate_prune;solver_call "),
            std::string::npos);
}

TEST(Span, SameSignatureMergesAcrossVisits) {
  Tracer t;
  for (int p = 0; p < 5; ++p) {
    t.beginPass(static_cast<double>(p));
    {
      ScopedSpan prune(&t, SpanKind::kCandidatePrune);
      spin();
    }
    t.endPass();
  }
  // Two unique signatures ("decision", "decision;candidate_prune"), not ten.
  const std::string folded = t.foldedStacks();
  EXPECT_EQ(std::count(folded.begin(), folded.end(), '\n'), 2) << folded;
}

TEST(Span, FoldedSelfTimesSumToTheTotal) {
  Tracer t;
  t.beginStep(1.0);
  {
    ScopedSpan finish(&t, SpanKind::kFinish);
    spin();
    ScopedSpan refresh(&t, SpanKind::kRateRefresh);
    spin();
  }
  t.beginPass(1.0);
  {
    ScopedSpan commit(&t, SpanKind::kCommit);
    spin();
  }
  t.endPass();
  t.endStep();
  // Each line is "sig self_ns"; the self values sum to the attributed
  // total, the flamegraph invariant, and that total is the root's
  // inclusive time.
  std::istringstream is(t.foldedStacks());
  std::string sig;
  std::uint64_t ns = 0, sum = 0;
  int lines = 0;
  while (is >> sig >> ns) {
    sum += ns;
    ++lines;
  }
  // event, event;finish, event;finish;rate_refresh, event;decision and
  // event;decision;commit.
  EXPECT_EQ(lines, 5);
  EXPECT_EQ(sum, t.totalSelfNs());
  EXPECT_EQ(t.totalSelfNs(), t.stat(SpanKind::kEvent).total_ns);
}

TEST(Span, StepsRootPassesUnderEvent) {
  TracerConfig cfg;
  cfg.sample_period = 2;
  Tracer t(cfg);
  for (int s = 0; s < 4; ++s) {
    t.beginStep(static_cast<double>(s));
    EXPECT_EQ(t.sampling(), s % 2 == 0) << "step " << s;
    { ScopedSpan acct(&t, SpanKind::kAccounting); }
    t.beginPass(static_cast<double>(s));
    EXPECT_DOUBLE_EQ(t.passSimTime(), static_cast<double>(s));
    { ScopedSpan prune(&t, SpanKind::kCandidatePrune); }
    t.endPass();
    t.endStep();
  }
  // The step is the sampled unit: passes inherit its sampling decision.
  EXPECT_EQ(t.steps(), 4u);
  EXPECT_EQ(t.sampledSteps(), 2u);
  EXPECT_EQ(t.passes(), 4u);
  EXPECT_EQ(t.sampledPasses(), 2u);
  EXPECT_EQ(t.stat(SpanKind::kEvent).calls, 2u);
  EXPECT_EQ(t.stat(SpanKind::kDecision).calls, 2u);
  EXPECT_EQ(t.stat(SpanKind::kAccounting).calls, 2u);
  const std::string folded = t.foldedStacks();
  EXPECT_NE(folded.find("event;accounting "), std::string::npos) << folded;
  EXPECT_NE(folded.find("event;decision;candidate_prune "), std::string::npos);
  // Misuse: a step cannot nest in a step, or close inside a pass.
  t.beginStep(9.0);
  EXPECT_THROW(t.beginStep(9.0), util::PreconditionError);
  t.beginPass(9.0);
  EXPECT_THROW(t.endStep(), util::PreconditionError);
  t.endPass();
  t.endStep();
}

TEST(Span, RenderTableListsActiveKindsOnly) {
  Tracer t;
  t.beginPass(0.0);
  {
    ScopedSpan s(&t, SpanKind::kRateRefresh);
    spin();
  }
  t.endPass();
  const std::string table = t.renderTable();
  EXPECT_NE(table.find("rate_refresh"), std::string::npos);
  EXPECT_NE(table.find("decision"), std::string::npos);
  EXPECT_EQ(table.find("accounting"), std::string::npos);
  EXPECT_EQ(table.find("commit"), std::string::npos);
}

TEST(Span, ExitWithoutEnterRejected) {
  Tracer t;
  EXPECT_THROW(t.exit(), util::PreconditionError);
}

TEST(Span, RaiiExitsOnEarlyReturnAndException) {
  Tracer t;
  t.beginPass(0.0);
  auto early = [&](bool bail) {
    ScopedSpan s(&t, SpanKind::kCurveScore);
    if (bail) return 1;
    return 2;
  };
  EXPECT_EQ(early(true), 1);
  try {
    ScopedSpan s(&t, SpanKind::kCommit);
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  // Both scopes unwound; the pass closes with a balanced stack.
  EXPECT_NO_THROW(t.endPass());
  EXPECT_EQ(t.stat(SpanKind::kCurveScore).calls, 1u);
  EXPECT_EQ(t.stat(SpanKind::kCommit).calls, 1u);
}

TEST(Span, NullTracerAndOutsidePassAreInert) {
  { ScopedSpan s(nullptr, SpanKind::kSolverCall); }
  Tracer t;
  // Outside any pass: latched off at construction.
  { ScopedSpan s(&t, SpanKind::kSolverCall); }
  EXPECT_EQ(t.stat(SpanKind::kSolverCall).calls, 0u);
}

TEST(Span, BudgetDropsSpansButKeepsPairing) {
  TracerConfig cfg;
  cfg.span_budget = 2;  // the decision root + one timed span
  Tracer t(cfg);
  t.beginPass(0.0);
  { ScopedSpan a(&t, SpanKind::kSolverCall); }
  { ScopedSpan b(&t, SpanKind::kSolverCall); }  // over budget: dropped
  {
    ScopedSpan c(&t, SpanKind::kCandidatePrune);  // dropped
    ScopedSpan d(&t, SpanKind::kSolverCall);      // dropped, nested
  }
  EXPECT_NO_THROW(t.endPass());
  EXPECT_EQ(t.droppedSpans(), 3u);
  EXPECT_EQ(t.stat(SpanKind::kSolverCall).calls, 1u);
  EXPECT_EQ(t.stat(SpanKind::kCandidatePrune).calls, 0u);
}

TEST(Span, SamplePeriodTimesEveryNthPass) {
  TracerConfig cfg;
  cfg.sample_period = 3;
  Tracer t(cfg);
  for (int p = 0; p < 7; ++p) {
    t.beginPass(static_cast<double>(p));
    const bool expect_sampled = p % 3 == 0;
    EXPECT_EQ(t.sampling(), expect_sampled) << "pass " << p;
    { ScopedSpan s(&t, SpanKind::kSolverCall); }
    t.endPass();
  }
  EXPECT_EQ(t.passes(), 7u);
  EXPECT_EQ(t.sampledPasses(), 3u);  // passes 0, 3, 6
  // Unsampled passes timed nothing.
  EXPECT_EQ(t.stat(SpanKind::kDecision).calls, 3u);
  EXPECT_EQ(t.stat(SpanKind::kSolverCall).calls, 3u);
}

TEST(Span, RecordsRetainPassAndRelativeTimes) {
  TracerConfig cfg;
  cfg.keep_records = true;
  Tracer t(cfg);
  t.beginPass(42.5);
  {
    ScopedSpan s(&t, SpanKind::kCandidatePrune, 9);
    spin();
  }
  t.endPass();
  ASSERT_EQ(t.records().size(), 2u);  // prune closes before the root
  const SpanRecord& prune = t.records()[0];
  const SpanRecord& root = t.records()[1];
  EXPECT_EQ(prune.kind, SpanKind::kCandidatePrune);
  EXPECT_EQ(prune.job, 9);
  EXPECT_EQ(prune.depth, 1);
  EXPECT_EQ(prune.unit, 0u);
  EXPECT_DOUBLE_EQ(prune.sim_time, 42.5);
  EXPECT_LE(prune.t0_ns, prune.t1_ns);
  EXPECT_EQ(root.kind, SpanKind::kDecision);
  EXPECT_EQ(root.depth, 0);
  EXPECT_LE(root.t0_ns, prune.t0_ns);
  EXPECT_GE(root.t1_ns, prune.t1_ns);
}

TEST(Span, RecordCapCountsDrops) {
  TracerConfig cfg;
  cfg.keep_records = true;
  cfg.max_records = 2;
  Tracer t(cfg);
  t.beginPass(0.0);
  for (int i = 0; i < 4; ++i) {
    ScopedSpan s(&t, SpanKind::kSolverCall);
  }
  t.endPass();
  EXPECT_EQ(t.records().size(), 2u);
  EXPECT_EQ(t.droppedRecords(), 3u);  // 2 solves + the root
  EXPECT_EQ(t.droppedSpans(), 0u);    // the cap is on records, not timing
}

TEST(Span, ResetClearsEverything) {
  TracerConfig cfg;
  cfg.keep_records = true;
  Tracer t(cfg);
  t.beginPass(0.0);
  { ScopedSpan s(&t, SpanKind::kSolverCall); }
  t.endPass();
  ASSERT_GT(t.passes(), 0u);
  t.reset();
  EXPECT_EQ(t.passes(), 0u);
  EXPECT_EQ(t.sampledPasses(), 0u);
  EXPECT_EQ(t.totalSelfNs(), 0u);
  EXPECT_EQ(t.stat(SpanKind::kSolverCall).calls, 0u);
  EXPECT_TRUE(t.records().empty());
  EXPECT_TRUE(t.foldedStacks().empty());
}

// The flat per-kind phase profile: the calls / inclusive / self / worst
// accounting that `uberun hotpath` renders, checked on the tracer's stats.

TEST(PhaseProfiler, FlatStatsAccumulate) {
  Tracer t;
  t.beginPass(0.0);
  for (int i = 0; i < 3; ++i) {
    ScopedSpan s(&t, SpanKind::kCandidatePrune);
    spin();
  }
  t.endPass();
  const auto& st = t.stat(SpanKind::kCandidatePrune);
  EXPECT_EQ(st.calls, 3u);
  EXPECT_GT(st.total_ns, 0u);
  EXPECT_EQ(st.self_ns, st.total_ns);  // no children
  EXPECT_GE(st.max_ns, st.total_ns / 3);
  EXPECT_EQ(t.stat(SpanKind::kCommit).calls, 0u);
}

TEST(PhaseProfiler, NestingSplitsSelfFromInclusive) {
  Tracer t;
  t.beginPass(0.0);
  {
    ScopedSpan outer(&t, SpanKind::kCandidatePrune);
    spin();
    {
      ScopedSpan inner(&t, SpanKind::kSolverCall);
      spin();
    }
    spin();
  }
  t.endPass();
  const auto& dec = t.stat(SpanKind::kDecision);
  const auto& prune = t.stat(SpanKind::kCandidatePrune);
  const auto& solve = t.stat(SpanKind::kSolverCall);
  // The child's time is inside the parent's inclusive total but subtracted
  // from its self time, so instrumented time is counted exactly once.
  EXPECT_GE(prune.total_ns, solve.total_ns);
  EXPECT_EQ(dec.self_ns + prune.self_ns + solve.self_ns, t.totalSelfNs());
  EXPECT_LE(prune.self_ns, prune.total_ns - solve.total_ns);
  // Sum of self == inclusive time of the root.
  EXPECT_EQ(t.totalSelfNs(), dec.total_ns);
}

TEST(PhaseProfiler, NullProfilerScopeIsANoOp) {
  // The disabled hot path: no tracer attached, no effect, no crash.
  ScopedSpan s(nullptr, SpanKind::kSolverCall);
  SUCCEED();
}

TEST(PhaseProfiler, ResetClearsEverything) {
  Tracer t;
  t.beginStep(0.0);
  {
    ScopedSpan s(&t, SpanKind::kAccounting);
    spin();
  }
  t.endStep();
  ASSERT_EQ(t.stat(SpanKind::kAccounting).calls, 1u);
  t.reset();
  EXPECT_EQ(t.stat(SpanKind::kAccounting).calls, 0u);
  EXPECT_EQ(t.totalSelfNs(), 0u);
  EXPECT_TRUE(t.foldedStacks().empty());
}

TEST(Span, LifecycleMisuseThrows) {
  Tracer t;
  EXPECT_THROW(t.endPass(), util::PreconditionError);
  t.beginPass(0.0);
  EXPECT_THROW(t.beginPass(1.0), util::PreconditionError);
  t.endPass();
  TracerConfig bad;
  bad.sample_period = 0;
  EXPECT_THROW(Tracer{bad}, util::PreconditionError);
}

}  // namespace
}  // namespace sns::xray
