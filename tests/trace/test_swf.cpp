#include "sns/trace/swf.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sns/util/error.hpp"
#include "sns/util/rng.hpp"

namespace sns::trace {
namespace {

constexpr const char* kSample =
    "; Parallel Workloads Archive style header\n"
    "; Computer: test cluster\n"
    "\n"
    "1 0 5 3600 56 -1 -1 56 3600 -1 1 1 1 -1 1 -1 -1 -1\n"
    "2 100 0 7200 28 -1 -1 28 7200 -1 1 2 1 -1 1 -1 -1 -1\n"
    "3 200 0 100 1 -1 -1 1 100 -1 1 3 1 -1 1 -1 -1 -1\n"       // sequential
    "4 300 0 0 56 -1 -1 56 0 -1 0 4 1 -1 1 -1 -1 -1\n"         // zero runtime
    "5 400 0 500 229376 -1 -1 229376 500 -1 1 5 1 -1 1 -1 -1 -1\n"  // 8192 nodes
    "6 50 0 1800 112 -1 -1 112 1800 -1 1 6 1 -1 1 -1 -1 -1\n"
    "7 500 0 600 1e12 -1 -1 1e12 600 -1 1 7 1 -1 1 -1 -1 -1\n";  // > INT_MAX nodes

TEST(Swf, ParsesAndFiltersLikeThePaper) {
  std::istringstream in(kSample);
  const auto jobs = parseSwf(in);
  // Jobs 3 (sequential), 4 (zero runtime), 5 (> 4096 nodes) and 7 (a
  // processor count past int range) are dropped.
  ASSERT_EQ(jobs.size(), 3u);
  // Sorted by submit time: job 6 (t=50) comes before job 2 (t=100).
  EXPECT_DOUBLE_EQ(jobs[0].submit_s, 0.0);
  EXPECT_DOUBLE_EQ(jobs[1].submit_s, 50.0);
  EXPECT_DOUBLE_EQ(jobs[2].submit_s, 100.0);
  // 56 procs / 28 cores -> 2 nodes; 112 -> 4 nodes; 28 -> 1 node.
  EXPECT_EQ(jobs[0].nodes, 2);
  EXPECT_EQ(jobs[1].nodes, 4);
  EXPECT_EQ(jobs[2].nodes, 1);
  EXPECT_DOUBLE_EQ(jobs[0].duration_s, 3600.0);
}

TEST(Swf, PartialProcessorCountsRoundUpToNodes) {
  std::istringstream in("1 0 0 100 29 -1 -1 -1 -1 -1 1 1 1 -1 1 -1 -1 -1\n");
  const auto jobs = parseSwf(in);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].nodes, 2);  // 29 cores needs 2 28-core nodes
}

TEST(Swf, SequentialJobsKeptWhenRequested) {
  SwfOptions opts;
  opts.parallel_only = false;
  std::istringstream in("1 0 0 100 1 -1 -1 -1 -1 -1 1 1 1 -1 1 -1 -1 -1\n");
  EXPECT_EQ(parseSwf(in, opts).size(), 1u);
}

TEST(Swf, MalformedLineReportsLineNumber) {
  // Too few fields, and a first field that is not a number: neither may be
  // skipped as if the line were blank.
  for (const char* text : {"; header\n1 0 5\n", "; header\nabc 1 2 3 4\n"}) {
    std::istringstream in(text);
    try {
      parseSwf(in);
      ADD_FAILURE() << "should have thrown: " << text;
    } catch (const util::DataError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << text;
    }
  }
}

TEST(Swf, MissingFileThrows) {
  EXPECT_THROW(loadSwf("/nonexistent/trace.swf"), util::DataError);
}

TEST(Swf, RoundTripThroughSwfText) {
  util::Rng rng(9);
  TraceGenParams params;
  params.jobs = 200;
  params.horizon_hours = 50.0;
  const auto original = generateTrace(rng, params);

  std::istringstream in(toSwf(original, 28));
  SwfOptions opts;
  opts.parallel_only = false;
  opts.min_duration_s = 0.0;
  const auto back = parseSwf(in, opts);
  ASSERT_EQ(back.size(), original.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_NEAR(back[i].submit_s, original[i].submit_s, 1e-6);
    EXPECT_NEAR(back[i].duration_s, original[i].duration_s, 1e-6);
    EXPECT_EQ(back[i].nodes, original[i].nodes);
  }
}

TEST(Swf, EmptyAndCommentOnlyStreams) {
  std::istringstream empty("");
  EXPECT_TRUE(parseSwf(empty).empty());
  std::istringstream comments("; nothing\n; here\n\n");
  EXPECT_TRUE(parseSwf(comments).empty());
}

}  // namespace
}  // namespace sns::trace
