// Unit tests for ledger selection on the queries a memo of earlier answers
// would serve: a failing query re-asked across allocations and releases,
// the release watermark and query-core floor the simulator's failed-spec
// memo keys on, and exclusive requests; then the three shapes of a query
// that one bucket satisfies (ranked in one scan, ranked over a capped
// window, uniform keys), equal keys across buckets, and a stream that
// reaches every shape. The ledger memoizes no selection (its population
// bound is the failure check), so every answer here is computed afresh
// and must equal the regroup-every-node reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/util/rng.hpp"
#include "tests/support/reference_ledger.hpp"

namespace sns::actuator {
namespace {

class SelectionCacheTest : public ::testing::Test {
 protected:
  hw::MachineConfig mach_ = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger_{8, mach_};
};

TEST_F(SelectionCacheTest, EmptyResultStaysEmptyUntilRelease) {
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, n + 1, {26, 0, 0.0, false});
  const NodeAllocation req{8, 2, 5.0, false, 0.0};
  EXPECT_TRUE(ledger_.selectNodes(2, req, 1.0).empty());
  // Failure is monotone under further allocations, and the population
  // bound alone proves it: no node has 8 idle cores.
  ledger_.allocate(0, 100, {1, 0, 0.0, false});
  EXPECT_LT(ledger_.feasibleUpperBound(req.cores, req.ways, 2), 2);
  EXPECT_TRUE(ledger_.selectNodes(2, req, 1.0).empty());
  // A release can unblock the request.
  ledger_.release(1, 2);
  ledger_.release(2, 3);
  const auto after = ledger_.selectNodes(2, req, 1.0);
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after, (std::vector<int>{1, 2}));
}

TEST_F(SelectionCacheTest, EmptyResultSurvivesIrrelevantRelease) {
  // Two residents per node: a 20-core job and a 6-core job (2 idle). A
  // 10-core query is empty. Releasing the small job raises idle to 8 —
  // still below the query's range — so the population bound still rejects
  // the repeat. Releasing the big job (idle 22 >= 10) unblocks it.
  for (int n = 0; n < 8; ++n) {
    ledger_.allocate(n, 100 + n, {20, 0, 0.0, false});
    ledger_.allocate(n, 200 + n, {6, 0, 0.0, false});
  }
  const NodeAllocation req{10, 2, 5.0, false, 0.0};
  EXPECT_TRUE(ledger_.selectNodes(2, req, 1.0).empty());
  ledger_.release(3, 203);  // 2 -> 8 idle, below the scanned range
  EXPECT_EQ(ledger_.takeReleaseIdleWatermark(), 8);
  EXPECT_EQ(ledger_.feasibleUpperBound(req.cores, req.ways, 2), 0);
  EXPECT_TRUE(ledger_.selectNodes(2, req, 1.0).empty());
  EXPECT_TRUE(ledger_.selectNodesByAlignment(2, req).empty());
  ledger_.release(3, 103);  // 8 -> 28 idle: can now satisfy the query
  ledger_.release(4, 104);
  EXPECT_EQ(ledger_.selectNodes(2, req, 1.0), (std::vector<int>{3, 4}));
  EXPECT_EQ(ledger_.selectNodesByAlignment(2, req), (std::vector<int>{3, 4}));
}

TEST_F(SelectionCacheTest, ReleaseIdleWatermarkTracksFreedNodes) {
  ledger_.allocate(0, 1, {20, 0, 0.0, false});
  ledger_.allocate(0, 2, {6, 0, 0.0, false});
  ledger_.allocate(1, 3, {27, 0, 0.0, false});
  EXPECT_EQ(ledger_.takeReleaseIdleWatermark(), -1);  // no release yet
  ledger_.release(0, 2);   // node 0: 2 -> 8 idle
  ledger_.release(1, 3);   // node 1: 1 -> 28 idle
  EXPECT_EQ(ledger_.takeReleaseIdleWatermark(), 28);
  EXPECT_EQ(ledger_.takeReleaseIdleWatermark(), -1);  // take resets
  ledger_.release(0, 1);   // node 0: 8 -> 28... minus job 1's 20 cores
  EXPECT_EQ(ledger_.takeReleaseIdleWatermark(), 28);
}

TEST_F(SelectionCacheTest, QueryCoreFloorTracksSmallestRequest) {
  ledger_.resetQueryCoreFloor();
  EXPECT_EQ(ledger_.queryCoreFloor(), std::numeric_limits<int>::max());
  ledger_.selectNodes(2, NodeAllocation{12, 0, 0.0, false, 0.0}, 1.0);
  ledger_.selectNodes(1, NodeAllocation{4, 2, 5.0, false, 0.0}, 1.0);
  ledger_.feasibleNodes(NodeAllocation{9, 0, 0.0, false, 0.0});
  EXPECT_EQ(ledger_.queryCoreFloor(), 4);
  ledger_.resetQueryCoreFloor();
  EXPECT_EQ(ledger_.queryCoreFloor(), std::numeric_limits<int>::max());
}

TEST_F(SelectionCacheTest, ExclusiveRequestsTakeTheFirstIdleNodes) {
  // Exclusive requests fit only fully idle nodes and all score alike, so
  // the answer is the first `count` idle ids, however often it is asked.
  ledger_.allocate(1, 1, {4, 0, 0.0, false});
  ledger_.allocate(4, 2, {4, 0, 0.0, false});
  const NodeAllocation req{28, 0, 0.0, true, 0.0};
  const std::vector<int> want{0, 2, 3, 5};
  EXPECT_EQ(ledger_.selectNodes(4, req, 1.0), want);
  EXPECT_EQ(ledger_.selectNodes(4, req, 1.0), want);
  EXPECT_EQ(ledger_.selectNodesByAlignment(4, req), want);
  EXPECT_TRUE(ledger_.selectNodes(7, req, 1.0).empty());
  EXPECT_TRUE(ledger_.selectNodesByAlignment(7, req).empty());
  ledger_.release(4, 2);
  EXPECT_EQ(ledger_.selectNodes(7, req, 1.0), (std::vector<int>{0, 2, 3, 4, 5, 6, 7}));
}

// Ranked (selectNodes) reference: testsupport::referenceRanked, which
// regroups every node by idle-core count on each query, with no index and
// no cache, over the ledger's public node views.
std::vector<int> referenceRanked(const ResourceLedger& ledger, int count,
                                 const NodeAllocation& req, double beta) {
  return testsupport::referenceRanked(
      ledger.nodeCount(), [&](int id) { return ledger.node(id); }, count, req, beta);
}

// Aligned (selectNodesByAlignment) reference: testsupport::referenceAligned.
std::vector<int> referenceAligned(const ResourceLedger& ledger, int count,
                                  const NodeAllocation& req) {
  return testsupport::referenceAligned(
      ledger.nodeCount(), [&](int id) { return ledger.node(id); }, ledger.machine(), count,
      req);
}

// One idle-core bucket of 300 nodes (24 idle cores each) that holds every
// query below, plus 20 fully idle nodes. Bucket members carry six
// different bandwidth reservations and CAT partitions on every third
// node, so they score differently; the sixth reservation leaves too
// little bandwidth for the request, so one node in six does not fit.
class WholeBucketTest : public ::testing::Test {
 protected:
  static constexpr int kBucket = 300;
  WholeBucketTest() {
    const double bws[] = {0.0, 1.3, 0.7, 2.9, 0.2, mach_.peakBandwidth() - 1.0};
    for (int nd = 0; nd < kBucket; ++nd) {
      ledger_.allocate(nd, nd + 1, {4, nd % 3 == 0 ? 2 : 0, bws[nd % 6], false, 0.0});
    }
  }
  /// Fitting nodes in the 24-idle-core bucket.
  int bucketFit(const NodeAllocation& req) const {
    int fit = 0;
    for (int nd = 0; nd < ledger_.nodeCount(); ++nd) {
      if (ledger_.node(nd).idleCores() == 24 && ledger_.node(nd).fits(req)) ++fit;
    }
    return fit;
  }
  hw::MachineConfig mach_ = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger_{kBucket + 20, mach_};
};

TEST_F(WholeBucketTest, NonUniformKeysMatchTheReferenceInsideAndBeyondTheCap) {
  const NodeAllocation req{20, 0, 5.0, false, 0.0};
  const int fit = bucketFit(req);
  ASSERT_EQ(fit, 250);
  // The scan cap is max(64, 2 * count + 8): from count 121 on the whole
  // bucket is the window (one scan), below it a capped window is ranked.
  for (const int count : {1, 2, 28, 60, 120, 121, 122, 200, 249, 250}) {
    const std::size_t cap = std::max<std::size_t>(64, 2 * static_cast<std::size_t>(count) + 8);
    SCOPED_TRACE(static_cast<std::size_t>(fit) <= cap ? "one scan" : "capped window");
    for (const double beta : {0.0, 1.0, 2.0}) {
      const auto got = ledger_.selectNodes(count, req, beta);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(count));
      EXPECT_EQ(got, referenceRanked(ledger_, count, req, beta))
          << "count " << count << " beta " << beta;
    }
  }
  // One node more than the bucket holds takes the cluster-wide fallback.
  EXPECT_EQ(ledger_.selectNodes(fit + 1, req, 2.0), referenceRanked(ledger_, fit + 1, req, 2.0));
}

TEST_F(WholeBucketTest, UniformKeysTakeTheFirstFittingIds) {
  // Only the members without a bandwidth reservation (every sixth node,
  // all partitioned alike) fit this request: they score the same, while
  // the members that do not fit score differently.
  const NodeAllocation req{20, 0, mach_.peakBandwidth() - 0.05, false, 0.0};
  ASSERT_EQ(bucketFit(req), 50);
  for (const int count : {1, 7, 50}) {
    std::vector<int> want;
    for (int nd = 0; static_cast<int>(want.size()) < count; nd += 6) want.push_back(nd);
    EXPECT_EQ(ledger_.selectNodes(count, req, 2.0), want) << count;
    EXPECT_EQ(referenceRanked(ledger_, count, req, 2.0), want) << count;
  }
}

// Randomized cross-check: the ledger driven through a mutation/query
// stream must answer exactly like the regroup-everything reference after
// every step. Besides each query step's random query, three standing
// probes are re-asked after every step: wide requests that fail on the
// loaded ledger, so each is the same failing query asked again across
// allocations and across releases that do and do not lift a node into
// its idle-core range — the pattern a failure memo would answer.
TEST(SelectionRandomized, MatchesReferenceLedgerAfterEveryStep) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger(16, mach);
  util::Rng rng(42);
  int next_job = 1;
  std::vector<std::pair<int, int>> live;  // (node, job)
  struct Probe {
    int count;
    NodeAllocation req;
    bool failed = false;  ///< its last answer was empty
  };
  Probe probes[] = {{6, {20, 0, 0.0, false, 0.0}},
                    {4, {24, 2, 3.0, false, 0.0}},
                    {10, {12, 4, 6.0, false, 0.0}}};
  // Releases seen while a probe stood failed, split by whether the freed
  // node came out inside the probe's idle-core range.
  int relevant = 0;
  int irrelevant = 0;
  const auto check = [&](int count, const NodeAllocation& req, double beta, int step) {
    const auto ranked = ledger.selectNodes(count, req, beta);
    EXPECT_EQ(ranked, referenceRanked(ledger, count, req, beta)) << "step " << step;
    EXPECT_EQ(ledger.selectNodesByAlignment(count, req),
              referenceAligned(ledger, count, req))
        << "step " << step;
    return ranked.empty();
  };
  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.uniformInt(0, 9));
    if (op < 3 && !live.empty()) {
      const auto [nd, job] = live[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1))];
      ledger.release(nd, job);
      live.erase(std::remove(live.begin(), live.end(), std::make_pair(nd, job)),
                 live.end());
      const int idle = ledger.node(nd).idleCores();
      for (const Probe& p : probes) {
        if (p.failed) ++(idle >= p.req.cores ? relevant : irrelevant);
      }
    } else if (op < 6) {
      // ways: 0 (unpartitioned) or >= min_ways_per_job.
      const NodeAllocation alloc{static_cast<int>(rng.uniformInt(1, 8)),
                                 2 * static_cast<int>(rng.uniformInt(0, 2)),
                                 2.0 * static_cast<double>(rng.uniformInt(0, 5)),
                                 false, 0.0};
      const auto nodes = referenceRanked(ledger, 1, alloc, 1.0);
      if (nodes.empty()) continue;
      ledger.allocate(nodes[0], next_job, alloc);
      live.emplace_back(nodes[0], next_job);
      ++next_job;
    } else {
      const NodeAllocation req{static_cast<int>(rng.uniformInt(1, 12)),
                               static_cast<int>(rng.uniformInt(0, 6)),
                               3.0 * static_cast<double>(rng.uniformInt(0, 4)),
                               op == 9 && rng.uniformInt(0, 1) == 0, 0.0};
      const int count = static_cast<int>(rng.uniformInt(1, 4));
      const double beta = 0.5 * static_cast<double>(rng.uniformInt(1, 4));
      // Asked twice back to back: a repeat must answer the same.
      for (int rep = 0; rep < 2; ++rep) check(count, req, beta, step);
    }
    for (Probe& p : probes) p.failed = check(p.count, p.req, 2.0, step);
  }
  EXPECT_GT(relevant, 0);
  EXPECT_GT(irrelevant, 0);
}

// Two classes in different idle-core buckets with bit-equal keys, for
// both rankings: nodes holding 14 cores (score 0.5 at beta 1) against
// nodes holding 7 cores and a 5-way partition (0.25 + 0.25), and for a
// 7-core, 5-way request the same alignment (0.25 x 0.5 + 0.25 x 1 against
// 0.25 x 0.75 + 0.25 x 0.75). No bucket holds the request alone, so the
// tied rank spans two buckets; the answer takes its lowest ids.
TEST(SelectionTies, EqualKeysAcrossBucketsTakeTheLowestIds) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger(8, mach);
  ledger.allocate(std::vector<int>{0, 3, 4}, 1, {14, 0, 0.0, false, 0.0});
  ledger.allocate(std::vector<int>{1, 2, 5}, 2, {7, 5, 0.0, false, 0.0});
  ledger.allocate(std::vector<int>{6, 7}, 3, {1, 0, 0.0, false, 0.0});
  const NodeAllocation req{7, 5, 0.0, false, 0.0};
  ASSERT_EQ(ledger.node(0).score(1.0), ledger.node(1).score(1.0));
  ASSERT_LT(ledger.node(6).score(1.0), ledger.node(0).score(1.0));
  const double align[2] = {
      0.25 * ledger.node(0).idleCores() / mach.cores +
          0.25 * ledger.node(0).freeWays() / mach.llc_ways,
      0.25 * ledger.node(1).idleCores() / mach.cores +
          0.25 * ledger.node(1).freeWays() / mach.llc_ways};
  ASSERT_EQ(align[0], align[1]);
  // Count 5 straddles the tied rank (ranked slots 2..7), count 8 holds it.
  for (const int count : {5, 8}) {
    std::vector<int> want{6, 7};
    for (int nd = 0; static_cast<int>(want.size()) < count; ++nd) want.push_back(nd);
    EXPECT_EQ(ledger.selectNodes(count, req, 1.0), want) << count;
    EXPECT_EQ(referenceRanked(ledger, count, req, 1.0), want) << count;
    EXPECT_EQ(ledger.selectNodesByAlignment(count, req), want) << count;
    EXPECT_EQ(referenceAligned(ledger, count, req), want) << count;
  }
}

// The shapes a ranked query can take, read off the public node views:
// the best-fit bucket holding `count` fitting nodes within the scan cap
// (ranked whole) or beyond it (a capped window), every candidate scoring
// alike there, no single bucket (the multi-bucket fallback), or too few.
enum class Shape { kWholeBucket, kCappedWindow, kUniform, kFallback, kEmpty };

Shape rankedShape(const ResourceLedger& ledger, int count, const NodeAllocation& req,
                  double beta) {
  const std::size_t cap = std::max<std::size_t>(64, 2 * static_cast<std::size_t>(count) + 8);
  std::size_t total = 0;
  for (int c = std::max(0, req.cores); c <= ledger.machine().cores; ++c) {
    std::vector<double> scores;
    for (int nd = 0; nd < ledger.nodeCount(); ++nd) {
      const NodeLedger n = ledger.node(nd);
      if (n.idleCores() == c && n.fits(req)) scores.push_back(n.score(beta));
    }
    if (scores.size() >= static_cast<std::size_t>(count)) {
      if (std::all_of(scores.begin(), scores.end(), [&](double s) { return s == scores[0]; })) {
        return Shape::kUniform;
      }
      return scores.size() <= cap ? Shape::kWholeBucket : Shape::kCappedWindow;
    }
    total += scores.size();
  }
  return total >= static_cast<std::size_t>(count) ? Shape::kFallback : Shape::kEmpty;
}

// Randomized cross-check at a size where the scan cap binds: spread jobs
// of 8-96 nodes on a 320-node ledger, so buckets hold more fitting nodes
// than a small query's cap, and query counts on both sides of it. After
// every step both selections must answer like the references, and the
// stream must reach a capped window, a whole bucket, the multi-bucket
// fallback and an alignment answer drawn from several buckets.
TEST(SelectionRandomized, MatchesReferenceAcrossShapesOnHundredsOfNodes) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  constexpr int kNodes = 320;
  ResourceLedger ledger(kNodes, mach);
  util::Rng rng(2718);
  JobId next_job = 1;
  std::vector<std::pair<JobId, std::vector<int>>> live;
  int shapes[5] = {};
  int aligned_across = 0;
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.uniformInt(0, 9));
    if (op < 3 && !live.empty()) {
      const auto k = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(live.size()) - 1));
      ledger.release(live[k].second, live[k].first);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else if (op < 6) {
      const NodeAllocation alloc{static_cast<int>(rng.uniformInt(1, 4)) * 3,
                                 2 * static_cast<int>(rng.uniformInt(0, 2)),
                                 0.5 * static_cast<double>(rng.uniformInt(0, 6)), false,
                                 0.0};
      const int width = static_cast<int>(rng.uniformInt(8, 96));
      auto nodes = referenceRanked(ledger, width, alloc, 1.0);
      if (nodes.empty()) continue;
      std::sort(nodes.begin(), nodes.end());
      ledger.allocate(nodes, next_job, alloc);
      live.emplace_back(next_job++, std::move(nodes));
    } else {
      const NodeAllocation req{static_cast<int>(rng.uniformInt(1, 14)),
                               static_cast<int>(rng.uniformInt(0, 4)),
                               2.0 * static_cast<double>(rng.uniformInt(0, 4)), false, 0.0};
      const double beta = 0.5 * static_cast<double>(rng.uniformInt(0, 4));
      // Small counts rank a capped window of a large bucket; large ones
      // take a bucket whole or fall back across buckets.
      const int count = rng.uniformInt(0, 1) == 0 ? static_cast<int>(rng.uniformInt(1, 24))
                                                   : static_cast<int>(rng.uniformInt(25, 200));
      const auto ranked = ledger.selectNodes(count, req, beta);
      ASSERT_EQ(ranked, referenceRanked(ledger, count, req, beta)) << "step " << step;
      ++shapes[static_cast<int>(rankedShape(ledger, count, req, beta))];
      const auto aligned = ledger.selectNodesByAlignment(count, req);
      ASSERT_EQ(aligned, referenceAligned(ledger, count, req)) << "step " << step;
      if (!aligned.empty() &&
          std::any_of(aligned.begin(), aligned.end(), [&](int nd) {
            return ledger.node(nd).idleCores() != ledger.node(aligned[0]).idleCores();
          })) {
        ++aligned_across;
      }
    }
  }
  EXPECT_GT(shapes[static_cast<int>(Shape::kCappedWindow)], 0);
  EXPECT_GT(shapes[static_cast<int>(Shape::kWholeBucket)], 0);
  EXPECT_GT(shapes[static_cast<int>(Shape::kFallback)], 0);
  EXPECT_GT(aligned_across, 0);
}

}  // namespace
}  // namespace sns::actuator
