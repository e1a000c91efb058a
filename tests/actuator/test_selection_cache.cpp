// Unit tests for the ledger's incremental candidate pruning (the selection
// cache), a bit-identity optimization: every cached answer must equal the
// one a fresh scan returns.
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

TEST_F(SelectionCacheTest, RepeatedQueryHitsAndMatches) {
  const NodeAllocation req{4, 2, 5.0, false, 0.0};
  const auto first = ledger_.selectNodes(3, req, 1.0);
  EXPECT_EQ(ledger_.selectionCacheMisses(), 1u);
  const auto again = ledger_.selectNodes(3, req, 1.0);
  EXPECT_EQ(ledger_.selectionCacheHits(), 1u);
  EXPECT_EQ(first, again);
}

TEST_F(SelectionCacheTest, DistinctQueriesDoNotCollide) {
  const NodeAllocation req{4, 2, 5.0, false, 0.0};
  ledger_.selectNodes(3, req, 1.0);
  ledger_.selectNodes(2, req, 1.0);       // different count
  ledger_.selectNodes(3, req, 2.0);       // different beta
  NodeAllocation wider = req;
  wider.ways = 4;
  ledger_.selectNodes(3, wider, 1.0);     // different request
  EXPECT_EQ(ledger_.selectionCacheHits(), 0u);
  EXPECT_EQ(ledger_.selectionCacheMisses(), 4u);
}

TEST_F(SelectionCacheTest, AllocationInRangeInvalidates) {
  const NodeAllocation req{4, 2, 5.0, false, 0.0};
  const auto first = ledger_.selectNodes(3, req, 1.0);
  // Allocating on a previously-idle node changes the scored set: the next
  // identical query must rescan, and its answer must reflect the change.
  ledger_.allocate(first[0], 1, {27, 0, 0.0, false});
  const auto after = ledger_.selectNodes(3, req, 1.0);
  EXPECT_EQ(ledger_.selectionCacheHits(), 0u);
  EXPECT_TRUE(std::find(after.begin(), after.end(), first[0]) == after.end());
}

TEST_F(SelectionCacheTest, IrrelevantAllocationKeepsEntryValid) {
  // Fill node 7 down to 2 idle cores. A 10-core query never reads nodes
  // with fewer than 10 idle cores, so later mutations entirely below that
  // range must not invalidate its cached answer.
  ledger_.allocate(7, 1, {26, 0, 0.0, false});
  const NodeAllocation req{10, 2, 5.0, false, 0.0};
  const auto first = ledger_.selectNodes(3, req, 1.0);
  ledger_.allocate(7, 2, {1, 0, 0.0, false});  // 2 -> 1 idle, below range
  const auto again = ledger_.selectNodes(3, req, 1.0);
  EXPECT_EQ(ledger_.selectionCacheHits(), 1u);
  EXPECT_EQ(first, again);
}

TEST_F(SelectionCacheTest, EmptyResultStaysEmptyUntilRelease) {
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, n + 1, {26, 0, 0.0, false});
  const NodeAllocation req{8, 2, 5.0, false, 0.0};
  EXPECT_TRUE(ledger_.selectNodes(2, req, 1.0).empty());
  // Failure is monotone under further allocations: the cached miss serves.
  ledger_.allocate(0, 100, {1, 0, 0.0, false});
  EXPECT_TRUE(ledger_.selectNodes(2, req, 1.0).empty());
  EXPECT_EQ(ledger_.selectionCacheHits(), 1u);
  // A release can unblock the spec, so the entry must drop.
  ledger_.release(1, 2);
  ledger_.release(2, 3);
  const auto after = ledger_.selectNodes(2, req, 1.0);
  EXPECT_EQ(ledger_.selectionCacheHits(), 1u);  // no new hit: rescan happened
  ASSERT_EQ(after.size(), 2u);
}

TEST_F(SelectionCacheTest, EmptyResultSurvivesIrrelevantRelease) {
  // Two residents per node: a 20-core job and a 6-core job (2 idle). A
  // 10-core query is empty. Releasing the small job raises idle to 8 —
  // still below the query's range — so the failure certificate holds and
  // the repeat is a cache hit. Releasing the big job (idle 22 >= 10)
  // must drop it.
  for (int n = 0; n < 8; ++n) {
    ledger_.allocate(n, 100 + n, {20, 0, 0.0, false});
    ledger_.allocate(n, 200 + n, {6, 0, 0.0, false});
  }
  const NodeAllocation req{10, 2, 5.0, false, 0.0};
  EXPECT_TRUE(ledger_.selectNodes(2, req, 1.0).empty());
  ledger_.release(3, 203);  // 2 -> 8 idle, below the scanned range
  EXPECT_TRUE(ledger_.selectNodes(2, req, 1.0).empty());
  EXPECT_EQ(ledger_.selectionCacheHits(), 1u);
  ledger_.release(3, 103);  // 8 -> 28 idle: can now satisfy the query
  ledger_.release(4, 104);
  EXPECT_EQ(ledger_.selectNodes(2, req, 1.0).size(), 2u);
  EXPECT_EQ(ledger_.selectionCacheHits(), 1u);  // rescan, not a stale hit
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

TEST_F(SelectionCacheTest, ExclusiveRequestsBypassCache) {
  const NodeAllocation req{28, 0, 0.0, true, 0.0};
  ledger_.selectNodes(8, req, 1.0);
  ledger_.selectNodes(8, req, 1.0);
  EXPECT_EQ(ledger_.selectionCacheHits(), 0u);
  EXPECT_EQ(ledger_.selectionCacheMisses(), 0u);
}

TEST_F(SelectionCacheTest, AlignmentQueriesCachedSeparately) {
  const NodeAllocation req{4, 2, 5.0, false, 0.0};
  const auto ranked = ledger_.selectNodes(3, req, 1.0);
  const auto aligned = ledger_.selectNodesByAlignment(3, req);
  EXPECT_EQ(ledger_.selectionCacheMisses(), 2u);  // distinct kinds, no mix
  EXPECT_EQ(ledger_.selectNodesByAlignment(3, req), aligned);
  EXPECT_EQ(ledger_.selectNodes(3, req, 1.0), ranked);
  EXPECT_EQ(ledger_.selectionCacheHits(), 2u);
}

TEST_F(SelectionCacheTest, AuditAcceptsFreshCacheRejectsNothing) {
  const NodeAllocation req{4, 2, 5.0, false, 0.0};
  ledger_.selectNodes(3, req, 1.0);
  ledger_.selectNodesByAlignment(2, req);
  EXPECT_TRUE(ledger_.auditSelectionCache().empty());
  ledger_.allocate(0, 1, {8, 4, 10.0, false});
  // Stale-but-invalid entries are skipped by the audit, not reported.
  EXPECT_TRUE(ledger_.auditSelectionCache().empty());
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

// Randomized cross-check: the ledger (bucket index + selection cache)
// driven through a mutation/query stream must answer exactly like the
// regroup-everything reference at every step, cached repeats included.
TEST(SelectionCacheRandomized, MatchesUncachedLedgerExactly) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger cached(16, mach);
  util::Rng rng(42);
  int next_job = 1;
  std::vector<std::pair<int, int>> live;  // (node, job)
  for (int step = 0; step < 400; ++step) {
    const int op = static_cast<int>(rng.uniformInt(0, 9));
    if (op < 3 && !live.empty()) {
      const auto [nd, job] = live[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(live.size()) - 1))];
      cached.release(nd, job);
      live.erase(std::remove(live.begin(), live.end(), std::make_pair(nd, job)),
                 live.end());
    } else if (op < 6) {
      // ways: 0 (unpartitioned) or >= min_ways_per_job.
      const NodeAllocation alloc{static_cast<int>(rng.uniformInt(1, 8)),
                                 2 * static_cast<int>(rng.uniformInt(0, 2)),
                                 2.0 * static_cast<double>(rng.uniformInt(0, 5)),
                                 false, 0.0};
      const auto nodes = referenceRanked(cached, 1, alloc, 1.0);
      if (nodes.empty()) continue;
      cached.allocate(nodes[0], next_job, alloc);
      live.emplace_back(nodes[0], next_job);
      ++next_job;
    } else {
      const NodeAllocation req{static_cast<int>(rng.uniformInt(1, 12)),
                               static_cast<int>(rng.uniformInt(0, 6)),
                               3.0 * static_cast<double>(rng.uniformInt(0, 4)),
                               false, 0.0};
      const int count = static_cast<int>(rng.uniformInt(1, 4));
      const double beta = 0.5 * static_cast<double>(rng.uniformInt(1, 4));
      // Each query runs twice back-to-back: the repeat is served from the
      // cache (same version, no mutation in between) and must still match
      // the reference.
      for (int rep = 0; rep < 2; ++rep) {
        EXPECT_EQ(cached.selectNodes(count, req, beta),
                  referenceRanked(cached, count, req, beta))
            << "step " << step << " rep " << rep;
        EXPECT_EQ(cached.selectNodesByAlignment(count, req),
                  referenceAligned(cached, count, req))
            << "step " << step << " rep " << rep;
      }
      EXPECT_TRUE(cached.auditSelectionCache().empty()) << "step " << step;
    }
  }
  EXPECT_GT(cached.selectionCacheHits(), 0u);
}

}  // namespace
}  // namespace sns::actuator
