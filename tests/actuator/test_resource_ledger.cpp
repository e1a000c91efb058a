#include "sns/actuator/resource_ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>
#include <type_traits>

#include "sns/util/error.hpp"

namespace sns::actuator {
namespace {

// The ledger keeps a reference to its machine config, so a temporary one
// must not compile into a dangling pointer; a named config still binds.
static_assert(!std::is_constructible_v<ResourceLedger, int, hw::MachineConfig>);
static_assert(std::is_constructible_v<ResourceLedger, int, hw::MachineConfig&>);
static_assert(std::is_constructible_v<ResourceLedger, int, const hw::MachineConfig&>);

class ResourceLedgerTest : public ::testing::Test {
 protected:
  hw::MachineConfig mach_ = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger_{8, mach_};
};

TEST_F(ResourceLedgerTest, FreshClusterAllIdle) {
  EXPECT_EQ(ledger_.nodeCount(), 8);
  EXPECT_EQ(ledger_.idleNodeCount(), 8);
  EXPECT_EQ(ledger_.busyNodeCount(), 0);
  EXPECT_EQ(ledger_.feasibleNodes(28, 20, 118.0, true).size(), 8u);
}

TEST_F(ResourceLedgerTest, AllocateUpdatesCounts) {
  ledger_.allocate(0, 1, {16, 0, 0.0, true});
  EXPECT_EQ(ledger_.idleNodeCount(), 7);
  EXPECT_EQ(ledger_.busyNodeCount(), 1);
  ledger_.release(0, 1);
  EXPECT_EQ(ledger_.idleNodeCount(), 8);
}

TEST_F(ResourceLedgerTest, SelectNodesReturnsEmptyWhenInsufficient) {
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, n + 1, {16, 0, 0.0, true});
  EXPECT_TRUE(ledger_.selectNodes(1, 1, 0, 0.0, false).empty());
  EXPECT_TRUE(ledger_.selectNodes(1, 1, 0, 0.0, true).empty());
}

TEST_F(ResourceLedgerTest, SelectPrefersIdlestNodes) {
  // Load node 0 lightly and node 1 heavily; a new request should go to the
  // idle nodes first, then node 0 before node 1.
  ledger_.allocate(0, 1, {4, 2, 5.0, false});
  ledger_.allocate(1, 2, {20, 10, 80.0, false});
  const auto picked = ledger_.selectNodes(7, 4, 2, 5.0, false);
  ASSERT_EQ(picked.size(), 7u);
  EXPECT_TRUE(std::find(picked.begin(), picked.end(), 1) == picked.end());
}

TEST_F(ResourceLedgerTest, BestFitGroupPreservesIdleNodes) {
  // Nodes 0-1 have 12 idle cores, nodes 2-7 are fully idle. A 2-node
  // request needing 12 cores fits entirely in the 12-idle group, which is
  // the tightest feasible group — SNS serves it there and keeps the idle
  // nodes whole for larger jobs (the §4.4 fragmentation-reduction rule).
  ledger_.allocate(0, 1, {16, 0, 0.0, false});
  ledger_.allocate(1, 2, {16, 0, 0.0, false});
  const auto picked = ledger_.selectNodes(2, 12, 0, 0.0, false);
  ASSERT_EQ(picked.size(), 2u);
  for (int id : picked) EXPECT_LT(id, 2);
}

TEST_F(ResourceLedgerTest, WholeRequestServedInsideOneGroup) {
  // Occupy 7 nodes (16 idle cores each); node 7 stays fully idle. A 2-node
  // request that fits in the 16-idle group is served entirely there — the
  // lone idle node is left alone for bigger jobs (the paper's
  // fragmentation-reduction rule).
  for (int n = 0; n < 7; ++n) ledger_.allocate(n, n + 1, {12, 0, 0.0, false});
  const auto picked = ledger_.selectNodes(2, 14, 0, 0.0, false);
  ASSERT_EQ(picked.size(), 2u);
  for (int id : picked) EXPECT_LT(id, 7);
}

TEST_F(ResourceLedgerTest, FallsBackAcrossGroupsWhenNoGroupSuffices) {
  // Two partially-loaded nodes with different idle counts plus one idle
  // node: a 3-node request fits in no single group, so the idlest three
  // nodes cluster-wide are combined.
  for (int n = 0; n < 6; ++n) ledger_.allocate(n, n + 1, {28, 0, 0.0, false});
  ledger_.allocate(6, 7, {8, 0, 0.0, false});
  // Groups now: {0: nodes 0-5}, {20: node 6}, {28: node 7}.
  const auto picked = ledger_.selectNodes(2, 14, 0, 0.0, false);
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_TRUE(std::find(picked.begin(), picked.end(), 6) != picked.end());
  EXPECT_TRUE(std::find(picked.begin(), picked.end(), 7) != picked.end());
}

TEST_F(ResourceLedgerTest, BandwidthTotalIsExactInAnyEventOrder) {
  // (0.1 + 0.2) - 0.1 is not 0.2 in doubles; the total's units cancel.
  const auto units = [](double gbps) { return ResourceLedger::bwUnits(gbps); };
  ledger_.allocate(0, 1, {1, 0, 0.1, false});
  ledger_.allocate(0, 2, {1, 0, 0.2, false});
  const std::vector<int> span = {1, 2, 3};
  ledger_.allocate(span, 3, {1, 0, 0.7, false});
  EXPECT_EQ(ledger_.cachedTotalBwUnits(), units(0.1) + units(0.2) + 3 * units(0.7));
  ledger_.release(0, 1);
  EXPECT_EQ(ledger_.cachedTotalBwUnits(), units(0.2) + 3 * units(0.7));
  ledger_.release(span, 3);
  EXPECT_EQ(ledger_.cachedTotalBwUnits(), units(0.2));
  ledger_.release(0, 2);
  EXPECT_EQ(ledger_.cachedTotalBwUnits(), 0);
  EXPECT_EQ(ledger_.meanBwOccupancy(), 0.0);
}

TEST_F(ResourceLedgerTest, BetaWeightsCacheOccupancy) {
  // Node 0: heavy LLC use, light cores; node 1: light LLC, same cores.
  ledger_.allocate(0, 1, {4, 16, 0.0, false});
  ledger_.allocate(1, 2, {4, 2, 0.0, false});
  // With beta = 2 the scorer should prefer node 1.
  const auto picked = ledger_.selectNodes(7, 2, 2, 0.0, false, 2.0);
  ASSERT_EQ(picked.size(), 7u);
  EXPECT_TRUE(std::find(picked.begin(), picked.end(), 0) == picked.end());
}

TEST_F(ResourceLedgerTest, ExclusiveSelectionOnlyIdleNodes) {
  ledger_.allocate(0, 1, {1, 0, 0.0, false});
  const auto picked = ledger_.selectNodes(7, 28, 0, 0.0, true);
  ASSERT_EQ(picked.size(), 7u);
  EXPECT_TRUE(std::find(picked.begin(), picked.end(), 0) == picked.end());
  EXPECT_TRUE(ledger_.selectNodes(8, 28, 0, 0.0, true).empty());
}

TEST_F(ResourceLedgerTest, FeasibleRespectsWaysAndBandwidth) {
  ledger_.allocate(0, 1, {4, 18, 0.0, false});
  const auto f = ledger_.feasibleNodes(4, 4, 0.0, false);
  EXPECT_EQ(f.size(), 7u);  // node 0 has only 2 free ways
  ledger_.allocate(1, 2, {4, 0, 110.0, false});
  const auto g = ledger_.feasibleNodes(4, 0, 20.0, false);
  EXPECT_EQ(g.size(), 7u);  // node 1 has ~8 GB/s left; node 0 still fits
}

TEST_F(ResourceLedgerTest, NodeIndexValidation) {
  EXPECT_THROW(ledger_.node(-1), util::PreconditionError);
  EXPECT_THROW(ledger_.node(8), util::PreconditionError);
  EXPECT_THROW(ResourceLedger(0, mach_), util::PreconditionError);
}

TEST_F(ResourceLedgerTest, DeterministicTieBreakByNodeId) {
  const auto picked = ledger_.selectNodes(3, 8, 4, 10.0, false);
  EXPECT_EQ(picked, (std::vector<int>{0, 1, 2}));
}

TEST_F(ResourceLedgerTest, AlignmentSelectionPrefersMatchingResidue) {
  // Node 0 has cores but no cache left; node 1 has cache but few cores.
  ledger_.allocate(0, 1, {2, 18, 0.0, false});
  ledger_.allocate(1, 2, {24, 2, 0.0, false});
  // A cache-hungry 2-core request aligns with node 1's residue.
  NodeAllocation cache_hungry{2, 2, 5.0, false, 0.0};
  const auto a = ledger_.selectNodesByAlignment(1, cache_hungry);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_NE(a[0], 0);  // node 0's 2 free ways score worst on the ways axis
  // A core-hungry, cache-light request ranks idle nodes first, node 1 last.
  NodeAllocation core_hungry{20, 2, 5.0, false, 0.0};
  const auto b = ledger_.selectNodesByAlignment(6, core_hungry);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_TRUE(std::find(b.begin(), b.end(), 1) == b.end());
}

TEST_F(ResourceLedgerTest, AlignmentSelectionHonorsFeasibility) {
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, 100 + n, {27, 0, 0.0, false});
  NodeAllocation req{2, 2, 0.0, false, 0.0};
  EXPECT_TRUE(ledger_.selectNodesByAlignment(1, req).empty());
  EXPECT_THROW(ledger_.selectNodesByAlignment(0, req), util::PreconditionError);
}

TEST(ResourceLedgerLarge, ScalesTo32kNodes) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger(32768, mach);
  EXPECT_EQ(ledger.idleNodeCount(), 32768);
  // Allocate a 4096-node exclusive job and verify bookkeeping stays fast
  // and correct.
  auto nodes = ledger.selectNodes(4096, 28, 0, 0.0, true);
  ASSERT_EQ(nodes.size(), 4096u);
  for (int nd : nodes) ledger.allocate(nd, 1, {28, 0, 0.0, true});
  EXPECT_EQ(ledger.idleNodeCount(), 32768 - 4096);
  auto more = ledger.selectNodes(28672, 28, 0, 0.0, true);
  EXPECT_EQ(more.size(), 28672u);
  for (int nd : nodes) ledger.release(nd, 1);
  EXPECT_EQ(ledger.idleNodeCount(), 32768);
}

}  // namespace
}  // namespace sns::actuator
