// Per-node accounting (NodeLedger, the ledger's by-value node view) on a
// one-node ResourceLedger: capacity, CAT constraints, way donation and the
// allocation lookup.
#include "sns/actuator/node_ledger.hpp"

#include <gtest/gtest.h>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/util/error.hpp"

namespace sns::actuator {
namespace {

class NodeLedgerTest : public ::testing::Test {
 protected:
  NodeLedger node() const { return ledger_.node(0); }
  void allocate(JobId job, const NodeAllocation& alloc) { ledger_.allocate(0, job, alloc); }
  void release(JobId job) { ledger_.release(0, job); }

  hw::MachineConfig mach_ = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger_{1, mach_};
};

TEST_F(NodeLedgerTest, FreshNodeIsIdle) {
  EXPECT_TRUE(node().idle());
  EXPECT_EQ(node().idleCores(), 28);
  EXPECT_EQ(node().freeWays(), 20);
  EXPECT_NEAR(node().freeBandwidth(), 118.26, 1e-9);
  EXPECT_EQ(node().jobCount(), 0);
  EXPECT_DOUBLE_EQ(node().score(2.0), 0.0);
}

TEST_F(NodeLedgerTest, AllocateDeductsResources) {
  allocate(1, {8, 4, 30.0, false});
  EXPECT_EQ(node().idleCores(), 20);
  EXPECT_EQ(node().freeWays(), 16);
  EXPECT_NEAR(node().freeBandwidth(), 88.26, 1e-9);
  EXPECT_EQ(node().jobCount(), 1);
  EXPECT_FALSE(node().idle());
}

TEST_F(NodeLedgerTest, ReleaseRestoresResources) {
  allocate(1, {8, 4, 30.0, false});
  release(1);
  EXPECT_TRUE(node().idle());
  EXPECT_EQ(node().freeWays(), 20);
  EXPECT_NEAR(node().freeBandwidth(), 118.26, 1e-9);
}

TEST_F(NodeLedgerTest, FitsChecksEveryDimension) {
  allocate(1, {20, 10, 60.0, false});
  EXPECT_TRUE(node().fits(8, 10, 58.0, false));
  EXPECT_FALSE(node().fits(9, 2, 1.0, false));     // cores exhausted
  EXPECT_FALSE(node().fits(4, 11, 1.0, false));    // ways exhausted
  EXPECT_FALSE(node().fits(4, 2, 60.0, false));    // bandwidth exhausted
}

TEST_F(NodeLedgerTest, ExclusiveBlocksAndIsBlocked) {
  allocate(1, {4, 0, 0.0, false});
  EXPECT_FALSE(node().fits(4, 0, 0.0, true));  // busy node refuses exclusive
  release(1);
  allocate(2, {16, 0, 0.0, true});
  EXPECT_TRUE(node().hasExclusiveJob());
  EXPECT_FALSE(node().fits(1, 0, 0.0, false));  // exclusive blocks everyone
  release(2);
  EXPECT_FALSE(node().hasExclusiveJob());
  EXPECT_TRUE(node().fits(28, 20, 118.0, false));
}

TEST_F(NodeLedgerTest, PartitionCountLimit) {
  // 16 CAT partitions max (§5.1); the 17th partitioned job must not fit,
  // even with cores to spare. Use 1-core jobs with the 2-way floor... 16
  // jobs x 2 ways = 32 > 20 ways, so way capacity binds first; check that.
  for (JobId j = 0; j < 10; ++j) allocate(j, {1, 2, 0.0, false});
  EXPECT_FALSE(node().fits(1, 2, 0.0, false));  // 20 ways exhausted
  EXPECT_TRUE(node().fits(1, 0, 0.0, false));   // unpartitioned still fits
}

TEST_F(NodeLedgerTest, PartitionLimitBindsForUnpartitionedMix) {
  hw::MachineConfig small = mach_;
  small.max_llc_partitions = 3;
  ResourceLedger ledger(1, small);
  ledger.allocate(0, 0, {1, 2, 0.0, false});
  ledger.allocate(0, 1, {1, 2, 0.0, false});
  ledger.allocate(0, 2, {1, 2, 0.0, false});
  EXPECT_FALSE(ledger.node(0).fits(1, 2, 0.0, false));  // partition limit reached
  EXPECT_TRUE(ledger.node(0).fits(1, 0, 0.0, false));   // sharing the rest is fine
}

TEST_F(NodeLedgerTest, MinWaysEnforced) {
  EXPECT_THROW(allocate(1, {4, 1, 0.0, false}), util::PreconditionError);
  EXPECT_NO_THROW(allocate(1, {4, 2, 0.0, false}));
}

TEST_F(NodeLedgerTest, DoubleAllocationRejected) {
  allocate(1, {4, 0, 0.0, false});
  EXPECT_THROW(allocate(1, {4, 0, 0.0, false}), util::PreconditionError);
}

TEST_F(NodeLedgerTest, ReleaseUnknownJobRejected) {
  EXPECT_THROW(release(99), util::PreconditionError);
}

TEST_F(NodeLedgerTest, OccupancyFractions) {
  allocate(1, {14, 10, 59.13, false});
  EXPECT_DOUBLE_EQ(node().coreOccupancy(), 0.5);
  EXPECT_DOUBLE_EQ(node().wayOccupancy(), 0.5);
  EXPECT_NEAR(node().bwOccupancy(), 0.5, 1e-4);
  // score = Co + Bo + beta*Wo with beta = 2 -> 0.5 + 0.5 + 1.0 = 2.0
  EXPECT_NEAR(node().score(2.0), 2.0, 1e-3);
}

TEST_F(NodeLedgerTest, DonatedWaysSplitEqually) {
  // Two jobs with 4 + 6 allocated ways leave 10 free: each enjoys +5.
  allocate(1, {8, 4, 0.0, false});
  allocate(2, {8, 6, 0.0, false});
  EXPECT_DOUBLE_EQ(node().effectiveWays(1), 9.0);
  EXPECT_DOUBLE_EQ(node().effectiveWays(2), 11.0);
}

TEST_F(NodeLedgerTest, DonationReclaimedOnNewArrival) {
  allocate(1, {8, 4, 0.0, false});
  EXPECT_DOUBLE_EQ(node().effectiveWays(1), 20.0);  // all free ways donated
  allocate(2, {8, 10, 0.0, false});
  EXPECT_DOUBLE_EQ(node().effectiveWays(1), 7.0);  // 4 + 6/2
  EXPECT_DOUBLE_EQ(node().effectiveWays(2), 13.0);
}

TEST_F(NodeLedgerTest, UnpartitionedJobsShareEverything) {
  allocate(1, {8, 0, 0.0, false});
  EXPECT_DOUBLE_EQ(node().effectiveWays(1), 0.0);  // 0 = free-for-all marker
}

TEST_F(NodeLedgerTest, AllocationLookup) {
  allocate(7, {5, 4, 12.0, false});
  EXPECT_TRUE(node().holds(7));
  const auto& a = node().allocation(7);
  EXPECT_EQ(a.cores, 5);
  EXPECT_EQ(a.ways, 4);
  EXPECT_THROW(node().allocation(8), util::PreconditionError);
}

}  // namespace
}  // namespace sns::actuator
