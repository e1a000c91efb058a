// Tests of network bandwidth as a third managed resource (§3.3 extension):
// NIC accounting in the ledger, NIC contention in the ground truth, and
// the SNS policy's optional network reservations.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "sns/app/library.hpp"
#include "sns/profile/demand.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"

namespace sns::sim {
namespace {

/// A synthetic network-hungry program: half its reference time is remote
/// communication once spread.
app::ProgramModel netHog() {
  app::ProgramModel p;
  p.name = "NET";
  p.framework = app::Framework::kMpi;
  p.solo_time_ref = 200.0;
  p.cpi_core = 0.8;
  p.mem_refs_per_instr = 0.002;
  p.mlp = 4.0;
  p.miss = {0.3, 0.05, 0.1, 1.5};
  p.comm = {app::CommPattern::kAllToAll, 0.45, 0.0, 0.0};
  return p;
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : lib_(app::programLibrary()) {
    lib_.push_back(netHog());
    for (auto& p : lib_) est_.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.0;
    profile::Profiler prof(est_, cfg);
    for (const auto& p : lib_) db_.put(prof.profileProgram(p, 16));
  }

  perfmodel::Estimator est_;
  std::vector<app::ProgramModel> lib_;
  profile::ProfileDatabase db_;
};

TEST_F(NetworkTest, LedgerTracksNicReservations) {
  actuator::ResourceLedger ledger(1, est_.machine());
  ledger.allocate(0, 1, {8, 0, 0.0, false, 4.0});
  EXPECT_NEAR(ledger.node(0).freeNetwork(), est_.machine().net_bw_gbps - 4.0, 1e-12);
  EXPECT_FALSE(ledger.node(0).fits({8, 0, 0.0, false, 3.5}));
  EXPECT_TRUE(ledger.node(0).fits({8, 0, 0.0, false, 2.5}));
  ledger.release(0, 1);
  EXPECT_NEAR(ledger.node(0).freeNetwork(), est_.machine().net_bw_gbps, 1e-12);
}

TEST_F(NetworkTest, ProfilerMeasuresNicDemand) {
  profile::ProfilerConfig cfg;
  cfg.pmu_noise = 0.0;
  profile::Profiler prof(est_, cfg);
  // Compact runs have no remote traffic; spread runs do.
  const auto k1 = prof.profileScale(app::findProgram(lib_, "NET"), 16, 1);
  EXPECT_DOUBLE_EQ(k1.net_gbps, 0.0);
  const auto k2 = prof.profileScale(app::findProgram(lib_, "NET"), 16, 2);
  EXPECT_GT(k2.net_gbps, 0.5);
  EXPECT_LE(k2.net_gbps, est_.machine().net_bw_gbps + 1e-9);
  // Demand estimation forwards the NIC reading.
  const auto d = profile::estimateDemand(k2, 0.9, est_.machine());
  EXPECT_DOUBLE_EQ(d.net_gbps, k2.net_gbps);
}

TEST_F(NetworkTest, NicContentionStretchesCommTime) {
  // A 32-process job must span both nodes of a 2-node cluster (16 cores
  // each); a 24-process companion only fits spread 2x (12 cores each).
  // Both then push remote traffic through the same two NICs, whose total
  // demand exceeds the 6.8 GB/s links.
  SimConfig cfg;
  cfg.nodes = 2;
  cfg.policy = sched::PolicyKind::kCS;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  const auto solo = sim.run({{"NET", 32, 0.9, 0.0, 1, 0.0}});
  ASSERT_EQ(solo.jobs[0].placement.nodeCount(), 2);

  const auto duo = sim.run(
      {{"NET", 32, 0.9, 0.0, 1, 0.0}, {"NET", 24, 0.9, 0.0, 1, 0.0}});
  ASSERT_EQ(duo.jobs[1].placement.nodeCount(), 2);
  ASSERT_LT(duo.jobs[1].start, duo.jobs[0].finish);  // genuinely co-ran
  EXPECT_GT(duo.jobs[0].runTime(), solo.jobs[0].runTime() * 1.03);
}

TEST_F(NetworkTest, NicContentionCoRunIsBitExact) {
  // The co-run above is the one configuration in the test matrix where a
  // node's NIC demand exceeds net_bw_gbps, so the rate derivation takes
  // the oversubscribed branch (net_over > 1) rather than its exact 1.0
  // shortcut. Pin its start/finish bits: any change to how net_over is
  // derived moves them.
  SimConfig cfg;
  cfg.nodes = 2;
  cfg.policy = sched::PolicyKind::kCS;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  const auto duo = sim.run(
      {{"NET", 32, 0.9, 0.0, 1, 0.0}, {"NET", 24, 0.9, 0.0, 1, 0.0}});
  ASSERT_EQ(duo.jobs.size(), 2u);
  const std::uint64_t expected[2][2] = {{0x0ull, 0x40863f5b55aa5bb5ull},
                                        {0x0ull, 0x408296c24c3be14eull}};
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& j = duo.jobs[i];
    EXPECT_EQ(std::bit_cast<std::uint64_t>(j.start), expected[i][0])
        << "job " << i << " start " << j.start << " bits 0x" << std::hex
        << std::bit_cast<std::uint64_t>(j.start);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(j.finish), expected[i][1])
        << "job " << i << " finish " << j.finish << " bits 0x" << std::hex
        << std::bit_cast<std::uint64_t>(j.finish);
  }
}

TEST_F(NetworkTest, ManagedNetworkAvoidsNicOversubscription) {
  // With network management on, SNS refuses to co-locate two NIC-saturating
  // jobs on the same nodes and serializes or separates them instead.
  SimConfig managed;
  managed.nodes = 4;
  managed.policy = sched::PolicyKind::kSNS;
  managed.sns.manage_network = true;
  ClusterSimulator sim(est_, lib_, db_, managed);
  const auto res = sim.run(
      {{"NET", 14, 0.9, 0.0, 1, 0.0}, {"NET", 14, 0.9, 0.0, 1, 0.0}});
  for (const auto& j : res.jobs) {
    EXPECT_TRUE(j.completed());
  }
  // Reservations must never oversubscribe a NIC: check pairwise overlap.
  const auto& a = res.jobs[0];
  const auto& b = res.jobs[1];
  const bool overlap = a.start < b.finish - 1e-9 && b.start < a.finish - 1e-9;
  if (overlap && a.placement.net_gbps + b.placement.net_gbps >
                     est_.machine().net_bw_gbps + 1e-9) {
    for (int na : a.placement.nodes) {
      for (int nb : b.placement.nodes) {
        EXPECT_NE(na, nb) << "NIC oversubscribed on node " << na;
      }
    }
  }
}

TEST_F(NetworkTest, UnmanagedPolicyReservesNoNetwork) {
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kSNS;
  ClusterSimulator sim(est_, lib_, db_, cfg);
  const auto res = sim.run({{"MG", 16, 0.9, 0.0, 1, 0.0}});
  EXPECT_DOUBLE_EQ(res.jobs[0].placement.net_gbps, 0.0);
}

TEST_F(NetworkTest, PaperWorkloadsBarelyTouchTheNic) {
  // The 12-program set is memory- not network-bound: even at 8x spread,
  // profiled NIC demand stays far below the 6.8 GB/s link.
  profile::ProfilerConfig cfg;
  cfg.pmu_noise = 0.0;
  profile::Profiler prof(est_, cfg);
  for (const auto& name : app::programNames()) {
    const auto& p = app::findProgram(lib_, name);
    if (!p.multi_node) continue;
    const auto sp = prof.profileScale(p, 16, 2);
    EXPECT_LT(sp.net_gbps, 3.0) << name;
  }
}

TEST_F(NetworkTest, ScaleProfileNetJsonRoundTrip) {
  profile::ScaleProfile sp;
  sp.scale_factor = 2;
  sp.nodes = 2;
  sp.procs_per_node = 8;
  sp.exclusive_time = 100.0;
  sp.net_gbps = 3.25;
  sp.ipc_llc = util::Curve({{2.0, 0.5}, {20.0, 1.0}});
  sp.bw_llc = util::Curve({{2.0, 50.0}, {20.0, 40.0}});
  const auto back = profile::ScaleProfile::fromJson(sp.toJson());
  EXPECT_DOUBLE_EQ(back.net_gbps, 3.25);
  // Legacy files without the field default to zero.
  auto j = sp.toJson();
  j.asObject().erase("net_gbps");
  EXPECT_DOUBLE_EQ(profile::ScaleProfile::fromJson(j).net_gbps, 0.0);
}

}  // namespace
}  // namespace sns::sim
