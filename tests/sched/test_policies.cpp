#include "sns/sched/policies.hpp"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/util/error.hpp"

namespace sns::sched {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  PolicyTest() : lib_(app::programLibrary()), ledger_(8, est_.machine()) {
    for (auto& p : lib_) est_.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.0;
    profile::Profiler prof(est_, cfg);
    for (const auto& p : lib_) db_.put(prof.profileProgram(p, 16));
  }

  Job makeJob(const std::string& prog, int procs, JobId id = 1) {
    Job j;
    j.id = id;
    j.spec.program = prog;
    j.spec.procs = procs;
    j.spec.alpha = 0.9;
    j.program = &app::findProgram(lib_, prog);
    return j;
  }

  void apply(const Placement& p, JobId id) {
    for (int nd : p.nodes) ledger_.allocate(nd, id, p.nodeAllocation());
  }

  perfmodel::Estimator est_;
  std::vector<app::ProgramModel> lib_;
  profile::ProfileDatabase db_;
  actuator::ResourceLedger ledger_;
};

TEST_F(PolicyTest, CePlacesCompactExclusive) {
  CePolicy ce(est_);
  const auto p = ce.tryPlace(makeJob("MG", 16), ledger_, db_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodeCount(), 1);
  EXPECT_EQ(p->procs_per_node, 16);
  EXPECT_EQ(p->scale_factor, 1);
  EXPECT_TRUE(p->exclusive);
}

TEST_F(PolicyTest, CeTwoNodeJob) {
  CePolicy ce(est_);
  const auto p = ce.tryPlace(makeJob("WC", 32), ledger_, db_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->nodeCount(), 2);
  EXPECT_EQ(p->procs_per_node, 16);  // paper Fig 8: 32 procs over 2 nodes
}

TEST_F(PolicyTest, CeNeedsFullyIdleNodes) {
  CePolicy ce(est_);
  // A tiny shared job on every node blocks all exclusive placements.
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, 100 + n, {1, 0, 0.0, false});
  EXPECT_FALSE(ce.tryPlace(makeJob("MG", 16), ledger_, db_).has_value());
}

TEST_F(PolicyTest, CeWastesIdleCores) {
  CePolicy ce(est_);
  const auto first = ce.tryPlace(makeJob("HC", 16, 1), ledger_, db_);
  ASSERT_TRUE(first.has_value());
  apply(*first, 1);
  // 12 cores idle on that node, but CE cannot use them for another job.
  const auto second = ce.tryPlace(makeJob("HC", 16, 2), ledger_, db_);
  ASSERT_TRUE(second.has_value());
  EXPECT_NE(second->nodes[0], first->nodes[0]);
}

TEST_F(PolicyTest, CsFillsIdleCoresWhereCeCannot) {
  CsPolicy cs(est_);
  CePolicy ce(est_);
  // Fill all 8 nodes with 16-core jobs (12 idle cores each). CE has no
  // fully idle node left; CS harvests the leftovers by spreading 2x.
  for (int n = 0; n < 8; ++n) {
    const auto p = cs.tryPlace(makeJob("HC", 16, 10 + n), ledger_, db_);
    ASSERT_TRUE(p.has_value());
    apply(*p, 10 + n);
  }
  EXPECT_FALSE(ce.tryPlace(makeJob("WC", 16, 99), ledger_, db_).has_value());
  const auto second = cs.tryPlace(makeJob("WC", 16, 99), ledger_, db_);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->scale_factor, 2);
  EXPECT_EQ(second->procs_per_node, 8);
}

TEST_F(PolicyTest, CsPrefersCompact) {
  CsPolicy cs(est_);
  const auto p = cs.tryPlace(makeJob("MG", 16), ledger_, db_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->scale_factor, 1);
  EXPECT_FALSE(p->exclusive);
  EXPECT_EQ(p->ways, 0);  // no CAT partitioning under CS
}

TEST_F(PolicyTest, CsUsesLowestFeasibleScale) {
  CsPolicy cs(est_);
  // Fill 20 cores everywhere: a 16-proc job no longer fits compactly, but
  // spreads 2x onto two nodes with 8 cores each.
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, 100 + n, {20, 0, 0.0, false});
  const auto p = cs.tryPlace(makeJob("WC", 16), ledger_, db_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->scale_factor, 2);
  EXPECT_EQ(p->procs_per_node, 8);
}

TEST_F(PolicyTest, SnsSpreadsScalingJobToIdealScale) {
  SnsPolicy sns(est_);
  const auto p = sns.tryPlace(makeJob("MG", 16), ledger_, db_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->scale_factor, db_.find("MG", 16)->ideal_scale);
  EXPECT_EQ(p->nodeCount(), 8);
  EXPECT_EQ(p->procs_per_node, 2);
  EXPECT_GE(p->ways, est_.machine().min_ways_per_job);
  EXPECT_GT(p->bw_gbps, 0.0);
  EXPECT_FALSE(p->exclusive);
}

TEST_F(PolicyTest, SnsKeepsCompactJobCompact) {
  SnsPolicy sns(est_);
  const auto p = sns.tryPlace(makeJob("BFS", 16), ledger_, db_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->scale_factor, 1);
  EXPECT_EQ(p->nodeCount(), 1);
}

TEST_F(PolicyTest, SnsFallsBackToNextBestScale) {
  SnsPolicy sns(est_);
  // Take 4 nodes fully: MG's ideal 8-node spread is impossible; the next
  // best profiled scale (4 nodes) should win.
  for (int n = 0; n < 4; ++n) ledger_.allocate(n, 100 + n, {28, 0, 0.0, false});
  const auto p = sns.tryPlace(makeJob("MG", 16), ledger_, db_);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->scale_factor, 4);
  EXPECT_EQ(p->nodeCount(), 4);
}

TEST_F(PolicyTest, SnsUnprofiledProgramRunsExclusiveCompact) {
  SnsPolicy sns(est_);
  profile::ProfileDatabase empty;
  const auto p = sns.tryPlace(makeJob("MG", 16), ledger_, empty);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(p->exclusive);
  EXPECT_EQ(p->scale_factor, 1);
}

TEST_F(PolicyTest, SnsAdaptsScaleToWayAvailability) {
  SnsPolicy sns(est_);
  // Reserve 17 ways on every node, leaving 3. CG's preferred scale (2x)
  // demands far more ways per node; SNS must fall back to a thinner
  // spread whose per-node demand fits in the 3 remaining ways.
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, 100 + n, {2, 17, 0.0, false});
  const auto cg = sns.tryPlace(makeJob("CG", 16), ledger_, db_);
  ASSERT_TRUE(cg.has_value());
  EXPECT_GT(cg->scale_factor, 2);
  EXPECT_LE(cg->ways, 3);
  // MG (2-3 ways even when compact) also fits.
  const auto mg = sns.tryPlace(makeJob("MG", 16), ledger_, db_);
  EXPECT_TRUE(mg.has_value());
}

TEST_F(PolicyTest, SnsBlockedWhenNoWaysAnywhere) {
  SnsPolicy sns(est_);
  // 19 reserved ways leave 1 free — below the 2-way partition floor, so
  // nothing CAT-partitioned can start at any scale.
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, 100 + n, {2, 19, 0.0, false});
  EXPECT_FALSE(sns.tryPlace(makeJob("CG", 16), ledger_, db_).has_value());
  EXPECT_FALSE(sns.tryPlace(makeJob("MG", 16), ledger_, db_).has_value());
}

TEST_F(PolicyTest, SnsRespectsBandwidthBudget) {
  SnsPolicy sns(est_);
  // Reserve nearly all bandwidth everywhere; MG's per-node demand cannot
  // be met at any scale.
  for (int n = 0; n < 8; ++n) ledger_.allocate(n, 100 + n, {2, 2, 110.0, false});
  EXPECT_FALSE(sns.tryPlace(makeJob("MG", 16), ledger_, db_).has_value());
  // EP barely uses bandwidth and still fits.
  EXPECT_TRUE(sns.tryPlace(makeJob("EP", 16), ledger_, db_).has_value());
}

TEST_F(PolicyTest, SnsCoLocatesComplementaryJobs) {
  SnsPolicy sns(est_);
  const auto mg = sns.tryPlace(makeJob("MG", 16, 1), ledger_, db_);
  ASSERT_TRUE(mg.has_value());
  apply(*mg, 1);
  // MG took few ways on all 8 nodes; a cache-hungry but bandwidth-light
  // job can share those nodes.
  const auto nw = sns.tryPlace(makeJob("NW", 16, 2), ledger_, db_);
  ASSERT_TRUE(nw.has_value());
  EXPECT_FALSE(nw->nodes.empty());
}

TEST_F(PolicyTest, SnsDemandMemoFollowsTheDatabaseNotItsAddress) {
  // Guards the placement-plan memo, which is dropped when the database
  // generation moves. Two databases built one after the other at the same
  // address, with the same number of puts, recycle the freed profile
  // storage too; only the process-unique generation tells them apart. The
  // second holds MG's profile with its bandwidth curves halved (same scale
  // order, so the same plan steps), and a stale plan would place it with
  // the first one's estimated demand.
  SnsPolicy sns(est_);
  const Job job = makeJob("MG", 16);
  std::vector<Placement> placed;
  for (double bw_factor : {1.0, 0.5}) {
    profile::ProgramProfile prof = *db_.find("MG", 16);
    for (auto& sp : prof.scales) {
      sp.bw_llc = sp.bw_llc.mapY([bw_factor](double y) { return y * bw_factor; });
    }
    profile::ProfileDatabase db;
    db.put(prof);
    const auto got = sns.tryPlace(job, ledger_, db);
    const auto want = SnsPolicy(est_).tryPlace(job, ledger_, db);
    ASSERT_TRUE(got.has_value() && want.has_value()) << bw_factor;
    EXPECT_EQ(got->nodes, want->nodes) << bw_factor;
    EXPECT_EQ(got->scale_factor, want->scale_factor) << bw_factor;
    EXPECT_EQ(got->procs_per_node, want->procs_per_node) << bw_factor;
    EXPECT_EQ(got->ways, want->ways) << bw_factor;
    EXPECT_EQ(got->bw_gbps, want->bw_gbps) << bw_factor;
    placed.push_back(*got);
  }
  // Same scale, different demand: the check has teeth.
  EXPECT_EQ(placed[0].scale_factor, placed[1].scale_factor);
  EXPECT_NE(placed[0].bw_gbps, placed[1].bw_gbps);
}

TEST_F(PolicyTest, PlacementPlanFollowsNodeCountAndDatabase) {
  // The per-spec placement plan is keyed on the cluster size and guarded
  // by the database generation. One policy serves 8-, 64- and 4,096-node
  // ledgers in turn and lives through a profile replaced in place; each
  // placement and each provenance walk must match a fresh policy's.
  // MG@128 needs 5/10/20/40 nodes at 1x/2x/4x/8x: only 1x fits 8 nodes.
  // MG@64 profiled at 1x and 2x only (3 and 6 nodes) finishes exploring on
  // 8 nodes (the 4x trial needs 12) but trials 4x on larger clusters.
  // GAN is single-node; giving it MG's multi-node scales makes its walk
  // skip them as unsupported. EP@32 is unprofiled (a 1x trial).
  profile::ProfilerConfig cfg;
  cfg.pmu_noise = 0.0;
  profile::Profiler profiler(est_, cfg);
  profile::ProfileDatabase db = db_;
  const profile::ProgramProfile mg128 =
      profiler.profileProgram(app::findProgram(lib_, "MG"), 128);
  ASSERT_GT(mg128.scales.size(), 1u);
  db.put(mg128);
  profile::ProgramProfile mg64 =
      profiler.profileProgram(app::findProgram(lib_, "MG"), 64);
  ASSERT_NE(mg64.at(2), nullptr);
  mg64.scales.resize(2);
  db.put(mg64);
  profile::ProgramProfile gan = *db_.find("MG", 16);
  gan.program = "GAN";
  ASSERT_GT(gan.scales.size(), 1u);
  db.put(gan);

  const std::vector<Job> jobs = {makeJob("MG", 128), makeJob("MG", 64),
                                 makeJob("GAN", 16), makeJob("EP", 32),
                                 makeJob("MG", 16)};
  std::vector<std::unique_ptr<actuator::ResourceLedger>> ledgers;
  for (int nodes : {8, 64, 4096}) {
    ledgers.push_back(
        std::make_unique<actuator::ResourceLedger>(nodes, est_.machine()));
  }

  SnsPolicy shared(est_);
  xray::Tracer shared_tracer;
  shared.attachXray(&shared_tracer);
  std::map<xray::RejectReason, int> reasons;
  JobId next_id = 1;
  actuator::JobId next_alloc = 1000;
  for (int round = 0; round < 4; ++round) {
    if (round == 2) {
      // Replace MG@128 in place (the database keeps its address) with its
      // bandwidth curves halved: the plan must follow the new demand.
      profile::ProgramProfile halved = mg128;
      for (auto& sp : halved.scales) {
        sp.bw_llc = sp.bw_llc.mapY([](double y) { return y * 0.5; });
      }
      const auto* before = db.find("MG", 128);
      db.put(halved);
      ASSERT_EQ(db.find("MG", 128), before);
    }
    for (auto& ledger : ledgers) {
      for (Job job : jobs) {
        // A fresh id per attempt: each store opens a fresh record.
        job.id = next_id++;
        SCOPED_TRACE("round " + std::to_string(round) + ", " +
                     std::to_string(ledger->nodeCount()) + " nodes, " +
                     job.spec.program + "@" + std::to_string(job.spec.procs));
        SnsPolicy fresh(est_);
        xray::Tracer fresh_tracer;
        fresh.attachXray(&fresh_tracer);
        const auto want = fresh.tryPlace(job, *ledger, db);
        const auto got = shared.tryPlace(job, *ledger, db);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (got.has_value()) {
          EXPECT_EQ(got->nodes, want->nodes);
          EXPECT_EQ(got->scale_factor, want->scale_factor);
          EXPECT_EQ(got->procs_per_node, want->procs_per_node);
          EXPECT_EQ(got->ways, want->ways);
          EXPECT_EQ(got->bw_gbps, want->bw_gbps);
          EXPECT_EQ(got->net_gbps, want->net_gbps);
          EXPECT_EQ(got->exclusive, want->exclusive);
        }
        const xray::DecisionRecord& g = shared_tracer.provenance()->record(job.id);
        const xray::DecisionRecord& w = fresh_tracer.provenance()->record(job.id);
        EXPECT_EQ(g.exploration, w.exploration);
        ASSERT_EQ(g.walk.size(), w.walk.size());
        for (std::size_t i = 0; i < w.walk.size(); ++i) {
          EXPECT_EQ(g.walk[i].scale, w.walk[i].scale) << i;
          EXPECT_EQ(g.walk[i].nodes, w.walk[i].nodes) << i;
          EXPECT_EQ(g.walk[i].cores, w.walk[i].cores) << i;
          EXPECT_EQ(g.walk[i].ways, w.walk[i].ways) << i;
          EXPECT_EQ(g.walk[i].bw_gbps, w.walk[i].bw_gbps) << i;
          EXPECT_EQ(g.walk[i].reason, w.walk[i].reason) << i;
          ++reasons[w.walk[i].reason];
        }
        // Load the ledger with every other placement, so later rounds
        // also walk past scales the ledger rejects.
        if (got.has_value() && (next_alloc++ % 2) == 0) {
          ledger->allocate(got->nodes, next_alloc, got->nodeAllocation());
        }
      }
    }
  }
  EXPECT_GT(reasons[xray::RejectReason::kMultiNodeUnsupported], 0);
  EXPECT_GT(reasons[xray::RejectReason::kClusterTooSmall], 0);
  EXPECT_GT(reasons[xray::RejectReason::kInsufficientResources], 0);
}

TEST_F(PolicyTest, SingleNodeProgramsNeverSpread) {
  SnsPolicy sns(est_);
  CsPolicy cs(est_);
  const auto p1 = sns.tryPlace(makeJob("GAN", 16), ledger_, db_);
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->nodeCount(), 1);
  const auto p2 = cs.tryPlace(makeJob("GAN", 16), ledger_, db_);
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->nodeCount(), 1);
}

TEST_F(PolicyTest, FactoryProducesAllPolicies) {
  EXPECT_EQ(makePolicy(PolicyKind::kCE, est_)->name(), "CE");
  EXPECT_EQ(makePolicy(PolicyKind::kCS, est_)->name(), "CS");
  EXPECT_EQ(makePolicy(PolicyKind::kSNS, est_)->name(), "SNS");
  EXPECT_EQ(to_string(PolicyKind::kCE), "CE");
  EXPECT_EQ(to_string(PolicyKind::kCS), "CS");
  EXPECT_EQ(to_string(PolicyKind::kSNS), "SNS");
}

TEST_F(PolicyTest, JobLargerThanClusterRejected) {
  CePolicy ce(est_);
  EXPECT_THROW(ce.tryPlace(makeJob("WC", 28 * 9), ledger_, db_),
               util::PreconditionError);
}

}  // namespace
}  // namespace sns::sched
