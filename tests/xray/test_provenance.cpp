// sns::xray::ProvenanceStore tests: record bookkeeping, the latest-attempt
// walk semantics, candidate capping, and — through the full simulator —
// byte-identical provenance across reruns and instances for every policy.
#include <gtest/gtest.h>

#include <vector>

#include "sns/app/library.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/util/error.hpp"
#include "sns/xray/provenance.hpp"
#include "sns/xray/span.hpp"

namespace sns::xray {
namespace {

TEST(Provenance, RecordsAttemptWalkAndDecision) {
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
  std::vector<ScoredNode> scored = {{1, 0.25, 0.1, 0.2, 0.05},
                                    {4, 0.40, 0.2, 0.3, 0.10}};
  store.decide(3, 120.0, 2, 5, 8, 3.5, false, scored, 2);
  store.noteSolverDelta(3, 10, 7);

  EXPECT_TRUE(store.has(3));
  EXPECT_FALSE(store.has(2));   // id gap: never attempted
  EXPECT_FALSE(store.has(99));  // out of range
  const DecisionRecord& r = store.record(3);
  EXPECT_EQ(r.program, "MG");
  EXPECT_DOUBLE_EQ(r.first_seen, 100.0);
  EXPECT_DOUBLE_EQ(r.decided, 120.0);
  EXPECT_EQ(r.attempts_total, 1u);
  EXPECT_TRUE(r.placed);
  EXPECT_FALSE(r.exclusive);
  ASSERT_EQ(r.walk.size(), 2u);
  EXPECT_EQ(r.walk[0].reason, RejectReason::kInsufficientResources);
  EXPECT_EQ(r.walk[1].reason, RejectReason::kNone);
  ASSERT_EQ(r.chosen.size(), 2u);
  EXPECT_EQ(r.chosen[1].node, 4);
  EXPECT_EQ(r.chosen_total, 2);
  EXPECT_EQ(r.solver_lookups, 10u);
  EXPECT_EQ(r.solver_hits, 7u);

  EXPECT_THROW(store.record(2), util::PreconditionError);
}

TEST(Provenance, ReattemptKeepsFirstSeenAndClearsWalk) {
  ProvenanceStore store;
  store.beginAttempt(0, "NW", 16, 0.9, 1.0, 10.0);
  ScaleAttempt a;
  a.scale = 1;
  a.reason = RejectReason::kInsufficientResources;
  store.addAttempt(0, a);
  // Second tryPlace later: first_seen survives, the failed walk does not.
  store.beginAttempt(0, "NW", 16, 0.9, 1.0, 55.0);
  a.reason = RejectReason::kNone;
  store.addAttempt(0, a);
  const DecisionRecord& r = store.record(0);
  EXPECT_DOUBLE_EQ(r.first_seen, 10.0);
  EXPECT_EQ(r.attempts_total, 2u);
  ASSERT_EQ(r.walk.size(), 1u);
  EXPECT_EQ(r.walk[0].reason, RejectReason::kNone);
}

TEST(Provenance, ChosenNodesCappedButTotalKept) {
  ProvenanceStore store(2);
  store.beginAttempt(0, "MG", 64, 0.9, 1.0, 0.0);
  std::vector<ScoredNode> scored;
  for (int n = 0; n < 5; ++n) scored.push_back({n, 0.1 * n, 0, 0, 0});
  store.decide(0, 1.0, 4, 0, 16, 0.0, true, scored, 5);
  const DecisionRecord& r = store.record(0);
  EXPECT_EQ(r.chosen.size(), 2u);
  EXPECT_EQ(r.chosen_total, 5);
}

TEST(Provenance, ExplorationMarksTrial) {
  ProvenanceStore store;
  store.beginAttempt(1, "GAN", 16, 0.9, 1.0, 5.0);
  store.noteExploration(1, 2, false);
  EXPECT_TRUE(store.record(1).exploration);
  EXPECT_EQ(store.record(1).walk.back().reason,
            RejectReason::kNoIdleNodesForTrial);
}

TEST(Provenance, JsonSkipsGapsAndNamesReasons) {
  ProvenanceStore store;
  store.beginAttempt(2, "HC", 16, 0.9, 1.0, 1.0);
  ScaleAttempt a;
  a.scale = 1;
  a.reason = RejectReason::kClusterTooSmall;
  store.addAttempt(2, a);
  const std::string doc = store.toJson().dump(2);
  EXPECT_NE(doc.find("\"decisions\""), std::string::npos);
  EXPECT_NE(doc.find("cluster_too_small"), std::string::npos);
  // Only job 2 exists; the 0/1 gaps don't serialize.
  EXPECT_EQ(doc.find("\"job\": 0"), std::string::npos);
}

// ---- determinism through the simulator ------------------------------------

struct Fixture {
  Fixture() : lib(app::programLibrary()) {
    for (auto& p : lib) est.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.02;
    profile::Profiler prof(est, cfg, 7);
    for (const auto& p : lib) {
      db.put(prof.profileProgram(p, 16));
      if (!p.pow2_procs && p.multi_node) db.put(prof.profileProgram(p, 28));
    }
  }
  perfmodel::Estimator est;
  std::vector<app::ProgramModel> lib;
  profile::ProfileDatabase db;
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

std::string provenanceOf(const Fixture& f, sched::PolicyKind policy,
                         std::uint64_t seed) {
  util::Rng rng(seed);
  const auto seq = app::randomSequence(rng, f.lib, 14, 0.9);
  Tracer tracer;  // defaults: every pass, provenance on
  sim::SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = policy;
  cfg.xray = &tracer;
  sim::ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  const auto res = sim.run(seq);
  EXPECT_FALSE(res.jobs.empty());
  EXPECT_GT(tracer.provenance()->size(), 0u);
  return tracer.provenance()->toJson().dump(2);
}

class ProvenanceDeterminism
    : public ::testing::TestWithParam<sched::PolicyKind> {};

TEST_P(ProvenanceDeterminism, IdenticalAcrossRerunsAndSeedsDiffer) {
  auto& f = fixture();
  const auto policy = GetParam();
  for (std::uint64_t seed : {11u, 12u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::string first = provenanceOf(f, policy, seed);
    const std::string again = provenanceOf(f, policy, seed);
    EXPECT_EQ(first, again);  // byte-for-byte across fresh instances
  }
  // Different workloads leave different provenance (the store isn't inert).
  EXPECT_NE(provenanceOf(f, policy, 11u), provenanceOf(f, policy, 12u));
}

INSTANTIATE_TEST_SUITE_P(Policies, ProvenanceDeterminism,
                         ::testing::Values(sched::PolicyKind::kCE,
                                           sched::PolicyKind::kCS,
                                           sched::PolicyKind::kSNS));

// Every placed job must be explainable: a walk ending in an accepted (or
// exploration) step, a recorded shape, and chosen nodes for SNS.
TEST(ProvenanceDeterminism, PlacedJobsCarryWalkAndCandidates) {
  auto& f = fixture();
  util::Rng rng(21);
  const auto seq = app::randomSequence(rng, f.lib, 12, 0.9);
  Tracer tracer;
  sim::SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.xray = &tracer;
  sim::ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  const auto res = sim.run(seq);

  const ProvenanceStore* prov = tracer.provenance();
  for (const auto& j : res.jobs) {
    if (j.placement.nodes.empty()) continue;  // never placed
    ASSERT_TRUE(prov->has(j.id)) << "job " << j.id;
    const DecisionRecord& r = prov->record(j.id);
    EXPECT_TRUE(r.placed) << "job " << j.id;
    EXPECT_FALSE(r.walk.empty()) << "job " << j.id;
    EXPECT_GT(r.chosen_total, 0) << "job " << j.id;
    EXPECT_EQ(r.chosen_total, static_cast<int>(j.placement.nodes.size()));
    EXPECT_EQ(r.scale, j.placement.scale_factor) << "job " << j.id;
    EXPECT_GE(r.decided, r.first_seen) << "job " << j.id;
  }
}

}  // namespace
}  // namespace sns::xray
