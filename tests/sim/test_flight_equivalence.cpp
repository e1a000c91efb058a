// sns::flight must observe the simulation, never feed it: attaching the
// interference flight recorder must leave simulation results bit-for-bit
// identical to a run without it (exact double comparisons, no tolerances —
// same contract as the xray and simulator-path equivalence suites). The
// recorder's own output must in turn be deterministic: byte-identical
// dumps across repeated runs and with other observers attached, and the
// reconciliation invariant must hold on every run the auditor replays.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/audit/audit.hpp"
#include "sns/flight/flight.hpp"
#include "sns/obs/sink.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"

namespace sns::sim {
namespace {

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

void expectIdentical(const SimResult& a, const SimResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.busy_node_seconds, b.busy_node_seconds);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t i = 0; i < a.jobs.size(); ++i) {
    const JobRecord& ja = a.jobs[i];
    const JobRecord& jb = b.jobs[i];
    EXPECT_EQ(ja.id, jb.id);
    EXPECT_EQ(ja.submit, jb.submit);
    EXPECT_EQ(ja.start, jb.start) << "job " << ja.id;
    EXPECT_EQ(ja.finish, jb.finish) << "job " << ja.id;
    EXPECT_EQ(ja.placement.nodes, jb.placement.nodes) << "job " << ja.id;
    EXPECT_EQ(ja.placement.procs_per_node, jb.placement.procs_per_node);
    EXPECT_EQ(ja.placement.scale_factor, jb.placement.scale_factor);
    EXPECT_EQ(ja.placement.ways, jb.placement.ways);
    EXPECT_EQ(ja.placement.bw_gbps, jb.placement.bw_gbps);
    EXPECT_EQ(ja.placement.net_gbps, jb.placement.net_gbps);
    EXPECT_EQ(ja.placement.exclusive, jb.placement.exclusive);
  }
  ASSERT_EQ(a.node_bw_episodes.size(), b.node_bw_episodes.size());
  for (std::size_t n = 0; n < a.node_bw_episodes.size(); ++n) {
    EXPECT_EQ(a.node_bw_episodes[n], b.node_bw_episodes[n]) << "node " << n;
  }
}

SimResult runWith(const Fixture& f, SimConfig cfg,
                  const std::vector<app::JobSpec>& seq,
                  flight::FlightRecorder* fr) {
  cfg.flight = fr;
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  return sim.run(seq);
}

class FlightEquivalence
    : public ::testing::TestWithParam<std::tuple<sched::PolicyKind, std::uint64_t>> {
};

TEST_P(FlightEquivalence, RecorderOnOffBitIdentical) {
  auto& f = fixture();
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed);
  const auto seq = app::randomSequence(rng, f.lib, 16, 0.9);

  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = policy;
  cfg.monitor_episode_s = 30.0;

  const SimResult off = runWith(f, cfg, seq, nullptr);
  flight::FlightRecorder fr;
  expectIdentical(runWith(f, cfg, seq, &fr), off);
  EXPECT_TRUE(fr.runComplete());
  EXPECT_EQ(fr.census().finished, off.jobs.size());
}

// The recorder's dump is the determinism contract for `uberun why-slow`
// and the degradation census: identical runs must produce byte-identical
// interval stores and rollups, and an event sink, which is shown memo hits
// and skipped passes as replays, must leave the recorded ledgers
// byte-identical too.
TEST_P(FlightEquivalence, DumpByteIdenticalAcrossRunsAndOptFlags) {
  auto& f = fixture();
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed + 41);
  const auto seq = app::randomSequence(rng, f.lib, 12, 0.9);

  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = policy;
  cfg.monitor_episode_s = 0.0;

  flight::FlightRecorder ref_fr;
  const SimResult ref = runWith(f, cfg, seq, &ref_fr);
  const std::string ref_dump = ref_fr.toJson().dump();

  {
    flight::FlightRecorder again;
    expectIdentical(runWith(f, cfg, seq, &again), ref);
    EXPECT_EQ(again.toJson().dump(), ref_dump) << "repeat run diverged";
  }

  {
    // An event sink alongside the recorder.
    obs::RingBufferLog log;
    SimConfig one = cfg;
    one.sink = &log;
    flight::FlightRecorder fr;
    expectIdentical(runWith(f, one, seq, &fr), ref);
    EXPECT_EQ(fr.toJson().dump(), ref_dump) << "event sink diverged";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, FlightEquivalence,
    ::testing::Combine(::testing::Values(sched::PolicyKind::kCE,
                                         sched::PolicyKind::kCS,
                                         sched::PolicyKind::kSNS),
                       ::testing::Values(5u, 6u)));

// End-to-end reconciliation: with both the auditor and the recorder
// attached, run() itself replays the flight ledger (auditFlightLedger is
// a post-run hook, active even in SNS_AUDIT=OFF builds) — a clean run
// must produce zero violations, and every finished job's attributed
// slowdown must sum to actual - solo within the auditor's tolerance.
TEST(FlightEquivalence, AuditorReconcilesLedgerOnFullRun) {
  auto& f = fixture();
  util::Rng rng(77);
  const auto seq = app::randomSequence(rng, f.lib, 16, 0.9);

  audit::Auditor auditor;
  flight::FlightRecorder fr;
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.auditor = &auditor;
  const SimResult res = runWith(f, cfg, seq, &fr);
  EXPECT_TRUE(auditor.ok()) << auditor.report();

  // Cross-check against the simulator's own records: per-job coverage and
  // reconciliation, bit-exact endpoints included.
  for (const JobRecord& j : res.jobs) {
    if (!j.completed()) continue;
    const flight::JobRollup* jr = fr.find(j.id);
    ASSERT_NE(jr, nullptr);
    EXPECT_EQ(jr->start, j.start);
    EXPECT_EQ(jr->finish, j.finish);
    EXPECT_EQ(jr->first_open, j.start);
    const double scale = std::max(1.0, jr->actual);
    EXPECT_LE(std::abs(jr->closure), 1e-6 * scale) << "job " << j.id;
  }

  // A mangled ledger must be caught.
  fr.debugCorruptJob(res.jobs.front().id);
  audit::Auditor fresh;
  EXPECT_GT(fresh.auditFlightLedger(fr), 0u);
  EXPECT_FALSE(fresh.ok());
}

}  // namespace
}  // namespace sns::sim
