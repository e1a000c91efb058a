// sns::xray must observe the decision path, never feed it: attaching the
// tracer (any sampling mode, provenance on or off, records retained or
// not) must leave simulation results bit-for-bit identical to a run with
// no tracer. Exact double comparisons, no tolerances — same contract as
// the simulator-path equivalence suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/app/workload_gen.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/xray/span.hpp"
#include "tests/support/digest.hpp"

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

SimResult runWith(const Fixture& f, sched::PolicyKind policy,
                  const std::vector<app::JobSpec>& seq,
                  xray::Tracer* tracer) {
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = policy;
  cfg.monitor_episode_s = 30.0;
  cfg.xray = tracer;
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  return sim.run(seq);
}

class XrayEquivalence
    : public ::testing::TestWithParam<std::tuple<sched::PolicyKind, std::uint64_t>> {
};

TEST_P(XrayEquivalence, TracerOnOffBitIdentical) {
  auto& f = fixture();
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed);
  const auto seq = app::randomSequence(rng, f.lib, 16, 0.9);

  const SimResult off = runWith(f, policy, seq, nullptr);

  // Every tracer mode: full tracing + provenance + records, sampled, and
  // provenance-only (the `uberun explain` configuration).
  xray::TracerConfig full;
  full.keep_records = true;
  xray::TracerConfig sampled;
  sampled.sample_period = 3;
  sampled.provenance = false;
  xray::TracerConfig prov_only;
  prov_only.sample_period = 1 << 30;
  const xray::TracerConfig modes[] = {full, sampled, prov_only};
  for (std::size_t m = 0; m < 3; ++m) {
    xray::Tracer tracer(modes[m]);
    SCOPED_TRACE("mode " + std::to_string(m));
    expectIdentical(runWith(f, policy, seq, &tracer), off);
    EXPECT_EQ(tracer.passes() > 0, true);
  }
}

// Provenance under the failed-spec memo: a memo hit replays the walk of
// the attempt that recorded the entry, and a skipped futile pass replays
// each job it would have visited, so the store (solver attribution aside)
// is byte-identical to the one a full tryPlace() walk on every visit
// records, exploration trials included. The digests were captured from
// such a per-visit engine; the schedule matches an unobserved run.
struct ProvenancePin {
  const char* cell;
  std::uint64_t digest;
};

constexpr ProvenancePin kProvenancePins[] = {
    {"CE/5/full", 0x236194fcab099974ull},   {"CE/5/online", 0x236194fcab099974ull},
    {"CE/6/full", 0xf2e520fb769704d8ull},   {"CE/6/online", 0xf2e520fb769704d8ull},
    {"CS/5/full", 0xc92ca5fb17b12a75ull},   {"CS/5/online", 0xc92ca5fb17b12a75ull},
    {"CS/6/full", 0xff2c534945eb3f8aull},   {"CS/6/online", 0xff2c534945eb3f8aull},
    {"SNS/5/full", 0xdab76928c26f43e4ull},  {"SNS/5/online", 0x58de33d2c34144cdull},
    {"SNS/6/full", 0xdd0f5626e118b1adull},  {"SNS/6/online", 0x232aa42198f994d4ull},
};

TEST_P(XrayEquivalence, ProvenanceUnderSpecMemoMatchesPerDispatch) {
  auto& f = fixture();
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed + 40);
  const auto seq = app::randomSequence(rng, f.lib, 24, 0.9);
  // Half the programs unprofiled: online profiling then walks exploration
  // trials, whose failures the memo answers too.
  profile::ProfileDatabase partial;
  for (std::size_t i = 0; i < f.lib.size(); i += 2) {
    if (const auto* prof = f.db.find(f.lib[i].name, 16)) partial.put(*prof);
  }
  for (const bool online : {false, true}) {
    const std::string cell = sched::to_string(policy) + "/" + std::to_string(seed) +
                             (online ? "/online" : "/full");
    SCOPED_TRACE(cell);
    const profile::ProfileDatabase& db = online ? partial : f.db;
    SimConfig cfg;
    cfg.nodes = 8;
    cfg.policy = policy;
    cfg.online_profiling = online;
    const SimResult plain = ClusterSimulator(f.est, f.lib, db, cfg).run(seq);

    xray::Tracer tracer;
    obs::Registry metrics;
    cfg.xray = &tracer;
    cfg.metrics = &metrics;
    const SimResult memo = ClusterSimulator(f.est, f.lib, db, cfg).run(seq);

    expectIdentical(memo, plain);
    const std::uint64_t got = testing::provenanceDigest(*tracer.provenance());
    const auto* pin = std::find_if(
        std::begin(kProvenancePins), std::end(kProvenancePins),
        [&](const ProvenancePin& p) { return cell == p.cell; });
    const std::uint64_t want = pin != std::end(kProvenancePins) ? pin->digest : 0;
    EXPECT_EQ(got, want) << "pin: {\"" << cell << "\", 0x" << std::hex << got
                         << "ull},";
    // The memo answered attempts.
    EXPECT_GT(metrics.counter("sim.spec_skips").value(), 0.0);
  }
}

// Solver attribution: the end-of-pass refresh credits each co-run group
// solve to the placement that first dirtied the node it is solved at, so
// per pass the placed jobs' attributed lookups sum to the solver calls of
// that pass's refresh (the solver_call spans inside its batch_refresh
// span), and solves after a finish are credited to no one.
TEST_P(XrayEquivalence, SolverAttributionSumsToEachPassRefresh) {
  auto& f = fixture();
  const auto [policy, seed] = GetParam();
  util::Rng rng(seed + 40);
  const auto seq = app::randomSequence(rng, f.lib, 24, 0.9);
  xray::TracerConfig tc;
  tc.keep_records = true;
  xray::Tracer tracer(tc);
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = policy;
  cfg.xray = &tracer;
  (void)ClusterSimulator(f.est, f.lib, f.db, cfg).run(seq);
  ASSERT_EQ(tracer.droppedSpans(), 0u);
  ASSERT_EQ(tracer.droppedRecords(), 0u);

  // Refresh solver calls per pass time, from the retained spans.
  std::map<double, std::uint64_t> refresh_calls;
  const auto& records = tracer.records();
  for (const xray::SpanRecord& br : records) {
    if (br.kind != xray::SpanKind::kBatchRefresh) continue;
    std::uint64_t& calls = refresh_calls[br.sim_time];
    for (const xray::SpanRecord& r : records) {
      calls += r.unit == br.unit && r.kind == xray::SpanKind::kSolverCall &&
               r.depth == br.depth + 1 && r.t0_ns >= br.t0_ns && r.t1_ns <= br.t1_ns;
    }
  }
  // Attributed lookups per decision time, from the provenance store.
  std::map<double, std::uint64_t> attributed;
  for (const xray::DecisionRecord& d : tracer.provenance()->records()) {
    if (d.attempts_total == 0) continue;
    EXPECT_LE(d.solver_hits, d.solver_lookups) << "job " << d.job;
    if (!d.placed) {
      EXPECT_EQ(d.solver_lookups, 0u) << "job " << d.job;
      continue;
    }
    attributed[d.decided] += d.solver_lookups;
  }
  ASSERT_FALSE(attributed.empty());
  for (auto& [t, calls] : refresh_calls) {
    EXPECT_EQ(attributed[t], calls) << "pass at t=" << t;
  }
  for (const auto& [t, lookups] : attributed) {
    EXPECT_EQ(refresh_calls[t], lookups) << "pass at t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, XrayEquivalence,
    ::testing::Combine(::testing::Values(sched::PolicyKind::kCE,
                                         sched::PolicyKind::kCS,
                                         sched::PolicyKind::kSNS),
                       ::testing::Values(5u, 6u)));

// The hotpath attribution must cover the decision path the simulator
// itself times: with every step traced, the decision span's mean tracks
// sim.decision_us (generous bound here — the tight 5% check runs at
// Fig-20 scale where per-pass noise averages out; see EXPERIMENTS.md).
TEST(XrayEquivalence, AttributedTimeTracksDecisionLatency) {
  auto& f = fixture();
  util::Rng rng(9);
  const auto seq = app::randomSequence(rng, f.lib, 16, 0.9);

  xray::Tracer tracer;
  obs::Registry metrics;
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.xray = &tracer;
  cfg.metrics = &metrics;
  ClusterSimulator sim(f.est, f.lib, f.db, cfg);
  const auto res = sim.run(seq);
  ASSERT_FALSE(res.jobs.empty());

  const obs::Histogram* dec = metrics.findHistogram("sim.decision_us");
  ASSERT_NE(dec, nullptr);
  ASSERT_GT(dec->count(), 0u);
  ASSERT_EQ(tracer.sampledPasses(), dec->count());

  const xray::Tracer::Stat& decision = tracer.stat(xray::SpanKind::kDecision);
  ASSERT_EQ(decision.calls, dec->count());
  const double attributed_us = static_cast<double>(decision.total_ns) / 1e3 /
                               static_cast<double>(decision.calls);
  const double measured_us = dec->mean();
  // The decision span opens right after the decision clock starts and
  // closes right before it stops, so it can neither exceed the measured
  // mean by much nor miss most of it.
  EXPECT_GT(attributed_us, 0.2 * measured_us);
  EXPECT_LT(attributed_us, 1.2 * measured_us);
}

}  // namespace
}  // namespace sns::sim
