// sns::xray must observe the decision path, never feed it: attaching the
// tracer (any sampling mode, provenance on or off, records retained or
// not) must leave simulation results bit-for-bit identical to a run with
// no tracer. Exact double comparisons, no tolerances — same contract as
// the simulator-path equivalence suite.
#include <gtest/gtest.h>

#include <vector>

#include "sns/app/library.hpp"
#include "sns/app/workload_gen.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/xray/span.hpp"

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
// the attempt that recorded the entry, so the store is byte-identical to
// the one the per-dispatch path records (an event sink turns the memo
// off), exploration trials included, and the schedule is unchanged.
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
    SCOPED_TRACE(online ? "online profiling" : "full profiles");
    const profile::ProfileDatabase& db = online ? partial : f.db;
    SimConfig cfg;
    cfg.nodes = 8;
    cfg.policy = policy;
    cfg.online_profiling = online;
    const auto run = [&](xray::Tracer& tracer, obs::EventSink* sink,
                         obs::Registry& metrics) {
      SimConfig c = cfg;
      c.xray = &tracer;
      c.sink = sink;
      c.metrics = &metrics;
      ClusterSimulator sim(f.est, f.lib, db, c);
      return sim.run(seq);
    };
    xray::Tracer memo_tracer;
    obs::Registry memo_metrics;
    const SimResult memo = run(memo_tracer, nullptr, memo_metrics);
    xray::Tracer ref_tracer;
    obs::RingBufferLog log;
    obs::Registry ref_metrics;
    const SimResult ref = run(ref_tracer, &log, ref_metrics);

    expectIdentical(memo, ref);
    EXPECT_EQ(memo_tracer.provenance()->toJson().dump(),
              ref_tracer.provenance()->toJson().dump());
    // The memo answered attempts in one run and none in the other.
    EXPECT_GT(memo_metrics.counter("sim.spec_skips").value(), 0.0);
    EXPECT_EQ(ref_metrics.counter("sim.spec_skips").value(), 0.0);
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
