// Reproduction tests for the paper's quantitative claims. Each test cites
// the figure/table it checks. We assert the *shape* — who wins, roughly by
// how much, where crossovers fall — not exact testbed numbers.
#include <gtest/gtest.h>

#include "sns/app/library.hpp"
#include "sns/app/workload_gen.hpp"
#include "sns/profile/demand.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/sim/metrics.hpp"
#include "sns/trace/generator.hpp"
#include "sns/trace/replay.hpp"
#include "sns/util/rng.hpp"
#include "sns/util/stats.hpp"

namespace sns {
namespace {

class PaperClaims : public ::testing::Test {
 protected:
  PaperClaims() : lib_(app::programLibrary()) {
    for (auto& p : lib_) est_.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.0;
    profile::Profiler prof(est_, cfg);
    for (const auto& p : lib_) db_.put(prof.profileProgram(p, 16));
    for (const char* n : {"WC", "TS", "NW", "HC", "BW"}) {
      db_.put(prof.profileProgram(app::findProgram(lib_, n), 28));
    }
  }

  sim::SimResult run(sched::PolicyKind kind, const std::vector<app::JobSpec>& seq) {
    sim::SimConfig cfg;
    cfg.nodes = 8;
    cfg.policy = kind;
    sim::ClusterSimulator sim(est_, lib_, db_, cfg);
    return sim.run(seq);
  }

  perfmodel::Estimator est_;
  std::vector<app::ProgramModel> lib_;
  profile::ProfileDatabase db_;
};

TEST_F(PaperClaims, Fig1MotivatingMix) {
  // MG (x5), 16 HC instances, TS — CE uses 3 nodes; SNS packs them onto 2
  // with MG and TS *faster* than exclusive and HC only slightly slower,
  // cutting node-seconds by roughly a third.
  // Submission order MG, TS, HC lets the neutral HC job fill the residual
  // cores on both nodes, reproducing the paper's layout.
  std::vector<app::JobSpec> seq = {{"MG", 16, 0.9, 0.0, 5, 0.0},
                                   {"TS", 16, 0.9, 0.0, 1, 0.0},
                                   {"HC", 16, 0.9, 0.0, 1, 0.0}};
  // The paper's demo compares CE on 3 nodes vs SNS on 2 nodes.
  sim::SimConfig ce_cfg;
  ce_cfg.nodes = 3;
  ce_cfg.policy = sched::PolicyKind::kCE;
  sim::ClusterSimulator ce_sim(est_, lib_, db_, ce_cfg);
  const auto ce = ce_sim.run(seq);

  sim::SimConfig sns_cfg;
  sns_cfg.nodes = 2;
  sns_cfg.policy = sched::PolicyKind::kSNS;
  sim::ClusterSimulator sns_sim(est_, lib_, db_, sns_cfg);
  const auto sns = sns_sim.run(seq);

  // CE: three exclusive single-node jobs.
  for (const auto& j : ce.jobs) EXPECT_EQ(j.placement.nodeCount(), 1);
  // SNS: everything coexists on the two nodes.
  for (const auto& j : sns.jobs) EXPECT_LE(j.placement.nodeCount(), 2);

  EXPECT_LT(sns.jobs[0].runTime(), ce.jobs[0].runTime());         // MG faster
  EXPECT_LT(sns.jobs[1].runTime(), ce.jobs[1].runTime() * 1.02);  // TS >= CE
  EXPECT_LT(sns.jobs[2].runTime(), ce.jobs[2].runTime() * 1.15);  // HC mild loss
  EXPECT_LT(sns.makespan, ce.makespan * 1.15);
  // Node-seconds drop substantially (paper: -34.58%).
  EXPECT_LT(sns.busy_node_seconds, ce.busy_node_seconds * 0.85);
}

TEST_F(PaperClaims, Fig12CacheSensitivityDiversity) {
  // Ways needed for 90% performance span the whole range: 2 (EP, HC),
  // ~3 (MG), mid (LU, BW, WC), high (CG, BFS, NW).
  const auto mach = est_.machine();
  std::map<std::string, int> w90;
  for (const auto& p : lib_) {
    const double full = 1.0 / est_.solo(p, 16, 1, 20).time;
    for (int w = 2; w <= 20; ++w) {
      if (1.0 / est_.solo(p, 16, 1, w).time >= 0.9 * full) {
        w90[p.name] = w;
        break;
      }
    }
  }
  EXPECT_EQ(w90["EP"], 2);
  EXPECT_EQ(w90["HC"], 2);
  EXPECT_LE(w90["MG"], 4);
  EXPECT_GE(w90["CG"], 9);
  EXPECT_GE(w90["BFS"], 9);
  EXPECT_GE(w90["NW"], 9);
  (void)mach;
}

TEST_F(PaperClaims, Fig13ScalingClassCensus) {
  // 5 scaling, 1 compact, the rest neutral — exactly the paper's split.
  int scaling = 0, compact = 0, neutral = 0;
  for (const auto& p : lib_) {
    const auto* prof = db_.find(p.name, 16);
    ASSERT_NE(prof, nullptr);
    switch (prof->cls) {
      case profile::ScalingClass::kScaling: ++scaling; break;
      case profile::ScalingClass::kCompact: ++compact; break;
      case profile::ScalingClass::kNeutral: ++neutral; break;
      default: FAIL();
    }
  }
  EXPECT_EQ(scaling, 5);
  EXPECT_EQ(compact, 1);
  EXPECT_EQ(neutral, 6);
}

TEST_F(PaperClaims, Fig14ThroughputImprovement) {
  // §6.2: CS improves throughput over CE (avg +13.7%), SNS more (+19.8%).
  util::Rng rng(2019);
  std::vector<double> cs_gain, sns_gain;
  for (int i = 0; i < 5; ++i) {
    const auto seq = app::randomSequence(rng, lib_, 20, 0.9);
    const auto ce = run(sched::PolicyKind::kCE, seq);
    const auto cs = run(sched::PolicyKind::kCS, seq);
    const auto sns = run(sched::PolicyKind::kSNS, seq);
    cs_gain.push_back(cs.throughput() / ce.throughput());
    sns_gain.push_back(sns.throughput() / ce.throughput());
  }
  EXPECT_GT(util::mean(cs_gain), 1.02);
  EXPECT_GT(util::mean(sns_gain), 1.08);
  EXPECT_GT(util::mean(sns_gain), util::mean(cs_gain));
}

TEST_F(PaperClaims, Fig16RunTimeDistribution) {
  // SNS keeps average normalized run time below CS's, and CS produces the
  // worst co-location outliers (paper: up to 3.5x slowdowns under CS).
  util::Rng rng(1337);
  double sns_avg_sum = 0.0, cs_avg_sum = 0.0, cs_worst = 0.0, sns_worst = 0.0;
  const int seqs = 4;
  for (int i = 0; i < seqs; ++i) {
    const auto seq = app::randomSequence(rng, lib_, 20, 0.9);
    const auto ce = run(sched::PolicyKind::kCE, seq);
    const auto cs = run(sched::PolicyKind::kCS, seq);
    const auto sns = run(sched::PolicyKind::kSNS, seq);
    sns_avg_sum += sim::geomeanRunTimeRatio(sns, ce);
    cs_avg_sum += sim::geomeanRunTimeRatio(cs, ce);
    cs_worst = std::max(cs_worst, util::maxOf(sim::runTimeRatios(cs, ce)));
    sns_worst = std::max(sns_worst, util::maxOf(sim::runTimeRatios(sns, ce)));
  }
  EXPECT_LT(sns_avg_sum / seqs, cs_avg_sum / seqs);
  // SNS's resource awareness avoids CS's worst-case blowups.
  EXPECT_LT(sns_worst, cs_worst + 0.5);
  // SNS average run time stays within the paper's 17.2%-over-CE envelope
  // (we allow a modest margin).
  EXPECT_LT(sns_avg_sum / seqs, 1.25);
}

TEST_F(PaperClaims, Fig17Fig18LoadBalanceSmoothing) {
  // SNS smooths per-node bandwidth: variance (stddev/peak) drops vs CE
  // (paper: 0.40 -> 0.25 for one sequence; we average several).
  util::Rng rng(17);
  const double peak = est_.machine().peakBandwidth();
  double ce_var = 0.0, sns_var = 0.0;
  const int seqs = 4;
  for (int i = 0; i < seqs; ++i) {
    const auto seq = app::randomSequence(rng, lib_, 20, 0.9);
    ce_var += sim::bandwidthVariance(run(sched::PolicyKind::kCE, seq), peak);
    sns_var += sim::bandwidthVariance(run(sched::PolicyKind::kSNS, seq), peak);
  }
  EXPECT_LT(sns_var / seqs, ce_var / seqs);
}

TEST_F(PaperClaims, Fig19ZeroScalingRatioConvergesToCe) {
  // "For the job sequence without any job benefiting from scaling, SNS
  // schedules all jobs with scale factor 1, converging with CE."
  auto ce_time = [&](const app::JobSpec& j) {
    return est_.soloCE(app::findProgram(lib_, j.program), j.procs, 1).time;
  };
  util::Rng rng(19);
  const auto seq = app::ratioControlledMix(rng, "BW", "HC", 12, 28, 0.0, ce_time);
  const auto ce = run(sched::PolicyKind::kCE, seq);
  const auto sns = run(sched::PolicyKind::kSNS, seq);
  EXPECT_NEAR(sns.meanTurnaround() / ce.meanTurnaround(), 1.0, 0.05);
}

TEST_F(PaperClaims, Fig19RunTimeFallsWithScalingRatio) {
  auto ce_time = [&](const app::JobSpec& j) {
    return est_.soloCE(app::findProgram(lib_, j.program), j.procs, 1).time;
  };
  util::Rng rng(20);
  double prev_run_ratio = 10.0;
  for (double ratio : {0.0, 0.5, 1.0}) {
    const auto seq =
        app::ratioControlledMix(rng, "BW", "HC", 12, 28, ratio, ce_time);
    const auto ce = run(sched::PolicyKind::kCE, seq);
    const auto sns = run(sched::PolicyKind::kSNS, seq);
    const double run_ratio = sns.meanRun() / ce.meanRun();
    EXPECT_LE(run_ratio, prev_run_ratio + 0.03) << "ratio " << ratio;
    prev_run_ratio = run_ratio;
  }
  EXPECT_LT(prev_run_ratio, 0.85);  // all-scaling mix runs much faster
}

TEST_F(PaperClaims, SlowdownViolationsExistButAreRare) {
  // §6.2: 136/720 executions violated the slowdown threshold (profiling
  // error + unenforced bandwidth). Violations should exist but stay a
  // minority under SNS.
  util::Rng rng(21);
  int violations = 0, total = 0;
  for (int i = 0; i < 4; ++i) {
    const auto seq = app::randomSequence(rng, lib_, 20, 0.9);
    const auto ce = run(sched::PolicyKind::kCE, seq);
    const auto sns = run(sched::PolicyKind::kSNS, seq);
    violations += sim::thresholdViolations(sns, ce, 0.9);
    total += static_cast<int>(seq.size());
  }
  EXPECT_LT(violations, total / 2);
}

TEST(PaperClaimsFig20, LargerClustersFavourSns) {
  // Fig 20: the 7,044-job Trinity-like trace replayed under CE and SNS,
  // with the profile database, trace seed and ratio mapping of
  // bench_fig20_trace_sim. Once the cluster is large enough that wait
  // vanishes (8K nodes and up) SNS's faster runs win at both scaling
  // ratios, more so at ratio 0.9 than 0.5; on the stampeded 4K cluster at
  // ratio 0.5 its faster runs shorten the wait enough to win as well.
  std::vector<app::ProgramModel> lib = app::programLibrary();
  perfmodel::Estimator est;
  for (auto& p : lib) est.calibrate(p);
  profile::ProfilerConfig pcfg;
  pcfg.pmu_noise = 0.02;
  profile::Profiler prof(est, pcfg, 0xBE7C4);
  profile::ProfileDatabase ref;
  for (const auto& p : lib) {
    ref.put(prof.profileProgram(p, 16));
    if (!p.pow2_procs && p.multi_node) ref.put(prof.profileProgram(p, 28));
  }
  for (const char* n : {"HC", "BW"}) ref.put(prof.profileProgram(app::findProgram(lib, n), 28));
  util::Rng trace_rng(0x7417177);
  const auto raw = trace::generateTrace(trace_rng, trace::TraceGenParams{});
  const auto gain = [&](double ratio, int nodes) {
    util::Rng map_rng(static_cast<std::uint64_t>(ratio * 1000));
    const auto jobs = trace::mapTraceToJobs(map_rng, raw, ratio, est.machine().cores);
    const auto db = trace::synthesizeTraceProfiles(ref, 16, jobs, est);
    const auto ce = trace::simulateTrace(est, lib, db, jobs, nodes, sched::PolicyKind::kCE);
    const auto sns = trace::simulateTrace(est, lib, db, jobs, nodes, sched::PolicyKind::kSNS);
    return sns.throughput() / ce.throughput() - 1.0;
  };
  double at_32k[2] = {};
  for (const int r : {0, 1}) {
    const double ratio = r == 0 ? 0.9 : 0.5;
    for (const int nodes : {8192, 16384, 32768}) {
      const double g = gain(ratio, nodes);
      EXPECT_GT(g, 0.0) << nodes << " nodes, ratio " << ratio;
      if (nodes == 32768) at_32k[r] = g;
    }
  }
  EXPECT_GT(at_32k[0], at_32k[1]);
  EXPECT_GT(gain(0.5, 4096), 0.0);
}

}  // namespace
}  // namespace sns
