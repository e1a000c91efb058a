#include "sns/uberun/system.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "sns/app/library.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"

namespace sns::uberun {
namespace {

/// FNV-1a over everything a SystemReport carries besides the schedule:
/// the launch plans in start order, the event log and the re-profiling
/// requests. The schedule itself is pinned by the simulator's golden
/// digests.
class ReportDigest {
 public:
  explicit ReportDigest(const SystemReport& r) {
    mix(r.launches.size());
    for (const auto& plan : r.launches) {
      mix(static_cast<std::uint64_t>(plan.job));
      mix(plan.program);
      mix(static_cast<std::uint64_t>(plan.framework));
      mix(static_cast<std::uint64_t>(plan.total_procs));
      mix(plan.nodes.size());
      for (const auto& nl : plan.nodes) {
        mix(static_cast<std::uint64_t>(nl.node));
        mix(nl.hostname);
        mix(nl.cores.size());
        for (int c : nl.cores) mix(static_cast<std::uint64_t>(c));
        mix(static_cast<std::uint64_t>(nl.cat_mask));
      }
      mix(plan.commands.size());
      for (const auto& c : plan.commands) mix(c);
    }
    mix(r.events.size());
    for (const auto& e : r.events) mix(e);
    mix(r.reprofile.size());
    for (const auto& [program, procs] : r.reprofile) {
      mix(program);
      mix(static_cast<std::uint64_t>(procs));
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte((v >> (8 * b)) & 0xffu);
  }
  void mix(const std::string& s) {
    mix(s.size());
    for (unsigned char c : s) byte(c);
  }
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

class SystemTest : public ::testing::Test {
 protected:
  SystemTest() : lib_(app::programLibrary()) {
    for (auto& p : lib_) est_.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.0;
    profile::Profiler prof(est_, cfg);
    for (const auto& p : lib_) db_.put(prof.profileProgram(p, 16));
  }

  UberunConfig config() {
    UberunConfig cfg;
    cfg.sim.nodes = 8;
    cfg.sim.policy = sched::PolicyKind::kSNS;
    return cfg;
  }

  perfmodel::Estimator est_;
  std::vector<app::ProgramModel> lib_;
  profile::ProfileDatabase db_;
};

TEST_F(SystemTest, ProcessProducesScheduleAndLaunches) {
  UberunSystem sys(est_, lib_, db_, config());
  const std::vector<app::JobSpec> jobs = {{"MG", 16, 0.9, 0.0, 1, 0.0},
                                          {"NW", 16, 0.9, 0.0, 1, 0.0},
                                          {"HC", 16, 0.9, 0.0, 1, 0.0}};
  const auto report = sys.process(jobs);
  EXPECT_EQ(report.schedule.jobs.size(), 3u);
  ASSERT_EQ(report.launches.size(), 3u);
  // Launch plans are in start order with framework-appropriate commands.
  for (const auto& plan : report.launches) {
    EXPECT_FALSE(plan.nodes.empty());
    EXPECT_FALSE(plan.commands.empty());
  }
  // Event log records one start and one finish per job.
  int starts = 0, finishes = 0;
  for (const auto& e : report.events) {
    starts += e.find(" start job ") != std::string::npos ? 1 : 0;
    finishes += e.find(" finish job ") != std::string::npos ? 1 : 0;
  }
  EXPECT_EQ(starts, 3);
  EXPECT_EQ(finishes, 3);
}

TEST_F(SystemTest, StableProgramsRequestNoReprofiling) {
  UberunSystem sys(est_, lib_, db_, config());
  std::vector<app::JobSpec> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back({"CG", 16, 0.9, 600.0 * i, 1, 0.0});
  const auto report = sys.process(jobs);
  EXPECT_TRUE(report.reprofile.empty());
}

TEST_F(SystemTest, RewrittenProgramGetsFlaggedAndErased) {
  // "CG v2": the binary changed between submissions — much lighter memory
  // behaviour than its stored profile.
  auto lib2 = lib_;
  auto& cg = const_cast<app::ProgramModel&>(app::findProgram(lib2, "CG"));
  cg.mem_refs_per_instr *= 0.35;
  est_.calibrate(cg);

  UberunConfig cfg = config();
  cfg.drift_episodes_per_run = 4;
  UberunSystem sys(est_, lib2, db_, cfg);
  std::vector<app::JobSpec> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back({"CG", 16, 0.9, 600.0 * i, 1, 0.0});
  const auto report = sys.process(jobs);
  ASSERT_FALSE(report.reprofile.empty());
  EXPECT_EQ(report.reprofile.front().first, "CG");

  profile::ProfileDatabase db = db_;
  EXPECT_EQ(applyReprofiling(db, report), 1);
  EXPECT_FALSE(db.contains("CG", 16));
  // Re-running applyReprofiling is a no-op.
  EXPECT_EQ(applyReprofiling(db, report), 0);
}

TEST_F(SystemTest, ReprofilingClosesTheLoop) {
  // Full lifecycle: drift flags the stale profile; after erasing it, the
  // next batch re-explores the program exclusively and relearns it.
  auto lib2 = lib_;
  auto& mg = const_cast<app::ProgramModel&>(app::findProgram(lib2, "MG"));
  mg.mem_refs_per_instr *= 0.3;
  est_.calibrate(mg);

  UberunConfig cfg = config();
  cfg.sim.online_profiling = true;
  cfg.sim.monitor.pmu_noise = 0.0;
  UberunSystem sys(est_, lib2, db_, cfg);

  std::vector<app::JobSpec> jobs;
  for (int i = 0; i < 6; ++i) jobs.push_back({"MG", 16, 0.9, 500.0 * i, 1, 0.0});
  const auto first = sys.process(jobs);
  ASSERT_FALSE(first.reprofile.empty());

  profile::ProfileDatabase db = db_;
  applyReprofiling(db, first);
  UberunSystem sys2(est_, lib2, db, cfg);
  const auto second = sys2.process(jobs);
  // Early runs are exclusive exploration trials again.
  EXPECT_TRUE(second.schedule.jobs[0].placement.exclusive);
  const auto* relearned = sys2.learnedProfiles().find("MG", 16);
  ASSERT_NE(relearned, nullptr);
  EXPECT_FALSE(relearned->scales.empty());
}

TEST_F(SystemTest, ReportDigestsArePinned) {
  // Launch plans, event lines and re-profiling requests of two batches,
  // pinned to hashes of the reports: the 12-job random mix of
  // LaunchPlansNeverDoubleBookCores, and the drifting first batch of
  // ReprofilingClosesTheLoop. Any change to which planner, logging or
  // drift-monitor call runs, in what order or on which record values,
  // moves a digest.
  {
    UberunSystem sys(est_, lib_, db_, config());
    util::Rng rng(404);
    const auto report = sys.process(app::randomSequence(rng, lib_, 12, 0.9));
    EXPECT_EQ(ReportDigest(report).value(), 0x8378e32e534c933cull);
  }
  {
    auto lib2 = lib_;
    auto& mg = const_cast<app::ProgramModel&>(app::findProgram(lib2, "MG"));
    mg.mem_refs_per_instr *= 0.3;
    est_.calibrate(mg);
    UberunConfig cfg = config();
    cfg.sim.online_profiling = true;
    cfg.sim.monitor.pmu_noise = 0.0;
    UberunSystem sys(est_, lib2, db_, cfg);
    std::vector<app::JobSpec> jobs;
    for (int i = 0; i < 6; ++i) jobs.push_back({"MG", 16, 0.9, 500.0 * i, 1, 0.0});
    const auto report = sys.process(jobs);
    ASSERT_FALSE(report.reprofile.empty());
    EXPECT_EQ(ReportDigest(report).value(), 0xa8ac53dfd2937ab8ull);
  }
}

TEST_F(SystemTest, ObserversAttachThroughSimConfig) {
  // A sink and a registry attached the natural way, on cfg.sim, see the
  // whole batch, and attaching them leaves the report unchanged.
  util::Rng rng(404);
  const auto jobs = app::randomSequence(rng, lib_, 12, 0.9);
  const auto plain = UberunSystem(est_, lib_, db_, config()).process(jobs);

  obs::RingBufferLog log;
  obs::Registry reg;
  UberunConfig cfg = config();
  cfg.sim.sink = &log;
  cfg.sim.metrics = &reg;
  const auto observed = UberunSystem(est_, lib_, db_, cfg).process(jobs);

  std::vector<int> started(jobs.size(), 0), finished(jobs.size(), 0);
  for (const auto& e : log.snapshot()) {
    if (e.type == obs::EventType::kJobStarted) ++started.at(static_cast<std::size_t>(e.job));
    if (e.type == obs::EventType::kJobFinished) ++finished.at(static_cast<std::size_t>(e.job));
  }
  EXPECT_EQ(log.dropped(), 0u);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(started[j], 1) << "job " << j;
    EXPECT_EQ(finished[j], 1) << "job " << j;
  }
  const auto* done = reg.findCounter("sim.jobs_finished");
  ASSERT_NE(done, nullptr);
  EXPECT_DOUBLE_EQ(done->value(), static_cast<double>(jobs.size()));
  EXPECT_EQ(ReportDigest(observed).value(), ReportDigest(plain).value());
  EXPECT_EQ(observed.events, plain.events);
  EXPECT_EQ(observed.reprofile, plain.reprofile);
}

TEST_F(SystemTest, BatchRunsTheBareSimulatorsEngine) {
  // process() tees an event sink into every run; the sink reads the
  // engine, it does not pick it. So a batch does the same work as a bare
  // simulator run of the same jobs with only a metrics registry: the same
  // failed-spec memo answers, futile-pass skips and contention solves.
  util::Rng rng(404);
  const auto jobs = app::randomSequence(rng, lib_, 12, 0.9);
  UberunConfig cfg = config();

  obs::Registry bare;
  sim::SimConfig bare_cfg = cfg.sim;
  bare_cfg.metrics = &bare;
  (void)sim::ClusterSimulator(est_, lib_, db_, bare_cfg).run(jobs);

  obs::Registry batch;
  cfg.sim.metrics = &batch;
  (void)UberunSystem(est_, lib_, db_, cfg).process(jobs);

  for (const char* name :
       {"sim.spec_skips", "sim.futile_pass_skips", "sim.solver_calls"}) {
    const auto* want = bare.findCounter(name);
    const auto* got = batch.findCounter(name);
    ASSERT_NE(want, nullptr) << name;
    ASSERT_NE(got, nullptr) << name;
    EXPECT_EQ(got->value(), want->value()) << name;
  }
  EXPECT_GT(bare.findCounter("sim.spec_skips")->value(), 0.0);
  EXPECT_GT(bare.findCounter("sim.futile_pass_skips")->value(), 0.0);
}

TEST_F(SystemTest, LaunchPlansNeverDoubleBookCores) {
  UberunSystem sys(est_, lib_, db_, config());
  util::Rng rng(404);
  const auto jobs = app::randomSequence(rng, lib_, 12, 0.9);
  // Throws inside materialize/release if cores or masks were double-booked.
  EXPECT_NO_THROW(sys.process(jobs));
}

}  // namespace
}  // namespace sns::uberun
