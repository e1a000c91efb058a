#include "sns/uberun/system.hpp"

#include <chrono>
#include <cstdint>
#include <map>
#include <utility>

#include "sns/app/comm.hpp"
#include "sns/obs/sink.hpp"
#include "sns/perfmodel/pmu.hpp"
#include "sns/util/error.hpp"
#include "sns/util/table.hpp"

namespace sns::uberun {

namespace {
/// Records the run's (job_started | job_finished, job) sequence, so
/// process() can replay it against the final job records after run().
class JobEventLog final : public obs::EventSink {
 public:
  void record(const obs::Event& e) override {
    if (e.type == obs::EventType::kJobStarted ||
        e.type == obs::EventType::kJobFinished) {
      events.emplace_back(e.type, e.job);
    }
  }
  std::vector<std::pair<obs::EventType, std::int64_t>> events;
};
}  // namespace

UberunSystem::UberunSystem(const perfmodel::Estimator& est,
                           const std::vector<app::ProgramModel>& library,
                           const profile::ProfileDatabase& db, UberunConfig cfg)
    : est_(&est), library_(&library), db_(&db), cfg_(std::move(cfg)) {}

SystemReport UberunSystem::process(const std::vector<app::JobSpec>& jobs) {
  SystemReport report;
  LaunchPlanner planner(cfg_.sim.nodes, est_->machine(), cfg_.hostname_prefix);
  std::map<std::pair<std::string, int>, profile::DriftDetector> monitors;
  perfmodel::PmuSimulator pmu(cfg_.monitor_noise, 0xD21F7);

  auto logf = [&](std::string line) { report.events.push_back(std::move(line)); };

  auto start_job = [&](const sim::JobRecord& rec) {
    sched::Job job;
    job.id = rec.id;
    job.spec = rec.spec;
    job.program = &app::findProgram(*library_, rec.spec.program);
    job.submit_time = rec.submit;
    report.launches.push_back(planner.materialize(job, rec.placement));
    logf("t=" + util::fmt(rec.start, 1) + " start job " + std::to_string(rec.id) +
         " (" + rec.spec.program + ") on " +
         std::to_string(rec.placement.nodeCount()) + " node(s), " +
         std::to_string(rec.placement.ways) + " ways" +
         (rec.placement.exclusive ? ", exclusive" : ""));
  };
  auto finish_job = [&](const sim::JobRecord& rec) {
    planner.release(rec.id, rec.placement);
    logf("t=" + util::fmt(rec.finish, 1) + " finish job " +
         std::to_string(rec.id) + " (" + rec.spec.program + ") after " +
         util::fmt(rec.runTime(), 1) + " s");

    // Sustained lightweight monitoring (§5.2): compare the run's PMU
    // readings against the stored profile; sustained deviation flags the
    // profile stale.
    const auto* prof = db_->find(rec.spec.program, rec.spec.procs);
    if (prof == nullptr) return;
    const auto& prog = app::findProgram(*library_, rec.spec.program);
    const double ways =
        rec.placement.ways > 0 ? rec.placement.ways : est_->machine().llc_ways;
    const double rf = app::remoteFraction(prog.comm.pattern, rec.spec.procs,
                                          rec.placement.procs_per_node,
                                          rec.placement.nodeCount());
    perfmodel::NodeShare share{&prog, rec.placement.procs_per_node, ways, rf, 1.0,
                               0.0};
    const auto outcome =
        est_->solver().solve(std::span<const perfmodel::NodeShare>(&share, 1))
            .front();
    auto& det = monitors
                    .try_emplace({rec.spec.program, rec.spec.procs},
                                 profile::DriftDetector(cfg_.drift))
                    .first->second;
    for (int e = 0; e < cfg_.drift_episodes_per_run; ++e) {
      const auto s =
          pmu.sample(outcome, rec.placement.procs_per_node, 30.0,
                     est_->machine().frequency_ghz);
      det.observe(*prof, rec.placement.scale_factor, ways, s.ipc(),
                  s.bandwidthGbps());
    }
  };

  // The launch actuators and the drift monitor consume the run's job
  // starts and finishes in event order. Each reads only record fields
  // that are final by the time its event fires (placement and start at
  // job_started, finish at job_finished), so replaying the recorded
  // sequence against the finished schedule makes the same calls, in the
  // same order, on the same values.
  JobEventLog job_events;
  obs::TeeSink tee;
  tee.add(cfg_.sim.sink);
  tee.add(&job_events);
  sim::SimConfig sim_cfg = cfg_.sim;
  sim_cfg.sink = &tee;

  sim_ = std::make_unique<sim::ClusterSimulator>(*est_, *library_, *db_, sim_cfg);
  // Real elapsed time of the batch, reported as telemetry alongside the
  // virtual clock; scheduling itself runs on simulated time only.
  const auto wall_begin = std::chrono::steady_clock::now();  // snslint: allow(wall-clock)
  report.schedule = sim_->run(jobs);
  for (const auto& [type, id] : job_events.events) {
    const sim::JobRecord& rec = report.schedule.jobs[static_cast<std::size_t>(id)];
    if (type == obs::EventType::kJobStarted) {
      start_job(rec);
    } else {
      finish_job(rec);
    }
  }
  if (cfg_.sim.sampler != nullptr) {
    // Wall clock alongside the virtual clock: one point per batch, stamped
    // with the batch's virtual makespan so it aligns with the other series.
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -  // snslint: allow(wall-clock)
                              wall_begin)
                              .count();
    cfg_.sim.sampler->recordScalar("uberun.batch_wall_s",
                                   report.schedule.makespan, wall_s);
  }

  for (const auto& [key, det] : monitors) {
    if (det.reprofileNeeded()) {
      report.reprofile.push_back(key);
      logf("drift: profile of " + key.first + ":" + std::to_string(key.second) +
           " is stale (mean IPC deviation " +
           util::fmtPct(det.meanIpcDeviation()) + "), re-profiling requested");
    }
  }
  return report;
}

int applyReprofiling(profile::ProfileDatabase& db, const SystemReport& report) {
  int erased = 0;
  for (const auto& [program, procs] : report.reprofile) {
    erased += db.erase(program, procs) ? 1 : 0;
  }
  return erased;
}

}  // namespace sns::uberun
