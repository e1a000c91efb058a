#pragma once

#include <string>
#include <vector>

#include "sns/profile/drift.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/uberun/launch_plan.hpp"

namespace sns::uberun {

/// Knobs of the whole Uberun stack.
struct UberunConfig {
  /// Cluster + policy + monitor knobs. Observers attach here, exactly as
  /// on a bare simulator: a `sim.sink` sees the full decision event
  /// stream (a superset of SystemReport::events), `sim.metrics` the
  /// "sim.*" metrics. A `sim.sampler` ticks on the simulator's virtual
  /// clock during process() and additionally receives the wall-clock
  /// duration of each batch as the `uberun.batch_wall_s` series, so
  /// deployment-side dashboards see both clocks.
  sim::SimConfig sim;
  profile::DriftConfig drift;        ///< §5.2 re-profiling trigger
  std::string hostname_prefix = "node";
  /// Per finished run, how many drift episodes the sustained monitor feeds
  /// (one per 30 s of run in production; bounded here).
  int drift_episodes_per_run = 6;
  /// PMU noise of the sustained production monitor.
  double monitor_noise = 0.02;
};

/// Output of one batch: the schedule, the concrete launch plans in start
/// order, a human-readable event log, and any programs whose profiles
/// drifted enough to warrant re-profiling.
struct SystemReport {
  sim::SimResult schedule;
  std::vector<LaunchPlan> launches;
  std::vector<std::string> events;
  /// (program, procs) pairs flagged stale. Pass the report to
  /// applyReprofiling() to erase them from a database.
  std::vector<std::pair<std::string, int>> reprofile;
};

/// The integrated Uberun stack (the paper's Fig 9): the central scheduler
/// and database drive placements; per-node daemons actuate them (core
/// binding, CAT masks, framework launches) and run sustained lightweight
/// monitoring whose drift verdicts feed back as re-profiling requests.
class UberunSystem {
 public:
  UberunSystem(const perfmodel::Estimator& est,
               const std::vector<app::ProgramModel>& library,
               const profile::ProfileDatabase& db, UberunConfig cfg);

  /// Schedule and "execute" one batch of submissions.
  SystemReport process(const std::vector<app::JobSpec>& jobs);

  /// Profiles learned by the online monitor in the last process() call.
  const profile::ProfileDatabase& learnedProfiles() const {
    return sim_->learnedProfiles();
  }

 private:
  const perfmodel::Estimator* est_;
  const std::vector<app::ProgramModel>* library_;
  const profile::ProfileDatabase* db_;
  UberunConfig cfg_;
  std::unique_ptr<sim::ClusterSimulator> sim_;
};

/// Apply a report's re-profiling requests: erase the stale profiles so the
/// next batch re-enters the piggybacked exploration pipeline. Returns the
/// number of profiles erased.
int applyReprofiling(profile::ProfileDatabase& db, const SystemReport& report);

}  // namespace sns::uberun
