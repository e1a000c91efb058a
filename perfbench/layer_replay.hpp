#pragma once

// Outside-in layer replay: rebuilds the call stream of one simulator run
// from its SimResult and re-drives each layer's public API against fresh
// layer objects — policy tryPlace, JobQueue, FinishCalendar, ResourceLedger
// selection/allocate/release, SolverCache and NodeContentionSolver.

#include <cstdint>

#include "setup.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "spans.hpp"

namespace perfbench {

/// Work counts of one layer replay. Every field repeats exactly for a
/// given seed and workload.
struct LayerCounts {
  std::uint64_t starts = 0;
  std::uint64_t finishes = 0;
  std::uint64_t points = 0;  ///< scheduling points (distinct event times)
  std::uint64_t passes = 0;  ///< points with a non-empty queue
  // policy
  std::uint64_t place_calls = 0;
  std::uint64_t place_matches = 0;
  std::uint64_t reject_calls = 0;
  std::uint64_t reject_matches = 0;
  // queue
  std::uint64_t walk_misses = 0;  ///< starters the mirrored walk did not reach
  double depth_sum = 0.0;
  std::uint64_t depth_max = 0;
  // calendar
  std::uint64_t calendar_ops = 0;
  std::uint64_t calendar_misorders = 0;  ///< pops that were not the finisher
  // ledger
  std::uint64_t select_matches = 0;
  std::uint64_t alloc_nodes = 0;
  std::uint64_t release_nodes = 0;
  // solver
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t groups = 0;
  std::uint64_t group_nodes = 0;  ///< non-empty dirty nodes across all groups
  // sim timeline
  std::uint64_t active_max = 0;
  double residents_per_busy_sum = 0.0;
  std::uint64_t residents_samples = 0;
};

/// Replay `res` (a run of `w` on `s`) through fresh layer objects. With a
/// recorder, every event and layer call becomes a span; with null, no clock
/// is read.
LayerCounts replayLayers(const Setup& s, const Workload& w,
                         const sns::sim::SimResult& res, SpanRecorder* rec);

}  // namespace perfbench
