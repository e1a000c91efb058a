#pragma once

#include <span>
#include <string>

#include "sns/flight/flight.hpp"
#include "sns/obs/event.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/util/json.hpp"
#include "sns/xray/span.hpp"

namespace sns::sim {

/// Knobs of the Perfetto export.
struct TraceExportOptions {
  /// Episode length the result's node_bw_episodes were sampled with
  /// (SimConfig::monitor_episode_s); needed to place counter samples.
  double episode_s = 30.0;
  /// Cap on scheduler instant markers taken from the event log (newest
  /// kept); <= 0 means unlimited.
  std::size_t max_instants = 0;
  /// Event-loop tracer whose retained spans (TracerConfig::keep_records)
  /// render as nested "decision anatomy" slices under the scheduler
  /// process, anchored at each step's virtual time with real nanoseconds
  /// mapped 1:1 onto the virtual axis. Null skips the lanes.
  const xray::Tracer* xray = nullptr;
  /// Interference flight recorder whose retained co-residency intervals
  /// render as a per-node "interference (slowdown s/s)" counter lane: the
  /// instantaneous attributed-deficit rate of everything bottlenecked on
  /// the node, stepped at the recorder's interval boundaries. Null skips
  /// the lanes.
  const flight::FlightRecorder* flight = nullptr;
};

/// Render one simulation as a Perfetto / Chrome trace-event JSON document
/// loadable in ui.perfetto.dev:
///   - one process track per node ("node N"), with each job that touched
///     the node as a duration slice (lane = job id) annotated with its
///     placement (procs, ways, scale, exclusive, wait);
///   - a per-node "bandwidth (GB/s)" counter track from the monitoring
///     episodes;
///   - a "scheduler" process carrying the decision event log as instant
///     markers (one lane per event type) and a "queue depth" counter
///     reconstructed from submit/start events.
/// `events` may be empty (e.g. tracing was off): the schedule itself still
/// exports.
util::Json exportPerfetto(const SimResult& res,
                          std::span<const obs::Event> events = {},
                          const TraceExportOptions& opts = {});

/// exportPerfetto() + write to `path` (pretty-printed when `indent` > 0).
void writePerfettoFile(const std::string& path, const SimResult& res,
                       std::span<const obs::Event> events = {},
                       const TraceExportOptions& opts = {});

}  // namespace sns::sim
