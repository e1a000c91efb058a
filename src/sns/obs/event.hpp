#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sns/util/json.hpp"

namespace sns::obs {

/// Everything the scheduler stack can explain about itself, as typed
/// events. The taxonomy follows the paper's decision pipeline (§4.4, Fig
/// 11): submission -> scheduling attempts (with per-node scores and
/// rejection reasons) -> placement -> run-time resource dynamics (way
/// donation/reclaim, bandwidth throttling, monitoring episodes) ->
/// completion.
enum class EventType : std::uint8_t {
  kJobSubmitted = 0,      ///< job entered the pending queue
  kScheduleAttempt,       ///< a policy examined a job (accepted or rejected)
  kPlacementDecided,      ///< a policy chose nodes / LLC-way split / bw
  kWaysDonated,           ///< unallocated LLC ways donated to residents
  kWaysReclaimed,         ///< previously donated ways taken back
  kBackfillSkipped,       ///< backfilling stopped by the head-age limit
  kExplorationStarted,    ///< exclusive trial run at a new scale (§4.2)
  kExplorationPreempted,  ///< a trial run could not be admitted now
  kBandwidthThrottled,    ///< MBA cap became binding for a running job
  kMonitorEpisode,        ///< one fixed-allocation profiling episode (§5.1)
  kJobStarted,            ///< resources allocated, job is running
  kJobFinished,           ///< job completed, resources about to be released
  kSloViolation,          ///< a telemetry SLO rule entered violation
  kAuditViolation,        ///< an sns::audit invariant check failed
};

/// Stable lowercase name, e.g. "placement_decided" (used by the JSONL sink
/// and the Perfetto exporter).
const char* to_string(EventType t);

/// One candidate node with its selection score (Co + Bo + beta x Wo for the
/// SNS policy; lower is emptier).
struct NodeScore {
  int node = -1;
  double score = 0.0;
};

/// A single structured event. The struct is deliberately flat — one small
/// fixed part plus strings/candidates that are only populated when a sink
/// is attached — so the ring buffer stays cache-friendly and the disabled
/// path allocates nothing.
///
/// Field use by type (unused fields keep their defaults):
///   job_submitted:         job, what=program, ways=procs
///   schedule_attempt:      job, what=program, scale, ways, value=bw demand,
///                          detail=rejection reasons ("" = accepted),
///                          candidates=scored nodes of the accepted scale
///   placement_decided:     job, what=program, scale, ways, value=bw_gbps,
///                          value2=exclusive(0/1), candidates=chosen nodes
///   ways_donated:          one per co-run group transition (nodes that
///                          moved from one group to one other together):
///                          job=the job whose start or finish moved them,
///                          scale=node count, value=ways newly donated per
///                          node, value2=per-node donated total
///   ways_reclaimed:        as ways_donated, value=ways taken back per node
///   backfill_skipped:      job=head job, value=head age (s), detail=cause
///   exploration_started:   job, what=program, scale=trial scale
///   exploration_preempted: job, what=program, scale=trial scale, detail=why
///   bandwidth_throttled:   job, node, value=cap (GB/s)
///   monitor_episode:       what=program, ways, value=IPC, value2=BW (GB/s)
///   job_started:           job, what=program, node=first node, ways, scale,
///                          value=node count, value2=exclusive(0/1)
///   job_finished:          job, what=program, value=run time (s)
///   slo_violation:         what=rule name, value=observed, value2=threshold,
///                          detail=human-readable cause
///   audit_violation:       what=check name, value=observed, value2=expected,
///                          detail=human-readable cause
struct Event {
  EventType type = EventType::kJobSubmitted;
  double time = 0.0;   ///< simulation time, seconds
  std::int64_t job = -1;
  int node = -1;
  int ways = 0;
  int scale = 0;
  double value = 0.0;
  double value2 = 0.0;
  std::string what;    ///< program (or policy) name
  std::string detail;  ///< human-readable cause / rationale
  std::vector<NodeScore> candidates;
};

/// Compact JSON encoding (one object; defaulted fields are omitted). Used
/// by the JSONL sink and embedded in Perfetto args.
util::Json toJson(const Event& e);

}  // namespace sns::obs
