#pragma once

#include <string_view>
#include <utility>

#include "sns/obs/sink.hpp"

namespace sns::obs {

/// Cheap emission handle shared by the simulator, the policies and the
/// profiler. Holds the current (simulation) time plus the sink pointer;
/// every helper starts with a null check, so with no sink attached the
/// entire tracing path costs one predictable branch and zero allocations.
///
/// The owner (e.g. sim::ClusterSimulator) advances the clock; components
/// that emit (policies, profiler) only ever see the Recorder, never a raw
/// sink, so events are uniformly timestamped.
class Recorder {
 public:
  Recorder() = default;
  explicit Recorder(EventSink* sink) : sink_(sink) {}

  void setSink(EventSink* sink) { sink_ = sink; }
  EventSink* sink() const { return sink_; }
  bool enabled() const { return sink_ != nullptr; }

  void setTime(double t) { now_ = t; }
  double time() const { return now_; }

  /// Emit a fully-formed event (time is stamped here).
  void emit(Event e) {
    if (sink_ == nullptr) return;
    e.time = now_;
    sink_->record(e);
  }

  // ---- typed helpers (all no-ops when disabled) ----------------------------

  void jobSubmitted(std::int64_t job, std::string_view program, int procs) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kJobSubmitted;
    e.job = job;
    e.what = program;
    e.ways = procs;
    emit(std::move(e));
  }

  void scheduleAttempt(std::int64_t job, std::string_view program, int scale,
                       int ways, double bw_gbps, std::string_view reasons,
                       std::vector<NodeScore> candidates = {}) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kScheduleAttempt;
    e.job = job;
    e.what = program;
    e.scale = scale;
    e.ways = ways;
    e.value = bw_gbps;
    e.detail = reasons;
    e.candidates = std::move(candidates);
    emit(std::move(e));
  }

  void placementDecided(std::int64_t job, std::string_view program, int scale,
                        int ways, double bw_gbps, bool exclusive,
                        std::vector<NodeScore> chosen) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kPlacementDecided;
    e.job = job;
    e.what = program;
    e.scale = scale;
    e.ways = ways;
    e.value = bw_gbps;
    e.value2 = exclusive ? 1.0 : 0.0;
    e.candidates = std::move(chosen);
    emit(std::move(e));
  }

  void waysDonated(std::int64_t job, int nodes, double delta, double total) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kWaysDonated;
    e.job = job;
    e.scale = nodes;
    e.value = delta;
    e.value2 = total;
    emit(std::move(e));
  }

  void waysReclaimed(std::int64_t job, int nodes, double delta, double total) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kWaysReclaimed;
    e.job = job;
    e.scale = nodes;
    e.value = delta;
    e.value2 = total;
    emit(std::move(e));
  }

  void backfillSkipped(std::int64_t head_job, double head_age,
                       std::string_view cause) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kBackfillSkipped;
    e.job = head_job;
    e.value = head_age;
    e.detail = cause;
    emit(std::move(e));
  }

  void explorationStarted(std::int64_t job, std::string_view program,
                          int trial_scale) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kExplorationStarted;
    e.job = job;
    e.what = program;
    e.scale = trial_scale;
    emit(std::move(e));
  }

  void explorationPreempted(std::int64_t job, std::string_view program,
                            int trial_scale, std::string_view cause) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kExplorationPreempted;
    e.job = job;
    e.what = program;
    e.scale = trial_scale;
    e.detail = cause;
    emit(std::move(e));
  }

  void bandwidthThrottled(std::int64_t job, int node, double cap_gbps) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kBandwidthThrottled;
    e.job = job;
    e.node = node;
    e.value = cap_gbps;
    emit(std::move(e));
  }

  void monitorEpisode(std::string_view program, int ways, double ipc,
                      double bw_gbps) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kMonitorEpisode;
    e.what = program;
    e.ways = ways;
    e.value = ipc;
    e.value2 = bw_gbps;
    emit(std::move(e));
  }

  void jobStarted(std::int64_t job, std::string_view program, int first_node,
                  int node_count, int ways, int scale, bool exclusive) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kJobStarted;
    e.job = job;
    e.what = program;
    e.node = first_node;
    e.ways = ways;
    e.scale = scale;
    e.value = node_count;
    e.value2 = exclusive ? 1.0 : 0.0;
    emit(std::move(e));
  }

  void sloViolation(std::string_view rule, double observed, double threshold,
                    std::string_view cause) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kSloViolation;
    e.what = rule;
    e.value = observed;
    e.value2 = threshold;
    e.detail = cause;
    emit(std::move(e));
  }

  void auditViolation(std::string_view check, double observed, double expected,
                      std::string_view cause) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kAuditViolation;
    e.what = check;
    e.value = observed;
    e.value2 = expected;
    e.detail = cause;
    emit(std::move(e));
  }

  void jobFinished(std::int64_t job, std::string_view program, double run_s) {
    if (sink_ == nullptr) return;
    Event e;
    e.type = EventType::kJobFinished;
    e.job = job;
    e.what = program;
    e.value = run_s;
    emit(std::move(e));
  }

 private:
  EventSink* sink_ = nullptr;
  double now_ = 0.0;
};

}  // namespace sns::obs
