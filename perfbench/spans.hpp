#pragma once

// In-memory span recorder for the traced layer replay. One parent span per
// timeline event, one child span per layer call; spans of one event share
// the event's id. Nothing is written until writeChromeTrace() at exit.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  // Parent spans, one per timeline event.
  kEventSubmit,
  kEventFinish,
  kEventPass,  ///< the scheduling point: queue walk and head rejection
  kEventStart,
  // Child spans, one per layer call.
  kQueuePush,
  kQueueWalk,
  kQueueRemove,
  kPolicyPlace,
  kPolicyReject,
  kLedgerSelect,
  kLedgerAllocate,  ///< covers the allocate() calls of one placement
  kLedgerRelease,   ///< covers the release() calls of one placement
  kSolverLookup,
  kSolverMiss,
  kCalendar,        ///< covers one event's insert/upsert/pop calls
  kCount,
};

const char* spanName(SpanName n);

struct Span {
  std::int64_t start_ns = 0;  ///< relative to the recorder's origin
  std::int64_t end_ns = 0;
  std::uint32_t event = 0;    ///< id shared by every span of one event
  std::int32_t parent = -1;   ///< index of the parent span, -1 for events
  std::uint32_t ops = 1;      ///< layer operations the span covers
  SpanName name = SpanName::kCount;

  double durationNs() const { return static_cast<double>(end_ns - start_ns); }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Open the parent span of a new timeline event.
  std::int32_t beginEvent(SpanName name) {
    current_event_ = next_event_++;
    event_span_ = open(name, 1, -1);
    return event_span_;
  }
  /// Open a child span under the current event.
  std::int32_t beginChild(SpanName name, std::uint32_t ops) {
    return open(name, ops, event_span_);
  }
  void end(std::int32_t idx) { spans_[static_cast<std::size_t>(idx)].end_ns = nowNs(); }
  void setOps(std::int32_t idx, std::uint32_t ops) {
    spans_[static_cast<std::size_t>(idx)].ops = ops;
  }

  const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing). The
  /// `meta` object is embedded verbatim under "metadata".
  bool writeChromeTrace(const std::string& path, const std::string& meta) const;

 private:
  using Clock = std::chrono::steady_clock;
  std::int64_t nowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }
  std::int32_t open(SpanName name, std::uint32_t ops, std::int32_t parent) {
    Span s;
    s.name = name;
    s.ops = ops;
    s.parent = parent;
    s.event = current_event_;
    s.start_ns = nowNs();
    spans_.push_back(s);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint32_t next_event_ = 0;
  std::uint32_t current_event_ = 0;
  std::int32_t event_span_ = -1;
};

/// RAII child span; a null recorder makes it a no-op with no clock reads.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanName name, std::uint32_t ops = 1) : rec_(rec) {
    if (rec_ != nullptr) idx_ = rec_->beginChild(name, ops);
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->end(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void setOps(std::uint32_t ops) {
    if (rec_ != nullptr) rec_->setOps(idx_, ops);
  }

 private:
  SpanRecorder* rec_;
  std::int32_t idx_ = -1;
};

/// RAII parent span for one timeline event.
class EventSpan {
 public:
  EventSpan(SpanRecorder* rec, SpanName name) : rec_(rec) {
    if (rec_ != nullptr) idx_ = rec_->beginEvent(name);
  }
  ~EventSpan() {
    if (rec_ != nullptr) rec_->end(idx_);
  }
  EventSpan(const EventSpan&) = delete;
  EventSpan& operator=(const EventSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t idx_ = -1;
};

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
/// Sorts `v` in place.
double quantile(std::vector<double>& v, double q);

}  // namespace perfbench
