#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sns/obs/metrics.hpp"
#include "sns/xray/provenance.hpp"

namespace sns::xray {

/// The event-loop spans instrumented by the scheduler and simulator.
/// Values are stable (they index the per-kind stats and encode folded
/// stacks).
enum class SpanKind : std::uint8_t {
  kDecision = 0,    ///< one whole scheduling pass
  kCandidatePrune,  ///< node feasibility scan + selection inside tryPlace
  kCurveScore,      ///< demand estimation from the profile curves
  kSolverCall,      ///< per-node co-run contention solve (or memo hit)
  kCommit,          ///< ledger allocation + solo-model derivation (startJob)
  kRateRefresh,     ///< progress-rate re-derivation after a finish
  kBatchRefresh,    ///< end-of-pass rate refresh over the pass's placements
  kEvent,           ///< one whole event-loop step (the simulator's root)
  kAccounting,      ///< busy-node integral + bandwidth episode fill
  kFinish,          ///< finish-calendar pop + finishJob of the completions
  kObserve,         ///< auditor tick + telemetry sampler tick
  kCount_,          ///< sentinel
};

constexpr std::size_t kSpanKindCount = static_cast<std::size_t>(SpanKind::kCount_);

/// Stable lowercase name, e.g. "candidate_prune".
const char* to_string(SpanKind k);

/// Tracer knobs. The defaults trace every unit with provenance on; the
/// sampled production mode raises sample_period so only every Nth unit
/// (event-loop step, or standalone scheduling pass) pays for clock reads
/// (provenance stays complete — `uberun explain` must answer for *any*
/// job).
struct TracerConfig {
  /// Trace timing on every Nth unit; 1 = every unit. Unsampled units cost
  /// one branch per span site and read no clocks.
  int sample_period = 1;
  /// Max timed spans per unit. Spans beyond the budget are dropped
  /// (counted in droppedSpans()) instead of growing without bound on
  /// pathological queue walks; their time stays in the parent's self time.
  std::size_t span_budget = 4096;
  /// Retain per-span records for the Perfetto export. Off by default:
  /// a Fig-20 replay produces millions of spans.
  bool keep_records = false;
  /// Cap on retained SpanRecords (oldest kept; newer ones counted as
  /// dropped records, not dropped spans).
  std::size_t max_records = 1 << 20;
  /// Record placement provenance (scored candidates, rejection reasons,
  /// winning breakdown) for every decision.
  bool provenance = true;
  /// Scored winning nodes retained per decision (large multi-node
  /// placements keep the first N; the full count is still recorded).
  std::size_t max_candidates = 8;
};

/// One retained span, for the Perfetto export. Times are nanoseconds
/// relative to the start of the unit the span belongs to, so the export
/// can anchor them at the unit's virtual timestamp.
struct SpanRecord {
  double sim_time = 0.0;     ///< virtual time of the enclosing unit
  std::uint64_t unit = 0;    ///< unit ordinal (event step or standalone pass)
  SpanKind kind = SpanKind::kDecision;
  std::uint8_t depth = 0;    ///< nesting depth (0 = the unit's root)
  std::int64_t job = -1;     ///< job id the span worked on, -1 if unit-wide
  std::uint64_t t0_ns = 0;   ///< start, relative to the unit start
  std::uint64_t t1_ns = 0;   ///< end, relative to the unit start
};

/// Span-based cost-attribution tracer for the simulator's event loop.
/// The sampled unit is one event-loop step, opened with beginStep() and
/// closed with endStep() under a kEvent root; the scheduling pass inside
/// it (beginPass()/endPass()) is a kDecision span. A pass opened outside
/// any step — a policy driven on its own — is itself the unit, rooted at
/// kDecision. In between, ScopedSpan scopes attribute nanoseconds to
/// SpanKinds with full nesting (self-time subtracts children, folded
/// stacks accumulate per unique scope path, per-kind latency histograms
/// feed `uberun hotpath` percentiles), so the self times of a sampled
/// step sum to its wall time exactly once.
///
/// Cost model: a null tracer is zero-cost (ScopedSpan over nullptr is one
/// predictable branch). An attached tracer on an *unsampled* unit reads no
/// clocks — ScopedSpan latches "engaged" once at construction. Sampled
/// units pay two steady_clock reads per span. Provenance (attached via
/// provenance()) is independent of sampling and never reads clocks.
///
/// Determinism: the tracer observes the decision path, never feeds it —
/// all timing uses the monotonic clock for metrics only, and the
/// equivalence suite proves simulation results are bit-identical with the
/// tracer attached or absent.
class Tracer {
 public:
  struct Stat {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;  ///< inclusive (with children)
    std::uint64_t self_ns = 0;   ///< exclusive (children subtracted)
    std::uint64_t max_ns = 0;    ///< worst single inclusive span
  };

  explicit Tracer(TracerConfig cfg = {});

  // ---- unit lifecycle -------------------------------------------------------
  /// Open an event-loop step at virtual time `sim_time`; decides whether
  /// this step is sampled and, if so, opens the kEvent root span.
  void beginStep(double sim_time);
  /// Close the step (pops the root span when sampled).
  void endStep();
  /// Open a decision pass at virtual time `sim_time`. Inside a step the
  /// pass inherits the step's sampling and times a kDecision span;
  /// outside one it is its own unit with a kDecision root.
  void beginPass(double sim_time);
  /// Close the pass.
  void endPass();
  bool inPass() const { return in_pass_; }
  /// True while the open unit is timing spans.
  bool sampling() const { return sampled_; }
  /// Virtual time of the open (or most recent) pass; provenance writers
  /// stamp first_seen / decided with it.
  double passSimTime() const { return pass_sim_time_; }

  // ---- span scopes (use ScopedSpan, not these, at call sites) ---------------
  void enter(SpanKind k, std::int64_t job = -1);
  void exit();

  // ---- results --------------------------------------------------------------
  const Stat& stat(SpanKind k) const {
    return stats_[static_cast<std::size_t>(k)];
  }
  /// Per-kind inclusive latency histogram, microseconds.
  const obs::Histogram& kindUs(SpanKind k) const {
    return kind_us_[static_cast<std::size_t>(k)];
  }
  std::uint64_t steps() const { return steps_; }
  std::uint64_t sampledSteps() const { return sampled_steps_; }
  std::uint64_t passes() const { return passes_; }
  std::uint64_t sampledPasses() const { return sampled_passes_; }
  /// Spans discarded by the per-unit budget.
  std::uint64_t droppedSpans() const { return dropped_spans_; }
  /// Retained records discarded by the max_records cap.
  std::uint64_t droppedRecords() const { return dropped_records_; }
  /// Total attributed time (sum of self times over all kinds).
  std::uint64_t totalSelfNs() const;
  const std::vector<SpanRecord>& records() const { return records_; }
  const TracerConfig& config() const { return cfg_; }

  /// Placement provenance store, or nullptr when cfg.provenance is off.
  /// Policies and the simulator write through this; `uberun explain`
  /// reads it.
  ProvenanceStore* provenance() { return provenance_.get(); }
  const ProvenanceStore* provenance() const { return provenance_.get(); }

  /// Folded-stack lines ("event;decision;commit <self_ns>"), sorted —
  /// flamegraph.pl / speedscope / inferno input.
  std::string foldedStacks() const;
  /// Flat per-kind profile as a util::Table (calls, incl/self ms, %, p50,
  /// p99, worst).
  std::string renderTable() const;

  void reset();

 private:
  // Metric-only timing: span costs are reported, never used to decide
  // anything. snslint's span-wall-clock rule enforces the monotonic clock
  // here.
  using Clock = std::chrono::steady_clock;  // snslint: allow(wall-clock)

  struct Frame {
    SpanKind kind;
    std::int64_t job;
    Clock::time_point start;
    std::uint64_t child_ns = 0;
    std::uint64_t path;    ///< folded-stack signature up to this frame
    bool dropped = false;  ///< over budget: no clock reads, no accounting
  };

  void openUnit(double sim_time, SpanKind root);
  void closeUnit();

  TracerConfig cfg_;
  std::unique_ptr<ProvenanceStore> provenance_;

  bool in_step_ = false;
  bool in_pass_ = false;
  bool sampled_ = false;
  double unit_sim_time_ = 0.0;
  double pass_sim_time_ = 0.0;
  Clock::time_point unit_start_{};
  std::size_t unit_spans_ = 0;

  std::uint64_t units_ = 0;
  std::uint64_t steps_ = 0;
  std::uint64_t sampled_steps_ = 0;
  std::uint64_t passes_ = 0;
  std::uint64_t sampled_passes_ = 0;
  std::uint64_t dropped_spans_ = 0;
  std::uint64_t dropped_records_ = 0;

  std::array<Stat, kSpanKindCount> stats_{};
  std::vector<obs::Histogram> kind_us_;  ///< kSpanKindCount entries
  std::vector<Frame> stack_;
  /// Folded signature (5 bits per frame, kind+1 so 0 = empty) -> self ns.
  std::unordered_map<std::uint64_t, std::uint64_t> folded_;
  std::vector<SpanRecord> records_;
};

/// RAII span scope, safe on every exit path (early return, exception).
/// Engagement is latched at construction: null tracer, outside a unit, or
/// an unsampled unit all cost one branch and zero clock reads.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanKind k, std::int64_t job = -1)
      : tracer_(tracer != nullptr && tracer->sampling() ? tracer : nullptr) {
    if (tracer_ != nullptr) tracer_->enter(k, job);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->exit();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace sns::xray
