#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sns/obs/metrics.hpp"
#include "sns/util/json.hpp"

namespace sns::flight {

using JobId = std::int64_t;  ///< dense per-run id, same domain as sched::JobId

/// Slack on the degradation bound: a job violates it when stretch >
/// 1/alpha + kBoundSlack. Shared by the recorder's census and
/// sim::thresholdViolations, so the two agree job for job.
constexpr double kBoundSlack = 1e-12;

/// Recorder knobs.
struct FlightConfig {
  /// Retained co-residency intervals per job. When a job's interval list
  /// would exceed this budget, adjacent pairs merge 2:1 (index-aligned,
  /// like telemetry::Series), so memory is fixed and the retained store is
  /// a pure function of the append sequence. Rounded up to an even value
  /// >= 4. The per-job rollup ledgers (the reconciliation-invariant
  /// domain) are never compacted — only this visualization store is.
  std::size_t interval_budget = 64;
};

/// One retained co-residency span of one job: the co-run group on the
/// job's bottleneck node was constant over [t0, t1) (or, after 2:1
/// compaction, the merge of `raws` adjacent such spans). Slowdown-seconds
/// are additive under merging; `node`/`corunners` keep the first raw's
/// bottleneck node and the max co-runner count.
struct Interval {
  double t0 = 0.0;
  double t1 = 0.0;
  double work = 0.0;     ///< work fraction completed in the span (dt * rate)
  double deficit = 0.0;  ///< attributed slowdown-seconds (dt - t_solo * work)
  double llc_s = 0.0;    ///< LLC-way share of the deficit
  double membw_s = 0.0;  ///< memory-bandwidth share
  double net_s = 0.0;    ///< network (NIC oversubscription) share
  double other_s = 0.0;  ///< residual (uncontended dust); sums the axis to
                         ///< `deficit` exactly by construction
  int node = -1;         ///< bottleneck (min-rate) node of the first raw
  int corunners = 0;     ///< max co-resident count on the bottleneck node
  std::uint32_t raws = 1;  ///< raw spans merged into this one
};

/// Attributed slowdown-seconds charged to one co-runner.
struct CorunnerShare {
  JobId other = -1;
  double seconds = 0.0;
};

/// Everything the recorder accounts for one job over its lifetime. The
/// scalar accumulators are the invariant domain (audited, never
/// compacted); `intervals` is the fixed-budget visualization store.
struct JobRollup {
  JobId id = -1;
  std::string program;
  double alpha = 0.9;
  double submit = 0.0;
  double start = -1.0;
  double finish = -1.0;
  // Solo baseline captured at start (the simulator's ground truth at the
  // allocated ways): t_solo = solo_comp + solo_comm + solo_wait, computed
  // once here and replayed verbatim by the auditor.
  double solo_comp = 0.0;
  double solo_comm = 0.0;
  double solo_wait = 0.0;
  double t_solo = 0.0;
  double solo_rate = 0.0;  ///< per-proc instruction rate when alone
  // ---- online accumulators (closed-interval sums, in close order) ----------
  double attributed = 0.0;  ///< sum of interval deficits
  double llc_s = 0.0;
  double membw_s = 0.0;
  double net_s = 0.0;
  double other_s = 0.0;
  double self_s = 0.0;  ///< co-runner-axis residual (unattributable dust)
  double work = 0.0;    ///< sum of dt * rate; ~1.0 at finish
  std::uint32_t raw_intervals = 0;
  double first_open = -1.0;  ///< == start (audited bit-exact)
  double last_close = -1.0;  ///< == finish once finished (audited bit-exact)
  // ---- finalized at finish --------------------------------------------------
  bool finished = false;
  double queue_wait = 0.0;  ///< start - submit
  double actual = 0.0;      ///< finish - start
  double target = 0.0;      ///< actual - t_solo (the deficit to reconcile)
  double closure = 0.0;     ///< target - attributed (FP dust; audited small)
  double stretch = 1.0;     ///< actual / t_solo (guarded near-zero t_solo)
  double bound = 0.0;       ///< 1 / alpha, the paper's degradation bound
  bool bound_violated = false;
  /// Attributed slowdown-seconds per co-runner, ascending id.
  std::vector<CorunnerShare> corunners;
  /// Fixed-budget compacted co-residency store (see FlightConfig).
  std::vector<Interval> intervals;
  std::uint32_t compaction_level = 0;  ///< tail capacity is 2^level raws
};

/// Cluster-level rollup, computed once at endRun() by an ascending-id walk
/// (deterministic — no hash-order iteration anywhere in this module).
struct Census {
  std::size_t jobs = 0;
  std::size_t finished = 0;
  std::size_t violations = 0;  ///< stretch > 1/alpha + kBoundSlack
  double total_attributed = 0.0;
  double total_llc = 0.0;
  double total_membw = 0.0;
  double total_net = 0.0;
  double total_other = 0.0;
  double total_queue_wait = 0.0;
  double worst_stretch = 0.0;
  JobId worst_job = -1;
  double max_abs_closure = 0.0;
  double makespan = 0.0;
};

/// Context of a freshly derived rate, captured when the simulator opens a
/// job's next co-residency interval at a settle point. All spans point
/// into simulator scratch and are consumed before the call returns.
struct OpenContext {
  double now = 0.0;
  double rate = 0.0;     ///< new progress rate, 1 / t_inst
  double t_inst = 0.0;   ///< instantaneous completion-time estimate
  double stretch = 1.0;  ///< solo_rate / bottleneck co-run rate
  double net_over = 1.0; ///< NIC oversubscription factor (>= 1)
  int bottleneck_node = -1;
  /// Solver outputs for this job on the bottleneck node: achieved and
  /// bandwidth-unconstrained per-proc rates. Splits the compute deficit
  /// into LLC-way vs memory-bandwidth shares (DESIGN.md section 12).
  double rate_pp = 0.0;
  double raw_rate_pp = 0.0;
  /// Leave-one-out deltas on the bottleneck node: for each co-resident k,
  /// this job's solved rate without k minus its rate with everyone
  /// (>= 0 up to rounding; negatives are clamped when weighting).
  std::span<const std::pair<JobId, double>> comp_deltas;
  /// Co-residents of the argmax-NIC-demand node with their NIC demand
  /// (GB/s); weights the network share of the deficit.
  std::span<const std::pair<JobId, double>> net_shares;
};

/// Interference flight recorder (DESIGN.md section 12): rides the
/// settled-at-rate-boundary engine. Every settle closes the job's open
/// co-residency interval [t0, now) under its outgoing rate and charges the
/// realized slowdown deficit
///
///     D = dt - t_solo * (dt * rate)
///
/// to resources (LLC ways / memory bandwidth / network, fractions frozen
/// at interval open from the contention solver's outputs) and to
/// co-runners (leave-one-out rate deltas); the residual of each axis keeps
/// the axis summing to D exactly. Per-job sums reconcile against
/// actual_runtime - solo_runtime at finish (the closure residual is FP
/// dust, bounded by the auditor); audit::Auditor::auditFlightLedger
/// replays the arithmetic bit-exactly.
///
/// Attach via SimConfig::flight (caller-owned, must outlive run()). The
/// simulator calls beginRun() itself, so one recorder instance measures
/// the most recent run and reuse needs no manual reset. Simulation
/// results are bit-identical with the recorder attached or not
/// (tests/sim/test_flight_equivalence.cpp), and rollups are identical
/// across every SimConfig::opt flag setting.
class FlightRecorder {
 public:
  explicit FlightRecorder(FlightConfig cfg = {});

  /// Publish end-of-run `degradation.*` gauges into `reg` (exported by
  /// renderPrometheus as `sns_degradation_*`). Caller-owned registry,
  /// must outlive the recorder's endRun() calls.
  void attachMetrics(obs::Registry* reg) { metrics_ = reg; }

  // ---- simulator hooks (sns/sim/cluster_sim.cpp) ----------------------------
  void beginRun(std::size_t n_jobs, int nodes);
  void onStart(JobId id, const std::string& program, double submit,
               double now, double solo_comp, double solo_comm,
               double solo_wait, double solo_rate, double alpha);
  /// Close the open interval [t0, now) under the outgoing context. A
  /// zero-length settle (dt == 0, e.g. the refresh that follows a start at
  /// the same instant) appends nothing.
  void settle(JobId id, double now);
  /// Replace the open context with the freshly derived rate. Must follow a
  /// settle() (or onStart()) at the same `now` — contiguity is structural.
  void reopen(JobId id, const OpenContext& ctx);
  /// Final settle at the finish instant + rollup finalization.
  void onFinish(JobId id, double now);
  void endRun(double makespan);

  // ---- results --------------------------------------------------------------
  bool runComplete() const { return run_complete_; }
  const std::vector<JobRollup>& jobs() const { return jobs_; }
  /// Null when `id` is outside the last run's job range.
  const JobRollup* find(JobId id) const;
  /// Attributed slowdown-seconds charged to each node (bottleneck-node
  /// attribution); the report's contention heatmap.
  std::span<const double> nodeSlowdown() const { return node_slowdown_; }
  const Census& census() const { return census_; }
  const FlightConfig& config() const { return cfg_; }

  /// Full deterministic dump (jobs ascending, census, node heatmap); the
  /// determinism tests byte-compare dump() output across runs and opt
  /// flag settings.
  util::Json toJson() const;

  /// Test hook (tests/audit): perturb one job's attributed sum so the
  /// audit tests can prove a mangled ledger is caught. Never called by
  /// production code.
  void debugCorruptJob(JobId id);

 private:
  struct OpenState {
    bool open = false;
    double t0 = 0.0;
    double rate = 0.0;
    int node = -1;
    int corunners = 0;
    // Resource fractions of the deficit, frozen at open.
    double f_llc = 0.0;
    double f_membw = 0.0;
    double f_net = 0.0;
    /// (co-runner id, weight) fractions of the deficit, ascending id;
    /// capacity reused across reopens.
    std::vector<std::pair<JobId, double>> weights;
  };

  JobRollup& rollup(JobId id);
  void appendInterval(JobRollup& jr, const Interval& raw);
  void addCorunnerSeconds(JobRollup& jr, JobId other, double seconds);

  FlightConfig cfg_;
  std::vector<JobRollup> jobs_;
  std::vector<OpenState> open_;
  std::vector<double> node_slowdown_;
  Census census_;
  obs::Registry* metrics_ = nullptr;
  bool run_complete_ = false;
};

// ---- renderers (report.cpp) -------------------------------------------------

/// `uberun why-slow --job J`: one job's lifetime account — stretch vs the
/// 1/alpha bound, the queue-wait / solo / interference split of its
/// end-to-end latency, per-resource attribution, top co-runners and the
/// reconciliation closure.
std::string renderWhySlow(const FlightRecorder& fr, JobId id);

/// `uberun why-slow` without --job: the census plus the most-degraded jobs
/// (by attributed slowdown-seconds, ties by ascending id), `limit` rows.
std::string renderWhySlowIndex(const FlightRecorder& fr, std::size_t limit);

/// "Degradation accounting" report section: census, resource split,
/// reconciliation summary, worst bound violations and the hottest nodes.
std::string renderDegradationReport(const FlightRecorder& fr,
                                    std::size_t top_n = 10);

}  // namespace sns::flight
