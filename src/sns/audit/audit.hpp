#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/flight/flight.hpp"
#include "sns/obs/recorder.hpp"
#include "sns/perfmodel/solver_cache.hpp"
#include "sns/sched/corun_groups.hpp"
#include "sns/sched/finish_calendar.hpp"
#include "sns/sched/queue.hpp"
#include "sns/telemetry/timeseries.hpp"

/// SNS_AUDIT_ENABLED: 1 when the build compiles the scheduler-stack audit
/// hooks in (every build type except plain Release by default; see the
/// SNS_AUDIT option in the top-level CMakeLists). The sns::audit library
/// itself is always built — only the hot-path hooks inside the simulator
/// vanish when the flag is off.
#if defined(SNS_AUDIT)
#define SNS_AUDIT_ENABLED 1
#else
#define SNS_AUDIT_ENABLED 0
#endif

namespace sns::audit {

/// Thrown by a fail-fast Auditor on the first violated invariant, so
/// `uberun audit` can exit nonzero the moment the scheduler state
/// diverges from a full recomputation.
class AuditError : public std::runtime_error {
 public:
  explicit AuditError(const std::string& what) : std::runtime_error(what) {}
};

/// One failed invariant check.
struct Violation {
  std::string check;   ///< dotted check name, e.g. "ledger.core_total"
  std::string detail;  ///< human-readable cause
  double observed = 0.0;
  double expected = 0.0;
};

struct AuditorConfig {
  /// Throw AuditError on the first violation (after recording and
  /// emitting it) instead of accumulating. `uberun audit` runs fail-fast.
  bool fail_fast = false;
  /// Retain at most this many violations verbatim (the counter keeps
  /// counting past it, so a corrupt long run cannot exhaust memory).
  std::size_t max_recorded = 256;
};

/// Runtime invariant auditor: cross-validates the scheduler stack's
/// hand-maintained O(1) caches against full recomputation from ground
/// truth — together with the golden SimResult digests, what pins the
/// simulator's one implementation:
///
///   - ResourceLedger: cached occupancy totals and per-node occupancy
///     fractions vs re-summed per-node allocations; every node present in
///     exactly the idle-core bucket matching its recomputed idle count,
///     with bucket population counts matching enumeration; every node
///     naming a live exact node-state class whose member count, group and
///     bucket agree with a recount. The ledger memoizes no selection, so
///     there is no selection memo to re-execute: a selection is checked
///     against the reference ledger in tests, not here.
///   - JobQueue: tombstone / live-count / position-index accounting vs a
///     recount of the slot store, plus priority ordering.
///   - SolverCache: every memoized derivation re-derives bit-identically,
///     plus table consistency (stored hashes, probe reachability, live
///     count).
///   - Co-run groups: member counts vs a recount, group totals vs their
///     allocation lists, bucket membership vs group idle cores, job
///     histograms vs placement widths.
///   - TimeSeriesStore: per-series time monotonicity and aggregation
///     conservation (sum of point counts == raw samples appended).
///
/// Violations are recorded, optionally emitted as `audit_violation` events
/// through an obs::Recorder (so they land in Perfetto traces and reports),
/// and optionally escalate to AuditError (fail_fast).
class Auditor {
 public:
  explicit Auditor(AuditorConfig cfg = {}) : cfg_(cfg) {}

  const AuditorConfig& config() const { return cfg_; }

  /// Route violations into the obs stream as audit_violation events. The
  /// recorder is borrowed (caller-owned, must outlive the audits); the
  /// simulator attaches its own per-run recorder when a SimConfig names
  /// this auditor.
  void setRecorder(obs::Recorder* rec) { rec_ = rec; }

  // ---- individual check families (each returns new violations found) -------
  std::size_t auditLedger(const actuator::ResourceLedger& ledger);
  std::size_t auditQueue(const sched::JobQueue& queue);
  std::size_t auditSolverCache(const perfmodel::SolverCache& cache);
  std::size_t auditTimeSeries(const telemetry::TimeSeriesStore& store);
  /// Cross-validate the simulator's finish-time calendar against
  /// `expected`: exactly those jobs present, every key bit-identical to
  /// the recomputed projection, heap invariants intact, and the top entry
  /// the true (key, id) minimum. `expected` is the caller's full
  /// recomputation (the simulator rebuilds it from the active-job list on
  /// every audited scheduling point).
  std::size_t auditFinishCalendar(
      const sched::FinishCalendar& cal,
      const std::vector<std::pair<sched::JobId, double>>& expected);
  /// Self-check of the ledger's co-run group table (the one node state)
  /// and the simulator's job histograms over it, given `widths` (every
  /// running job with its placement width):
  ///   - every node names a live group, and every group's member count
  ///     equals the number of nodes naming it (pooled records: zero);
  ///   - every live group's cached totals, exclusive flag,
  ///     partitioned-resident count and occupancy fractions reproduce
  ///     bit-for-bit from its allocation list, which names no job twice;
  ///   - every node sits in the idle-core bucket of its group's idle cores;
  ///   - every histogram entry points at a group that lists the job at
  ///     the recorded index, with the group's member count, and a running
  ///     job's counts sum to its placement width.
  std::size_t auditCorunGroups(
      const actuator::ResourceLedger& ledger, const sched::CorunGroups& groups,
      const std::vector<std::pair<sched::JobId, int>>& widths);
  /// Reconcile the interference flight recorder's per-job slowdown
  /// ledgers (sns::flight, DESIGN.md section 12). Bit-exact checks —
  /// coverage chain (first interval opens at `start`, last closes at
  /// `finish`) and a verbatim replay of the recorder's closure expression
  /// `((finish − start) − t_solo) − attributed` — plus dust-bounded
  /// checks (|closure|, |work − 1|, resource/co-runner axis sums vs the
  /// attributed total) that catch any dropped or double-counted interval.
  /// The simulator calls this once per run, after endRun().
  std::size_t auditFlightLedger(const flight::FlightRecorder& fr);

  /// The per-scheduling-point bundle ClusterSimulator drives: ledger +
  /// queue + solver cache.
  std::size_t auditSchedulerState(const actuator::ResourceLedger& ledger,
                                  const sched::JobQueue& queue,
                                  const perfmodel::SolverCache& cache);

  // ---- results --------------------------------------------------------------
  bool ok() const { return total_violations_ == 0; }
  /// Violations retained verbatim (capped at config().max_recorded).
  const std::vector<Violation>& violations() const { return violations_; }
  std::uint64_t totalViolations() const { return total_violations_; }
  std::uint64_t checksRun() const { return checks_run_; }
  std::uint64_t passesRun() const { return passes_run_; }

  /// Human-readable summary: checks run, violations (or "all clean").
  std::string report() const;

 private:
  /// One primitive check: counts it, and on failure records / emits /
  /// (fail_fast) throws.
  void check(bool ok_cond, std::string_view check_name, double observed,
             double expected, const std::string& detail);

  AuditorConfig cfg_;
  obs::Recorder* rec_ = nullptr;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::uint64_t passes_run_ = 0;
};

}  // namespace sns::audit
