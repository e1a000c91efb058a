#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/app/library.hpp"
#include "sns/app/workload_gen.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/recorder.hpp"
#include "sns/perfmodel/estimator.hpp"
#include "sns/perfmodel/solver_cache.hpp"
#include "sns/profile/database.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sched/corun_groups.hpp"
#include "sns/sched/finish_calendar.hpp"
#include "sns/sched/policies.hpp"
#include "sns/sched/queue.hpp"
#include "sns/telemetry/sampler.hpp"
#include "sns/xray/span.hpp"

namespace sns::audit {
class Auditor;
}

namespace sns::flight {
class FlightRecorder;
}

namespace sns::sim {

/// Simulator knobs. Every hot-path optimization is the simulator's one
/// implementation, not a switch: golden SimResult digests
/// (tests/sim/test_golden_digests.cpp) and the sns::audit invariants pin
/// its behaviour. See DESIGN.md "Simulator performance architecture".
///
/// The six observer pointers (sink, metrics, sampler, xray, auditor,
/// flight) are the only way an observer attaches to a run.
struct SimConfig {
  int nodes = 8;                    ///< cluster size
  sched::PolicyKind policy = sched::PolicyKind::kSNS;
  double monitor_episode_s = 30.0;  ///< per-node bandwidth sampling window;
                                    ///< <= 0 disables monitoring (big traces)
  double age_limit_s = 900.0;       ///< queue head age that stops backfilling
  int max_queue_scan = 1 << 20;     ///< max queue entries examined per point
  /// SNS's donate-unused-ways optimisation (§4.4); switchable for ablation.
  bool donate_unused_ways = true;
  /// Enforce per-job bandwidth reservations in hardware (Intel MBA). The
  /// paper's 2018 testbed lacked MBA, so its SNS only *estimates* usage —
  /// one source of slowdown-threshold violations (§6.2). Turning this on
  /// models an MBA-equipped cluster.
  bool enforce_bandwidth_caps = false;
  /// Piggybacked profiling (§4.1-4.2): exclusive runs are profiled by the
  /// per-node monitors and accumulated into a run-local database, so
  /// unknown programs converge to full profiles across submissions. The
  /// input database still seeds everything already known.
  bool online_profiling = false;
  /// PMU/episode knobs of the online monitor.
  profile::ProfilerConfig monitor;
  sched::SnsPolicy::Options sns;    ///< SNS-specific options
  /// Structured decision trace (sns::obs): every scheduling attempt,
  /// placement, way donation, backfill skip and job start/finish is
  /// recorded into this sink. Null (the default) disables tracing
  /// entirely — the hot loop then performs no event construction and no
  /// allocations. The sink is caller-owned and must outlive run().
  obs::EventSink* sink = nullptr;
  /// Metrics registry (counters / gauges / histograms under "sim.*").
  /// Null disables collection; caller-owned, must outlive run().
  obs::Registry* metrics = nullptr;
  /// Time-series telemetry (sns::telemetry): the simulator's event loop
  /// offers its state to the sampler on every virtual-clock advance, so
  /// utilization / queue / latency series land on the sampler's period
  /// grid. Null (the default) disables sampling entirely — the hot loop
  /// then performs one pointer check per event and nothing else. The
  /// sampler (and its store/watchdog) are caller-owned, must outlive
  /// run(), and measure ONE run each: call Sampler::reset() before
  /// reusing. Overhead with sampling on is <2% (bench_observer_overhead).
  telemetry::Sampler* sampler = nullptr;
  /// Event-loop tracer + provenance (sns::xray): every event-loop step
  /// becomes a span tree rooted at `event` (accounting, finish with its
  /// rate refreshes and solver calls, the decision pass with candidate
  /// pruning, curve scoring, commit and end-of-pass rate refresh, and the
  /// observer tail) with nanosecond attribution, and the policy records
  /// per-job placement provenance for `uberun explain`. Null (the default) is
  /// zero-cost — each span site is one predictable branch and no clocks
  /// are read. Sampling (TracerConfig::sample_period) bounds the overhead
  /// of attached tracers (bench_observer_overhead gates period 32 at
  /// 10%); simulation results are bit-identical with the
  /// tracer on or off (tests/sim/test_xray_equivalence.cpp). Caller-owned,
  /// must outlive run(); measures ONE run — call Tracer::reset() before
  /// reusing.
  xray::Tracer* xray = nullptr;
  /// Runtime invariant auditor (sns::audit): when set — and the build
  /// compiled the hooks in (SNS_AUDIT, on by default outside Release) —
  /// every scheduling point cross-validates the ledger's cached occupancy
  /// totals and idle-core buckets, the queue's tombstone accounting and
  /// the solver cache's memoized derivations against full recomputation.
  /// Null (the default) costs nothing; caller-owned, must outlive run().
  /// A fail-fast auditor makes run() throw audit::AuditError on the first
  /// violated invariant (`uberun audit` maps that to a nonzero exit).
  audit::Auditor* auditor = nullptr;
  /// Interference flight recorder (sns::flight): every rate boundary of
  /// every job becomes a closed co-residency interval with per-resource
  /// and per-co-runner slowdown attribution, rolled up into lifetime
  /// degradation accounts (`uberun why-slow`, the report's "Degradation
  /// accounting" section). Null (the default) is zero-cost — one
  /// predictable branch per settle site, no solver work. Recording reuses
  /// the memoized SolverCache for its leave-one-out attribution solves
  /// and reads simulator state read-only, so simulated results are
  /// bit-identical with the recorder on or off
  /// (tests/sim/test_flight_equivalence.cpp). Caller-owned, must outlive
  /// run(); run() calls beginRun() itself, so reuse needs no manual
  /// reset.
  flight::FlightRecorder* flight = nullptr;
};

/// Everything recorded about one job.
struct JobRecord {
  sched::JobId id = 0;
  app::JobSpec spec;
  double submit = 0.0;
  double start = -1.0;
  double finish = -1.0;
  sched::Placement placement;

  bool completed() const { return finish >= 0.0; }
  double waitTime() const { return start - submit; }
  double runTime() const { return finish - start; }
  double turnaround() const { return finish - submit; }
};

/// Output of one simulation.
struct SimResult {
  std::string policy;
  std::vector<JobRecord> jobs;
  double makespan = 0.0;           ///< start-to-end of the whole sequence
  double busy_node_seconds = 0.0;  ///< integral of occupied-node count
  /// Per-node average bandwidth per monitoring episode ([node][episode]).
  std::vector<std::vector<double>> node_bw_episodes;

  /// Means over *completed* jobs only; 0.0 when none completed, so partial
  /// or empty results never divide by zero and never leak NaN into
  /// downstream metrics.
  double meanTurnaround() const;
  double meanWait() const;
  double meanRun() const;
  /// The paper's overall throughput metric: reciprocal of the average
  /// submit-to-finish time of all jobs in the sequence (§6.2). 0.0 when
  /// nothing completed.
  double throughput() const {
    const double t = meanTurnaround();
    return t > 0.0 ? 1.0 / t : 0.0;
  }
};

/// Rate-based discrete-event cluster simulator. Jobs progress at rates
/// derived from the ground-truth contention model; every placement or
/// completion re-solves the co-run groups its ledger transitions name.
/// The scheduling policy only sees the resource ledger and the profile
/// database — never the ground truth — which preserves the paper's
/// belief-vs-reality split.
///
/// Hot-path state is dense: job ids are contiguous (assigned 0..n-1 per
/// run), so per-job state lives in vectors indexed by JobId with a compact
/// active-id list; nodes with equal ordered resident lists share one
/// co-run group (the ledger's, with sched::CorunGroups carrying its solved
/// rates); and per-event scratch buffers are hoisted into members. This is
/// what lets the paper's Fig 20 replay (7,044 jobs on up to 32K nodes) run
/// in seconds; see DESIGN.md "Simulator performance architecture".
class ClusterSimulator {
 public:
  ClusterSimulator(const perfmodel::Estimator& est,
                   const std::vector<app::ProgramModel>& library,
                   const profile::ProfileDatabase& db, SimConfig cfg);

  /// Simulate a job sequence (submit times taken from the specs).
  SimResult run(const std::vector<app::JobSpec>& jobs);

  const SimConfig& config() const { return cfg_; }

  /// Profiles accumulated by the online monitor during the last run()
  /// (only meaningful with cfg.online_profiling).
  const profile::ProfileDatabase& learnedProfiles() const { return local_db_; }

 private:
  /// Per-job engine state. Spec and placement live in the job's
  /// JobRecord (records_), never copied here.
  struct Running {
    sched::JobId id = 0;
    const app::ProgramModel* prog = nullptr;
    double comp_time_solo = 0.0;   ///< solo compute time at allocated ways
    double comm_data_time = 0.0;   ///< placement-fixed data-movement time
    double wait_time = 0.0;        ///< placement-fixed sync-wait time
    double remote_frac = 0.0;      ///< placement-fixed remote-traffic fraction
    double solo_rate = 0.0;        ///< per-proc instr rate when alone
    double rate = 0.0;             ///< d(remaining)/dt under current co-run
    // ---- settled-at-rate-boundary progress (DESIGN.md §11) -----------------
    double anchor_time = 0.0;      ///< virtual time of the last settlement
    double anchor_remaining = 1.0; ///< work fraction left at anchor_time
    /// Projected completion, anchor_time + anchor_remaining / rate,
    /// computed once per rate boundary. The calendar key; "done" means
    /// finish_time <= now, exactly.
    double finish_time = 0.0;
    double net_stretch = 1.0;      ///< NIC-contention stretch on comm time
    bool throttled = false;        ///< MBA cap currently binding (for events)
  };

  void schedule(double now);
  /// The step's observer tail under an `observe` span: auditTick() plus
  /// the sampler tick when a period boundary has elapsed.
  void observeStep(double now);
  void auditTick();  ///< cfg_.auditor checks (no-op unless SNS_AUDIT build)
  void sampleTelemetry(double now);  ///< offer state to cfg_.sampler
  /// One priority-ordered queue walk; a `futile` walk (passProvablyFutile)
  /// only replays each visit's memo entry to the observers.
  void scheduleSinglePass(double now, bool futile);
  bool tryDispatch(const sched::Job& job, double now);  ///< tryPlace + start
  /// Show the observers a tryPlace() of `job` that the failed-spec memo
  /// entry recorded by `source`'s attempt answered.
  void replayFailure(const sched::Job& job, sched::JobId source, double now);
  xray::ProvenanceStore* provenance() const {
    return cfg_.xray != nullptr ? cfg_.xray->provenance() : nullptr;
  }
  /// A rate-refresh entry: a group an event moved nodes into, and that
  /// incarnation's serial (ids are pooled and reused within a pass).
  struct DirtyGroup {
    sched::CorunGroups::GroupId group;
    std::uint64_t serial;
  };
  /// Append each non-idle destination of `moves` to `set`.
  void collectDirty(std::span<const actuator::ResourceLedger::Transition> moves,
                    std::vector<DirtyGroup>& set) const;
  /// Memoized solo-baseline lookup (pure function of the arguments).
  const perfmodel::SoloRun& soloMemo(const app::ProgramModel& prog, int procs,
                                     int nodes, double ways);
  /// Start `job` on `p`, which moves into the job's record.
  void startJob(const sched::Job& job, sched::Placement&& p, double now);
  void finishJob(sched::JobId id, double now);
  /// Solve co-run group `g` from its own state (every member node holds the
  /// same allocations) and store the per-resident rate / bandwidth in the
  /// group. True when the solver cache answered the solve.
  bool solveGroup(sched::CorunGroups::GroupId g);
  /// Re-solve the groups of `dirty` whose incarnation is still live, each
  /// once, in list order, and re-derive the progress rate of every job
  /// resident in one of them, settling each at `now` (the rate boundary,
  /// the instant the co-run changed) and re-keying the finish calendar.
  /// `credit` receives each solve, credited to group_owner_.
  void refreshRates(double now, const std::vector<DirtyGroup>& dirty,
                    xray::ProvenanceStore* credit = nullptr);
  /// Busy-node list upkeep after `nodes` gained (joined) or lost a
  /// resident.
  void updateBusyNodes(const std::vector<int>& nodes, bool joined);
  /// Serial of node `nd`'s co-run group incarnation.
  std::uint64_t nodeSerial(int nd) const {
    return ledger_.group(ledger_.groupOf(nd)).serial;
  }
  /// The flight bottleneck: the first of job `id`'s placement `nodes` (in
  /// order) whose co-run group carries its minimum rate `corun_rate`.
  int firstMinRateNode(sched::JobId id, double corun_rate,
                       const std::vector<int>& nodes);
  /// Open job `id`'s next flight-recorder co-residency interval under the
  /// rate context refreshRates just derived — including the bottleneck
  /// (min-rate) and max-NIC-demand nodes it picked: reads the bottleneck
  /// group's solve for the LLC-vs-bandwidth split and its leave-one-out
  /// rows for the co-runner deltas, and hands the result to cfg_.flight.
  /// Only called with a recorder attached; changes no simulation state.
  void flightReopen(sched::JobId id, const Running& r, double now,
                    double t_inst, double stretch, double net_over,
                    int bottleneck, int net_node);
  /// Derive group `g`'s leave-one-out rows from its last solve.
  void flightLeaveOneOut(sched::CorunGroups::GroupId g);
  /// True when schedule(now) provably cannot place anything: the queue is
  /// empty, or the previous pass placed nothing with every failure
  /// memoized and nothing since could unblock one (no admission, no
  /// profile change, and every release stayed below the failed-spec
  /// memo's query-core floor — peeked, not consumed). schedule() then
  /// skips the pass: only an event sink or a provenance store is shown
  /// the replayed walk.
  bool passProvablyFutile() const;
  void accumulate(double t0, double t1);
  void admit(sched::Job job);
  /// True when way-donation changes are observed (event sink or the
  /// sim.ways_donated counter) — the only reason to call noteDonations().
  bool donationsObserved() const;
  /// Emit one ways_donated / ways_reclaimed event for each of `moves` (the
  /// ledger transitions job `id`'s start or finish just made) whose
  /// donated total per node (actuator::donatedWays) changed, and add the
  /// donations, times their node counts, to sim.ways_donated. Only called
  /// when observing.
  void noteDonations(sched::JobId id,
                     std::span<const sched::CorunGroups::Transition> moves);

  Running& running(sched::JobId id) { return running_[static_cast<std::size_t>(id)]; }
  bool alive(sched::JobId id) const {
    return active_pos_[static_cast<std::size_t>(id)] >= 0;
  }
  const JobRecord& record(sched::JobId id) const {
    return records_[static_cast<std::size_t>(id)];
  }
  void activate(sched::JobId id);
  void deactivate(sched::JobId id);

  const perfmodel::Estimator* est_;
  const std::vector<app::ProgramModel>* library_;
  const profile::ProfileDatabase* db_;
  SimConfig cfg_;
  profile::ProfileDatabase local_db_;  ///< db_ + online-learned profiles
  std::unique_ptr<profile::Profiler> monitor_;

  std::unique_ptr<sched::SchedulingPolicy> policy_;
  actuator::ResourceLedger ledger_;
  sched::JobQueue queue_;
  perfmodel::SolverCache solve_cache_;

  /// Dense per-job state, indexed by contiguous JobId (0..n_jobs-1).
  std::vector<Running> running_;
  std::vector<JobRecord> records_;
  std::vector<sched::JobId> active_;       ///< ids of in-flight jobs
  std::vector<std::int32_t> active_pos_;   ///< id -> index in active_, -1 if idle

  /// Every co-run group's solved rates and NIC demand (ground-truth
  /// network contention) and every running job's group histogram, over
  /// the ledger's groups. While no group's NIC demand exceeds
  /// net_bw_gbps, every derivation's NIC stretch is exactly 1.0 (DESIGN.md
  /// section 11).
  sched::CorunGroups groups_;
  /// Refresh stamp for CorunGroups::Slot::stamp (solve each group once).
  std::uint64_t group_epoch_ = 0;
  /// nodes hosting at least one job (so accumulate() touches only them);
  /// maintained only while episode monitoring, its one reader, is on
  std::vector<int> busy_nodes_;
  std::vector<std::int32_t> busy_pos_;     ///< node -> index in busy_nodes_, -1

  std::vector<double> episode_accum_;   ///< per-node GB*s within current episode
  std::vector<std::vector<double>> episodes_;
  double episode_start_ = 0.0;
  double busy_integral_ = 0.0;

  /// Hoisted scratch buffers (no per-event allocation at steady state).
  std::vector<sched::JobId> affected_scratch_;
  std::vector<std::uint32_t> job_stamp_;   ///< refreshRates dedup stamps
  std::uint32_t stamp_epoch_ = 0;
  std::vector<std::pair<int, double>> bw_scratch_;  ///< (node, bandwidth)
  std::vector<sched::JobId> done_scratch_;

  // ---- flight-recorder attribution scratch (cfg_.flight only) ---------------
  std::vector<perfmodel::NodeShare> flight_loo_shares_;  ///< leave-one-out
  std::vector<std::pair<sched::JobId, double>> flight_comp_deltas_;
  std::vector<std::pair<sched::JobId, double>> flight_net_shares_;
  std::vector<double> flight_capped_;  ///< per-share roofline-capped bandwidth
  /// A co-run group's leave-one-out rows ([k*r+i] = resident i's rate
  /// with resident k removed), by group id: derived on the first reopen
  /// that needs them, for the incarnation `serial` names (records are
  /// reused with the pooled ids).
  struct FlightGroupMemo {
    std::uint64_t serial = 0;  ///< 0 = never derived (serials start at 1)
    std::vector<double> loo;
  };
  std::vector<FlightGroupMemo> flight_group_memo_;
  /// Leave-one-out rows of free-sharing signatures, which need real
  /// solves: content-addressed and never invalidated, so each distinct
  /// signature is solved once per run. One share's slice of the key
  /// (mem_intensity is always 1.0 on this path and carries no
  /// information): doubles by exact bit pattern, programs by identity —
  /// both as in SolverCache.
  struct FlightSigKey {
    const app::ProgramModel* prog;
    int procs;
    std::uint64_t ways_bits;
    std::uint64_t remote_bits;
    std::uint64_t cap_bits;
    bool operator==(const FlightSigKey&) const = default;
  };
  using FlightSig = std::vector<FlightSigKey>;
  struct FlightSigHash {
    std::size_t operator()(const FlightSig& sig) const;
  };
  std::unordered_map<FlightSig, std::vector<double>, FlightSigHash>
      flight_sig_memo_;
  FlightSig flight_sig_scratch_;  ///< reused lookup key, no per-probe allocation
  /// Key of each job's currently open interval. When a refresh re-derives
  /// bit-identical values and the attribution inputs' residencies are
  /// unchanged, reopen() would rebuild a byte-identical OpenState — so the
  /// settle/reopen pair is skipped outright and the open interval extends.
  /// Every field the reopened state depends on is either here or read
  /// from a node whose co-run group serial is here; the comparison is pure
  /// FP/integer equality, so the skip decision depends on the derived
  /// values alone and the interval stores stay byte-comparable.
  ///
  /// A serial stands in for the node's residency history exactly: both
  /// nodes are the job's own, so every residency change on them triggers
  /// a refresh that re-derives the job, and a node cannot come back to a
  /// group incarnation without such a refresh in between (within one
  /// scheduling pass residents only arrive, so its list only grows). Any
  /// change therefore shows up as a different serial at the next
  /// derivation, forcing the reopen that updates this key.
  struct FlightOpenKey {
    double rate = 0.0;
    double t_inst = 0.0;
    double stretch = 0.0;
    double net_over = 0.0;
    int bottleneck = -1;
    int net_node = -1;
    std::uint64_t bneck_serial = 0;
    std::uint64_t net_serial = 0;
    bool valid = false;
  };
  std::vector<FlightOpenKey> flight_open_key_;

  // ---- O(log n) event engine state (DESIGN.md section 11) -------------------
  /// Finish-time calendar: contains exactly the active jobs between
  /// scheduling points, keyed by Running::finish_time.
  sched::FinishCalendar calendar_;
  /// Futile-pass gate state: true when the last executed pass placed
  /// nothing, so every job it visited holds a failed-spec memo entry — the
  /// precondition for skipping a provably identical pass. Cleared by
  /// admissions and at run start.
  bool futile_ready_ = false;
  /// Placements committed by the pass currently executing.
  int pass_placements_ = 0;
  /// Minimum query-core floor across live failed-spec memo entries
  /// (monotone under purges: stale-low is conservative — the gate runs a
  /// pass it could have skipped, never skips one it must run).
  int failed_specs_min_floor_ = 0;
  /// High-water mark of the active-job count this run (sim.active_jobs_hwm).
  std::size_t active_hwm_ = 0;

  // ---- batched queue-head scoring state -------------------------------------
  /// "This spec cannot currently be placed" memo over the exact inputs
  /// tryPlace() reads off a job: program identity, process count, alpha
  /// bits. run() interns each job's triple once into a dense per-run spec
  /// id (job_spec_), so the memo is an array indexed by spec id and a
  /// queue visit costs no hash. Each entry carries the minimum idle-core
  /// count any of the failed attempt's ledger queries asked for (the
  /// query-core floor): a release invalidates only entries whose floor the
  /// freed node's new idle count reaches — no other entry's queries could
  /// see the freed node. A profile-database change clears everything.
  /// Re-interned and cleared per run. The entry also names the job whose
  /// attempt recorded it: its provenance walk is the one a memo hit
  /// replays.
  struct SpecKey {
    const app::ProgramModel* prog = nullptr;
    int procs = 0;
    std::uint64_t alpha_bits = 0;
    bool operator==(const SpecKey&) const = default;
  };
  struct SpecKeyHash {
    std::size_t operator()(const SpecKey& k) const;
  };
  struct FailedSpec {
    int floor = 0;        ///< query-core floor of the failed attempt
    sched::JobId job = -1;  ///< the job whose attempt failed; -1 = no entry
  };
  std::vector<std::uint32_t> job_spec_;      ///< job id -> spec id
  std::vector<FailedSpec> failed_specs_;     ///< spec id -> memo entry
  /// Spec ids holding an entry, in no meaningful order (the surviving set
  /// of a purge depends on the watermark alone). Reserved to the spec
  /// count at run start, so recording a failure never allocates.
  std::vector<std::uint32_t> failed_live_;
  std::uint64_t failed_specs_release_epoch_ = 0;
  std::uint64_t failed_specs_generation_ = 0;
  bool failed_specs_valid_ = false;
  /// Solo/soloCE baseline memo — Estimator::solo() is a pure function of
  /// (program, procs, nodes, ways) for a fixed machine.
  struct SoloKey {
    const app::ProgramModel* prog = nullptr;
    int procs = 0;
    int nodes = 0;
    std::uint64_t ways_bits = 0;
    bool operator==(const SoloKey&) const = default;
  };
  struct SoloKeyHash {
    std::size_t operator()(const SoloKey& k) const;
  };
  std::unordered_map<SoloKey, perfmodel::SoloRun, SoloKeyHash> solo_memo_;
  /// End-of-pass refresh set: the destinations of this pass's joins, in
  /// commit order. A pass only joins, so its live entries are exactly the
  /// groups holding a node placed this pass.
  std::vector<DirtyGroup> pass_dirty_;
  std::vector<DirtyGroup> finish_dirty_;  ///< one release's destinations
  /// Provenance only: group id -> the earliest placement of the pass among
  /// its residents. Groups with a serial above pass_serial_floor_ (the
  /// ledger's last serial when the pass began) are this pass's.
  std::vector<sched::JobId> group_owner_;
  std::uint64_t pass_serial_floor_ = 0;

  /// Decision tracing + metrics (sns::obs). The recorder's sink is wired
  /// per run() to the configured sink.
  obs::Recorder rec_;
  telemetry::ClusterSample sample_scratch_;  ///< hoisted sampler snapshot
  obs::Counter* m_solver_calls_ = nullptr;
  obs::Counter* m_solver_memo_hits_ = nullptr;
  obs::Counter* m_submitted_ = nullptr;
  obs::Counter* m_started_ = nullptr;
  obs::Counter* m_finished_ = nullptr;
  obs::Counter* m_backfill_skips_ = nullptr;
  obs::Counter* m_sched_passes_ = nullptr;
  obs::Counter* m_ways_donated_ = nullptr;
  obs::Counter* m_spec_skips_ = nullptr;       ///< sim.spec_skips
  obs::Counter* m_futile_skips_ = nullptr;     ///< sim.futile_pass_skips
  obs::Gauge* m_active_hwm_ = nullptr;         ///< sim.active_jobs_hwm
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_busy_nodes_ = nullptr;
  obs::Histogram* m_wait_s_ = nullptr;
  obs::Histogram* m_run_s_ = nullptr;
  obs::Histogram* m_decision_us_ = nullptr;
  obs::Histogram* m_stretch_ = nullptr;        ///< sim.stretch (vs solo)
};

}  // namespace sns::sim
