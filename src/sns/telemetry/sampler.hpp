#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sns/telemetry/sample.hpp"
#include "sns/telemetry/slo.hpp"
#include "sns/telemetry/timeseries.hpp"
#include "sns/util/thread_annotations.hpp"

namespace sns::telemetry {

/// Sampler knobs.
struct SamplerConfig {
  /// Sample cadence in (producer) seconds. Samples land exactly on
  /// multiples of the period, so series from different runs align.
  double period_s = 1.0;
};

/// Record one series per node (node.core_occ{node=i}) only when the
/// cluster has at most this many nodes; beyond it, the cross-node
/// min/mean/max aggregate series stand in. 32K per-node series would
/// dwarf the simulation itself.
constexpr int kPerNodeLimit = 64;

/// Periodic cluster-state sampler: the producer (the simulator's event
/// loop, or UberunSystem on the wall clock) offers its current state via
/// advanceTo(now, sample); the sampler writes one entry per elapsed period
/// boundary into the time-series store and runs the SLO watchdog once per
/// tick. Between discrete-event-simulator events the state is piecewise
/// constant, so stamping every boundary in the gap with the offered sample
/// is exact, not an approximation.
///
/// Thread contract: SNS_THREAD_COMPATIBLE — one producer thread drives
/// advanceTo()/recordScalar(); the cached series pointers below make
/// concurrent producers a data race by construction. Cross-thread use
/// (the daemon's wall-clock sampler) needs one Sampler per producer or an
/// external util::Mutex.
class SNS_THREAD_COMPATIBLE Sampler {
 public:
  Sampler(TimeSeriesStore& store, SamplerConfig cfg = {});

  const SamplerConfig& config() const { return cfg_; }
  TimeSeriesStore& store() { return *store_; }

  void attachWatchdog(SloWatchdog* wd) { watchdog_ = wd; }
  SloWatchdog* watchdog() const { return watchdog_; }

  /// True if at least one period boundary lies in (last sampled, now] —
  /// the producer's cheap pre-check before building a ClusterSample.
  bool due(double now) const { return now + 1e-12 >= next_; }

  /// Should the producer fill ClusterSample::node_core_occ?
  bool wantsPerNode(int nodes) const { return nodes <= kPerNodeLimit; }

  /// Record `s` at every period boundary in (last sampled, now]. The
  /// sample's own `time` field is ignored; each tick is stamped with its
  /// boundary time.
  void advanceTo(double now, const ClusterSample& s);

  /// Append a one-off scalar series entry (e.g. UberunSystem's wall-clock
  /// batch timings) without the periodic machinery.
  void recordScalar(const std::string& name, double t, double v,
                    Labels labels = {});

  std::uint64_t ticks() const { return ticks_; }

  /// Start a fresh run: the next sample lands on t = 0.
  void reset();

 private:
  void recordTick(double t, const ClusterSample& s);

  TimeSeriesStore* store_;
  SamplerConfig cfg_;
  SloWatchdog* watchdog_ = nullptr;
  double next_ = 0.0;  ///< next boundary to sample
  std::uint64_t ticks_ = 0;

  /// Resolved-once series pointers (map lookups off the per-tick path).
  Series* s_core_util_ = nullptr;
  Series* s_way_util_ = nullptr;
  Series* s_bw_util_ = nullptr;
  Series* s_busy_nodes_ = nullptr;
  Series* s_running_ = nullptr;
  Series* s_queue_depth_ = nullptr;
  Series* s_head_age_ = nullptr;
  Series* s_solver_hit_ = nullptr;
  Series* s_decision_p99_ = nullptr;
  Series* s_node_occ_min_ = nullptr;
  Series* s_node_occ_mean_ = nullptr;
  Series* s_node_occ_max_ = nullptr;
  std::vector<Series*> s_per_node_;  ///< grown on demand, indexed by node id
};

}  // namespace sns::telemetry
