#pragma once

#include <memory>
#include <optional>
#include <string>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/obs/recorder.hpp"
#include "sns/perfmodel/estimator.hpp"
#include "sns/profile/database.hpp"
#include "sns/sched/job.hpp"
#include "sns/xray/span.hpp"

namespace sns::sched {

/// Placement strategy interface. A policy inspects (but does not mutate)
/// the cluster state and proposes a placement for one job; the caller
/// (scheduler / simulator) applies it to the ledger.
class SchedulingPolicy {
 public:
  virtual ~SchedulingPolicy() = default;

  virtual std::string name() const = 0;

  /// Propose a placement for `job`, or nullopt if it cannot start now.
  virtual std::optional<Placement> tryPlace(const Job& job,
                                            const actuator::ResourceLedger& ledger,
                                            const profile::ProfileDatabase& db) const = 0;

  /// Emit the events of a failed tryPlace() of `job` without selecting
  /// anything: tryPlace() calls it on failure, the simulator when its
  /// failed-spec memo answers instead. The text reads no selection query.
  virtual void explainFailure(const Job& job, const actuator::ResourceLedger& ledger,
                              const profile::ProfileDatabase& db) const = 0;

  /// Attach the caller-owned decision recorder; policies then explain each
  /// tryPlace() as schedule_attempt / placement_decided / exploration
  /// events (null or a sink-less recorder disables emission entirely).
  /// Emitting through the recorder mutates only the sink, so the hook is
  /// usable from the const tryPlace() path.
  void attachRecorder(obs::Recorder* rec) { rec_ = rec; }

  /// Attach the caller-owned decision tracer (sns::xray); policies then
  /// attribute tryPlace() cost to candidate-prune / curve-score spans and
  /// record placement provenance (scale walks, rejection reasons, winning
  /// score breakdowns). Null (the default) keeps tryPlace() span sites at
  /// one predictable branch each and records nothing. Like the recorder,
  /// the tracer is observational state only, so the hook is usable from
  /// the const tryPlace() path.
  void attachXray(xray::Tracer* tracer) { xray_ = tracer; }

 protected:
  bool tracing() const { return rec_ != nullptr && rec_->enabled(); }
  /// Provenance store to write, or nullptr when xray is detached or
  /// provenance is configured off.
  xray::ProvenanceStore* provenance() const {
    return xray_ != nullptr ? xray_->provenance() : nullptr;
  }
  /// Record placement `p` as job `job`'s decision in `prov`, with the
  /// selection-score breakdown (Co + Bo + beta x Wo, pre-allocation) of
  /// the winning nodes the store retains.
  void decide(xray::ProvenanceStore& prov, JobId job,
              const actuator::ResourceLedger& ledger, const Placement& p,
              int scale, double beta) const;
  obs::Recorder* rec_ = nullptr;
  xray::Tracer* xray_ = nullptr;
};

enum class PolicyKind { kCE, kCS, kSNS };

std::string to_string(PolicyKind k);

/// Factory. CE and CS ignore the profile database; SNS needs the estimator
/// only for footprint math (min nodes), never for ground-truth times.
std::unique_ptr<SchedulingPolicy> makePolicy(PolicyKind kind,
                                             const perfmodel::Estimator& est);

}  // namespace sns::sched
