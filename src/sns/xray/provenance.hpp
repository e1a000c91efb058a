#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sns/util/json.hpp"

namespace sns::xray {

/// Why a candidate scale (or a whole placement attempt) was rejected.
/// Stable values: they serialize into the provenance JSON.
enum class RejectReason : std::uint8_t {
  kNone = 0,              ///< not rejected (the winning attempt)
  kMultiNodeUnsupported,  ///< scale needs >1 node, program is single-node
  kClusterTooSmall,       ///< scale needs more nodes than the cluster has
  kInsufficientResources, ///< no node set with the cores+ways+bw free
  kNoIdleNodesForTrial,   ///< exploration trial found no idle node set
  kNoFeasibleScale,       ///< walk exhausted without any candidate scale
};

/// Stable lowercase name, e.g. "insufficient_resources".
const char* to_string(RejectReason r);

/// Human-readable sentence for explain reports.
std::string describe(RejectReason r);

/// One winning node with the score it was selected by and the occupancy
/// breakdown behind it (the paper's Co + Bo + beta x Wo, pre-allocation).
struct ScoredNode {
  int node = -1;
  double score = 0.0;
  double core_occ = 0.0;
  double way_occ = 0.0;
  double bw_occ = 0.0;
};

/// One step of a policy's scale-factor walk: the demand it derived and
/// why it was (or was not) rejected.
struct ScaleAttempt {
  int scale = 0;         ///< scale factor k
  int nodes = 0;         ///< node count the scale needs
  int cores = 0;         ///< cores per node requested
  int ways = 0;          ///< LLC ways per node requested (0 = unpartitioned)
  double bw_gbps = 0.0;  ///< per-node bandwidth demand
  RejectReason reason = RejectReason::kNone;
};

/// Everything recorded about the placement decision(s) for one job: the
/// scale walk of the *latest* tryPlace (failed attempts overwrite, so a
/// placed job keeps the walk that led to its placement), the winning
/// score breakdown, and solver-cache provenance of the deciding dispatch.
struct DecisionRecord {
  std::int64_t job = -1;
  std::string program;
  int procs = 0;
  double alpha = 0.0;  ///< slowdown threshold the demand was derived with
  double beta = 0.0;   ///< LLC weight of the node score

  double first_seen = -1.0;  ///< virtual time of the first tryPlace
  double decided = -1.0;     ///< virtual time of the successful tryPlace
  std::uint32_t attempts_total = 0;  ///< tryPlace invocations (incl. failed)

  bool placed = false;
  bool exclusive = false;
  bool exploration = false;  ///< placed as an exclusive profiling trial

  // Winning placement shape (valid when placed).
  int scale = 0;
  int ways = 0;
  int procs_per_node = 0;
  double bw_gbps = 0.0;

  /// The latest tryPlace's scale walk, in walk order.
  std::vector<ScaleAttempt> walk;
  /// Winning nodes with score breakdown, capped at max_candidates.
  std::vector<ScoredNode> chosen;
  int chosen_total = 0;  ///< full winning-node count before the cap

  /// Contention-solver activity credited to the placement: the co-run
  /// group solves of its pass's end-of-pass rate refresh whose group has
  /// this placement as its earliest resident placed in that pass — the
  /// placement that first dirtied the group's nodes (cache lookups, and
  /// how many hit).
  std::uint64_t solver_lookups = 0;
  std::uint64_t solver_hits = 0;
};

/// Deterministic per-decision provenance, indexed by the simulator's
/// contiguous job ids. All writes are POD appends into capacity-reused
/// vectors (no strings on the failure path), so the store is cheap enough
/// to stay on for every decision — `uberun explain` must answer for any
/// job, not just sampled ones. Identical inputs produce identical stores
/// (the simulator is deterministic and the store adds no ordering of its
/// own), which the determinism tests assert via toJson() equality.
class ProvenanceStore {
 public:
  explicit ProvenanceStore(std::size_t max_candidates = 8)
      : max_candidates_(max_candidates) {}

  /// Open (or re-open) the record for one tryPlace invocation. Clears the
  /// previous walk — the latest attempt's provenance is the one explain
  /// reports — and stamps first_seen on the first call.
  void beginAttempt(std::int64_t job, const std::string& program, int procs,
                    double alpha, double beta, double sim_time);
  /// Record a tryPlace invocation answered by the simulator's failed-spec
  /// memo instead of the policy: `source` failed with the same spec since
  /// the last change that could unblock it, so the policy would walk the
  /// same scales to the same rejections. Counts as an attempt exactly like
  /// beginAttempt() and takes `source`'s walk (and its alpha, beta and
  /// exploration mark) as this attempt's.
  void replayAttempt(std::int64_t job, std::int64_t source,
                     const std::string& program, int procs, double sim_time);
  /// Append one scale-walk step to the open record.
  void addAttempt(std::int64_t job, const ScaleAttempt& attempt);
  /// Record an exploration (exclusive profiling trial) outcome.
  void noteExploration(std::int64_t job, int trial_scale, bool placed);
  /// Record the winning placement of `chosen_total` nodes. `scored`
  /// carries the first of them with their selection-score breakdown; only
  /// maxCandidates() are retained, so callers need score no more.
  void decide(std::int64_t job, double sim_time, int scale, int ways,
              int procs_per_node, double bw_gbps, bool exclusive,
              const std::vector<ScoredNode>& scored, int chosen_total);
  std::size_t maxCandidates() const { return max_candidates_; }
  /// Attribute solver-cache activity to a job's deciding dispatch.
  void noteSolverDelta(std::int64_t job, std::uint64_t lookups,
                       std::uint64_t hits);

  std::size_t size() const { return records_.size(); }
  bool has(std::int64_t job) const {
    return job >= 0 && static_cast<std::size_t>(job) < records_.size() &&
           records_[static_cast<std::size_t>(job)].attempts_total > 0;
  }
  const DecisionRecord& record(std::int64_t job) const;
  const std::vector<DecisionRecord>& records() const { return records_; }

  /// Full dump, ascending job id — the determinism tests compare this
  /// across reruns byte for byte.
  util::Json toJson() const;

  void reset();

 private:
  DecisionRecord& slot(std::int64_t job);

  std::size_t max_candidates_ = 8;
  std::vector<DecisionRecord> records_;
};

}  // namespace sns::xray
