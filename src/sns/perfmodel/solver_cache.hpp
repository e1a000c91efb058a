#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "sns/obs/metrics.hpp"
#include "sns/perfmodel/contention.hpp"

namespace sns::perfmodel {

/// Memoizing front-end for NodeContentionSolver::solve(). Trace replay
/// re-solves identical co-run sets thousands of times — every node of a
/// 4,096-node exclusive job carries the same single-share signature, and
/// steady-state co-run mixes recur across nodes and scheduling points —
/// so outcomes are cached keyed on the node's full co-run signature: per
/// share (program, procs, ways, remote_frac, mem_intensity, bw_cap), in
/// share order. The key is order-sensitive (permuted co-run sets hash to
/// different entries), which keeps hits trivially bit-identical to a fresh
/// solve: solve() is a pure function of the ordered share list.
///
/// Doubles are keyed on their exact bit patterns; any difference re-solves.
/// Programs are keyed by pointer identity, which is stable for the program
/// library the simulator resolves jobs against. Misses are filled through
/// the allocation-free flat path (NodeContentionSolver::solveInto), which
/// is bit-identical to solve().
class SolverCache {
 public:
  explicit SolverCache(const NodeContentionSolver& solver) : solver_(&solver) {}

  /// Solve `shares`, reusing a cached outcome when the signature was seen
  /// before. The returned reference stays valid until clear().
  const std::vector<ShareOutcome>& solve(std::span<const NodeShare> shares);

  void clear();
  std::size_t size() const { return cache_.size(); }
  /// Entry bound for the capacity safety valve (default kMaxEntries). A
  /// miss that finds the cache at or past the bound wipes it wholesale
  /// before inserting, counting every discarded entry as an eviction.
  /// Applied lazily on the next miss; shrinking below the current size
  /// does not wipe by itself. Exists so tests (and memory-capped runs)
  /// can exercise the eviction path the production bound almost never
  /// reaches — no benchmark trace produces a million distinct co-run
  /// signatures.
  void setCapacity(std::size_t max_entries) {
    capacity_ = max_entries > 0 ? max_entries : 1;
  }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Entries discarded by the capacity safety valve (whole-cache wipes).
  std::uint64_t evictions() const { return evictions_; }

  /// Publish hit/miss/evict counts as `solver.cache.{hits,misses,evictions}`
  /// counters in `reg`, updated inline on every lookup. The registry must
  /// outlive the cache (instrument references are stable). clear() resets
  /// the cache's own counters but never rolls the registry back — registry
  /// counters are cumulative across runs, like every other instrument.
  void attachMetrics(obs::Registry& reg);

  // ---- audit introspection (sns::audit) -------------------------------------
  /// Validate signature <-> entry consistency: every cached outcome list is
  /// exactly as long as its signature (solve() returns one outcome per
  /// share), signatures are non-empty, the last-signature fast path points
  /// at a live entry, and miss accounting covers the stored entries.
  /// Returns human-readable descriptions of every violated invariant
  /// (empty = consistent). O(entries); called by sns::audit.
  std::vector<std::string> auditInvariants() const;

  /// Test hook (tests/audit): truncate one cached entry's outcome list so
  /// the audit tests can prove corruption is caught. No-op on an empty
  /// cache. Never called by production code.
  void debugCorruptEntry();

 private:
  struct Key {
    const app::ProgramModel* prog;
    int procs;
    std::uint64_t ways_bits;
    std::uint64_t remote_bits;
    std::uint64_t intensity_bits;
    std::uint64_t cap_bits;
    bool operator==(const Key&) const = default;
  };
  using Signature = std::vector<Key>;

  struct SigHash {
    std::size_t operator()(const Signature& sig) const;
  };

  /// Nodes host at most a handful of co-runners, so the cache stays small
  /// in practice; the bound is a safety valve against pathological runs.
  static constexpr std::size_t kMaxEntries = 1 << 20;

  const NodeContentionSolver* solver_;
  std::size_t capacity_ = kMaxEntries;  ///< see setCapacity()
  std::unordered_map<Signature, std::vector<ShareOutcome>, SigHash> cache_;
  Signature scratch_;  ///< reused lookup key, no per-call allocation at steady state
  SolveScratch solve_scratch_;   ///< flat-path working set, reused across misses
  /// Most-recent entry, for the consecutive-identical-lookup fast path
  /// (stable across rehash: node-based map, entries only move on clear()).
  const Signature* last_sig_ = nullptr;
  const std::vector<ShareOutcome>* last_ = nullptr;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace sns::perfmodel
