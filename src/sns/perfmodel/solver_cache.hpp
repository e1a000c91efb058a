#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sns/obs/metrics.hpp"
#include "sns/perfmodel/contention.hpp"

namespace sns::perfmodel {

/// Memoizing front-end for NodeContentionSolver::solve(). Trace replay
/// re-solves the same shares thousands of times — every node of a
/// 4,096-node exclusive job carries the same single share, and co-run mixes
/// recur across nodes and scheduling points, often in another order — so
/// the memo holds per-share *derivations* (NodeContentionSolver::derive),
/// keyed on the share's bits — (program, procs, remote_frac,
/// mem_intensity, bw_cap) — and the ways it is derived at, and every call
/// recombines them per node in share order through
/// NodeContentionSolver::solveInto. A derivation is a pure function of its
/// key and the combine is the solver's own, so every outcome is
/// bit-identical to a fresh solve, and a permuted co-run set costs no
/// derivation at all. Free-sharing shares read the memo at each iterate of
/// their fixed point. A lone free-sharing share (CE's whole-node
/// placements) also stores where its fixed point ends, keyed on its own
/// non-positive ways, so a repeated singleton solve is one probe. It is
/// stored only when every iterate's derivation survives the solve and is
/// wiped with them, so hits and misses do not depend on it; it counts
/// toward neither size() nor the capacity bound.
///
/// Doubles are keyed on their exact bit patterns; any difference derives
/// afresh. Programs are keyed by pointer identity, which is stable for the
/// program library the simulator resolves jobs against.
///
/// Storage is flat: an open-addressed, linearly probed table of entries
/// that hold key and derivation inline, at most 3/4 full, so a warm call
/// never allocates. A call counts as a miss when it derives at least one
/// share fresh, as a hit otherwise.
class SolverCache : private DerivationSource {
 public:
  explicit SolverCache(const NodeContentionSolver& solver) : solver_(&solver) {}

  /// Solve `shares` from memoized derivations, deriving the ones never
  /// seen. One outcome per share, in share order. The span stays valid
  /// until the next solve() or clear().
  std::span<const ShareOutcome> solve(std::span<const NodeShare> shares);

  void clear();
  /// Stored derivations (lone fixed points not included).
  std::size_t size() const { return size_; }
  /// Entry bound for the capacity safety valve (default kMaxEntries). A
  /// fresh derivation that finds the memo at or past the bound wipes it
  /// wholesale before inserting, counting every discarded entry as an
  /// eviction. Applied lazily on the next fresh derivation; shrinking below
  /// the current size does not wipe by itself. Exists so tests (and
  /// memory-capped runs) can exercise the eviction path the production
  /// bound never reaches — a Fig-20 replay stores a few thousand
  /// derivations.
  void setCapacity(std::size_t max_entries) {
    capacity_ = max_entries > 0 ? max_entries : 1;
  }
  std::size_t capacity() const { return capacity_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Entries discarded by the capacity safety valve (whole-memo wipes).
  std::uint64_t evictions() const { return evictions_; }

  /// Publish hit/miss/evict counts as `solver.cache.{hits,misses,evictions}`
  /// counters in `reg`, updated inline on every call. The registry must
  /// outlive the cache (instrument references are stable). clear() resets
  /// the cache's own counters but never rolls the registry back — registry
  /// counters are cumulative across runs, like every other instrument.
  void attachMetrics(obs::Registry& reg);

  // ---- audit introspection (sns::audit) -------------------------------------
  /// Validate the memo: every stored derivation re-derives bit-identically,
  /// every lone fixed point re-solves to its ways,
  /// its stored hash is its key's hash and its home slot reaches it
  /// without crossing an empty slot, and the live count matches size().
  /// Returns human-readable descriptions of every violated invariant,
  /// sorted (empty = consistent); entries are named by program, procs and
  /// ways, never by slot, because slot order follows program addresses.
  /// O(table slots); called by sns::audit.
  std::vector<std::string> auditInvariants() const;

  /// Test hook (tests/audit): flip the low bit of one stored derivation's
  /// miss ratio so the audit tests can prove corruption is caught. No-op on
  /// an empty memo. Never called by production code.
  void debugCorruptEntry();

 private:
  /// One share's bits plus the ways it is derived at — or, for a lone
  /// fixed point, the share's own ways (<= 0).
  struct Key {
    const app::ProgramModel* prog = nullptr;
    int procs = 0;
    std::uint64_t ways_bits = 0;
    std::uint64_t remote_bits = 0;
    std::uint64_t intensity_bits = 0;
    std::uint64_t cap_bits = 0;
    bool operator==(const Key&) const = default;
  };

  /// One table slot; `key.prog == nullptr` marks it empty. `d` is the
  /// derivation at `at` ways: the key's ways, or a lone share's fixed point.
  struct Entry {
    Key key;
    ShareDerivation d;
    double at = 0.0;
    std::uint32_t hash = 0;
  };

  /// The memoized derivation solveInto() asks for: a probe, and on a miss
  /// a fresh derivation inserted where the probe ended.
  ShareDerivation derive(const NodeShare& share, double ways) override;
  std::optional<LoneFixedPoint> findLone(const NodeShare& share) override;
  /// Skipped when the running solve() wiped an iterate's derivation.
  void storeLone(const NodeShare& share, const LoneFixedPoint& fp) override;

  static Key keyOf(const NodeShare& share, double ways);
  static bool isLone(const Key& key) { return !(std::bit_cast<double>(key.ways_bits) > 0.0); }
  static NodeShare shareOf(const Key& key);
  static std::uint32_t hashOf(const Key& key);
  /// Slot holding `key` (hashing to `h`), or the empty slot that ends its
  /// probe sequence.
  std::size_t probe(std::uint32_t h, const Key& key) const;
  /// Store `e` where the probe for its key ended, growing first if due.
  void insert(std::size_t slot, const Entry& e);
  void grow();
  /// Drop every entry, keeping the table storage.
  void wipe();

  /// A few thousand derivations cover a replay; the bound is a safety
  /// valve against pathological runs.
  static constexpr std::size_t kMaxEntries = 1 << 20;

  const NodeContentionSolver* solver_;
  std::size_t capacity_ = kMaxEntries;  ///< see setCapacity()
  std::vector<Entry> table_;  ///< power-of-two slots, at most 3/4 full
  std::size_t size_ = 0;
  std::size_t lone_ = 0;        ///< stored lone fixed points
  bool derived_fresh_ = false;  ///< the running solve() derived a share
  bool wiped_ = false;          ///< the running solve() wiped the memo
  std::vector<ShareOutcome> out_;  ///< solve()'s result, reused across calls
  SolveScratch scratch_;           ///< solveInto() working set, reused
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace sns::perfmodel
