#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
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
///
/// Storage is flat: an open-addressed, linearly probed table of small
/// entries (key pointer, outcome pointer, hash, length) over two block
/// arenas that hold each entry's keys and outcomes contiguously. Blocks
/// never move once allocated and are reused after a wipe, so a miss
/// copies into warm memory and allocates only when the arenas or the
/// table grow.
class SolverCache {
 public:
  explicit SolverCache(const NodeContentionSolver& solver) : solver_(&solver) {}

  /// Solve `shares`, reusing a cached outcome when the signature was seen
  /// before. One outcome per share, in share order. The span stays valid
  /// until the next solve() or clear() (a miss may wipe the cache and
  /// reuse its storage).
  std::span<const ShareOutcome> solve(std::span<const NodeShare> shares);

  void clear();
  std::size_t size() const { return size_; }
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
  /// Validate the table: every live entry has a non-empty signature, its
  /// stored hash is its signature's hash and its home slot reaches it
  /// without crossing an empty slot, the live count matches size(), the
  /// last-signature fast path points at a live entry, and miss accounting
  /// covers the stored entries. Returns human-readable descriptions of
  /// every violated invariant (empty = consistent). O(table slots);
  /// called by sns::audit.
  std::vector<std::string> auditInvariants() const;

  /// Test hook (tests/audit): flip one live entry's stored hash so the
  /// audit tests can prove corruption is caught. No-op on an empty cache.
  /// Never called by production code.
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

  /// One table slot (24 bytes); `key == nullptr` marks it empty.
  struct Entry {
    const Key* key = nullptr;
    const ShareOutcome* out = nullptr;
    std::uint32_t hash = 0;
    std::uint32_t len = 0;
  };

  /// Append-only storage in fixed-size blocks. Blocks never move, so the
  /// pointers handed out stay valid until reset(), which rewinds to the
  /// first block and keeps every block for reuse.
  template <typename T>
  class BlockArena {
   public:
    T* append(std::span<const T> src);
    void reset() {
      block_ = 0;
      used_ = 0;
    }

   private:
    static constexpr std::size_t kBlockSize = 1024;
    struct Block {
      std::unique_ptr<T[]> data;
      std::size_t size = 0;
    };
    std::vector<Block> blocks_;
    std::size_t block_ = 0;  ///< block being filled
    std::size_t used_ = 0;   ///< slots taken in blocks_[block_]
  };

  static std::uint32_t hashOf(std::span<const Key> sig);
  /// Slot holding `sig` (hashing to `h`), or the empty slot that ends its
  /// probe sequence.
  std::size_t probe(std::uint32_t h, std::span<const Key> sig) const;
  void grow();
  /// Drop every entry, keeping the table and arena storage.
  void wipe();

  /// Nodes host at most a handful of co-runners, so the cache stays small
  /// in practice; the bound is a safety valve against pathological runs.
  static constexpr std::size_t kMaxEntries = 1 << 20;

  const NodeContentionSolver* solver_;
  std::size_t capacity_ = kMaxEntries;  ///< see setCapacity()
  std::vector<Entry> table_;  ///< power-of-two slots, at most 3/4 full
  std::size_t size_ = 0;
  BlockArena<Key> keys_;
  BlockArena<ShareOutcome> outcomes_;
  std::vector<Key> scratch_;  ///< reused lookup key, no per-call allocation at steady state
  std::vector<ShareOutcome> fresh_;  ///< solveInto() output, reused across misses
  SolveScratch solve_scratch_;   ///< flat-path working set, reused across misses
  /// Most-recent entry, for the consecutive-identical-lookup fast path
  /// (empty after a wipe).
  Entry last_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
};

}  // namespace sns::perfmodel
