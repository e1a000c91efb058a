#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sns/actuator/node_ledger.hpp"
#include "sns/hw/machine.hpp"
#include "sns/util/error.hpp"
#include "sns/util/thread_annotations.hpp"

namespace sns::util {
class ThreadPool;
}

namespace sns::actuator {

/// Fixed-universe set of node ids backed by a bitmap with a member count.
/// insert/erase are two ALU ops (no tree rebalance, no heap traffic) and
/// scan() enumerates members in ascending id order by walking 64-bit words
/// — exactly the order the selection paths need. At 32K nodes a set is
/// 4 KB, so even one per idle-core bucket stays cache-friendly.
class NodeBitset {
 public:
  NodeBitset() = default;
  explicit NodeBitset(int universe)
      : words_(static_cast<std::size_t>(universe + 63) / 64, 0) {}

  /// Returns false if the id was already present (nothing changed).
  bool insert(int id) {
    std::uint64_t& w = words_[static_cast<std::size_t>(id) >> 6];
    const std::uint64_t m = std::uint64_t{1} << (id & 63);
    if (w & m) return false;
    w |= m;
    ++count_;
    return true;
  }

  /// Returns false if the id was not present (nothing changed).
  bool erase(int id) {
    std::uint64_t& w = words_[static_cast<std::size_t>(id) >> 6];
    const std::uint64_t m = std::uint64_t{1} << (id & 63);
    if (!(w & m)) return false;
    w &= ~m;
    --count_;
    return true;
  }

  bool contains(int id) const {
    return (words_[static_cast<std::size_t>(id) >> 6] >>
            (id & 63)) & 1;
  }

  int size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// Visit members in ascending id order; the visitor returns false to
  /// stop early.
  template <typename Fn>
  void scan(Fn&& fn) const {
    int remaining = count_;
    for (std::size_t w = 0; w < words_.size() && remaining > 0; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int id = static_cast<int>(w << 6) + std::countr_zero(bits);
        if (!fn(id)) return;
        --remaining;
        bits &= bits - 1;
      }
    }
  }

  std::size_t wordCount() const { return words_.size(); }

  /// Visit members whose ids fall in word range [w_begin, w_end), ascending;
  /// the visitor returns false to stop early. Shardable form of scan() for
  /// the parallel candidate search: word boundaries are fixed by id, so a
  /// sharded scan concatenated in shard order reproduces scan()'s sequence.
  template <typename Fn>
  void scanWords(std::size_t w_begin, std::size_t w_end, Fn&& fn) const {
    const std::size_t end = std::min(w_end, words_.size());
    for (std::size_t w = w_begin; w < end; ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int id = static_cast<int>(w << 6) + std::countr_zero(bits);
        if (!fn(id)) return;
        bits &= bits - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  int count_ = 0;
};

/// Cluster-wide resource bookkeeping: one NodeLedger per node plus the node
/// selection machinery the SNS scheduler uses (§4.4): nodes are clustered
/// into groups by idle-core count; a job is first placed within a single
/// group (to keep per-group consumption even and reduce fragmentation),
/// falling back to the whole cluster; among candidates the least-loaded
/// nodes win, by the score Co + Bo + beta x Wo.
///
/// Selection is index-driven so it stays fast on 32K-node clusters (the
/// paper's Fig 20 simulations): a dense bucket array keyed by idle-core
/// count is updated incrementally on every allocate/release, groups are
/// walked best-fit first, bucket scans are capped, and the fully-idle
/// bucket doubles as the free list CE-style exclusive placements draw
/// from. tests/actuator/test_selection_cache.cpp checks every selection
/// against a reference that regroups all nodes per query.
///
/// Thread contract: SNS_THREAD_HOSTILE — even const selection queries
/// mutate the mutable scratch buffers and the selection cache below, so
/// two threads may not query one ledger concurrently under any
/// qualification. The sharded parallel search (setSearchPool) is the one
/// sanctioned multi-thread entry: fillScores() hands pool workers fixed
/// disjoint index ranges of one scratch array and joins every future
/// before any shard result is read, so no two threads ever touch the
/// same element and no scratch outlives the query that owns it.
class SNS_THREAD_HOSTILE ResourceLedger {
 public:
  ResourceLedger(int nodes, const hw::MachineConfig& mach);

  int nodeCount() const { return static_cast<int>(nodes_.size()); }
  // Inline: this is the single hottest call in the simulator (every
  // selection scan, commit and rate refresh reads node state through it).
  const NodeLedger& node(int id) const {
    SNS_REQUIRE(id >= 0 && id < nodeCount(), "node id out of range");
    return nodes_[static_cast<std::size_t>(id)];
  }

  /// Selection cache: non-exclusive selection queries are memoized and
  /// the previous decision's result is reused while the ledger state it
  /// read is provably unchanged. Invalidation is node-level: every
  /// allocate/release records the maximum of the touched node's idle-core
  /// count before and after the mutation (as a suffix-max stack, see
  /// mut_suffix_); a cached query is reusable iff no mutation since its
  /// fill reaches into the idle-core range [request.cores, cores] the
  /// query scanned. Cached empty results additionally survive any run of
  /// pure allocations (failure is monotone: capacity only shrinks until a
  /// release). Results must be bit-identical to a fresh scan;
  /// auditSelectionCache() and the selection-cache tests enforce it.
  std::uint64_t selectionCacheHits() const { return cache_hits_; }
  std::uint64_t selectionCacheMisses() const { return cache_misses_; }

  /// Sharded search (SimConfig::search_pool, or the simulator's own pool
  /// on large clusters): shard bucket scans and candidate scoring across
  /// pool workers when a bucket holds at least `min_parallel_nodes`
  /// nodes. Shard boundaries are fixed bitmap word ranges and the merge
  /// concatenates shards in order, so the result is identical to the
  /// serial scan regardless of worker timing. The pool is caller-owned and
  /// must outlive the ledger (or be cleared with nullptr).
  void setSearchPool(util::ThreadPool* pool, int min_parallel_nodes = 2048);

  /// Monotone counter bumped on every release(), regardless of flags.
  /// Scheduler layers key "this request cannot currently be satisfied"
  /// memos on it: allocations only shrink capacity, so only a release can
  /// turn a placement failure into a success.
  std::uint64_t releaseEpoch() const { return release_epoch_; }

  /// Highest post-release idle-core count among releases since the last
  /// take, then resets the accumulator. Pairs with releaseEpoch(): a
  /// failure memo tagged "every ledger query asked for >= c idle cores"
  /// survives a batch of releases whenever none of the freed nodes came
  /// out with c or more idle cores — no freed node can newly enter any
  /// query the failed attempt made, so the attempt still fails.
  int takeReleaseIdleWatermark() { return std::exchange(release_idle_watermark_, -1); }

  /// Non-consuming read of what takeReleaseIdleWatermark() would return.
  /// The simulator's futile-pass gate peeks to prove a batch of releases
  /// cannot purge any failed-spec memo entry (watermark below every
  /// recorded query floor) without resetting the accumulator — the next
  /// pass that actually runs still consumes the full batch.
  int peekReleaseIdleWatermark() const { return release_idle_watermark_; }

  /// Minimum request.cores across every selection/feasibility query since
  /// the last reset. The scheduler brackets a placement attempt with
  /// reset/read to learn the smallest idle-core count a release must
  /// reach before the attempt could possibly see different ledger state.
  /// INT_MAX when no query ran (the attempt never read dynamic state).
  void resetQueryCoreFloor() const { query_core_floor_ = std::numeric_limits<int>::max(); }
  int queryCoreFloor() const { return query_core_floor_; }

  /// All mutations go through the ledger so the idle-core index stays
  /// consistent.
  void allocate(int node, JobId job, const NodeAllocation& alloc);
  void release(int node, JobId job);

  /// Nodes where the request fits, most-idle group first, ascending id
  /// within a group.
  std::vector<int> feasibleNodes(const NodeAllocation& request) const;
  std::vector<int> feasibleNodes(int cores, int ways, double bw_gbps,
                                 bool exclusive) const {
    return feasibleNodes(NodeAllocation{cores, ways, bw_gbps, exclusive, 0.0});
  }

  /// Pick `count` nodes for the request following the SNS selection rules.
  /// Returns an empty vector if fewer than `count` nodes qualify.
  std::vector<int> selectNodes(int count, const NodeAllocation& request,
                               double beta = 2.0) const;

  /// Alternative selection by the dot-product vector-bin-packing heuristic
  /// (the "more advanced packing algorithms" the paper's §7 points to):
  /// among feasible nodes, prefer those whose *free* capacity vector aligns
  /// best with the request vector, so multi-dimensional waste is minimized.
  /// No group preference; purely alignment-ranked.
  std::vector<int> selectNodesByAlignment(int count,
                                          const NodeAllocation& request) const;
  std::vector<int> selectNodes(int count, int cores, int ways, double bw_gbps,
                               bool exclusive, double beta = 2.0) const {
    return selectNodes(count, NodeAllocation{cores, ways, bw_gbps, exclusive, 0.0},
                       beta);
  }

  /// Count of completely idle nodes (for CE feasibility checks). O(1):
  /// the fully-idle bucket is the free list.
  int idleNodeCount() const {
    return buckets_[static_cast<std::size_t>(mach_->cores)].size();
  }

  /// Number of nodes currently running at least one job.
  int busyNodeCount() const { return nodeCount() - idleNodeCount(); }

  // ---- cluster-mean occupancy fractions, O(1) -------------------------------
  // Per-node occupancy is linear in the allocation's (cores, ways, bw), and
  // every node shares one machine config, so the cluster mean reduces to
  // reserved totals maintained on each allocate/release. The telemetry
  // sampler reads these on every tick; recomputing them from 32K node
  // ledgers would cost more than the simulation step being sampled.
  double meanCoreOccupancy() const {
    return static_cast<double>(total_cores_used_) /
           (static_cast<double>(mach_->cores) * nodeCount());
  }
  double meanWayOccupancy() const {
    return static_cast<double>(total_ways_reserved_) /
           (static_cast<double>(mach_->llc_ways) * nodeCount());
  }
  double meanBwOccupancy() const {
    return total_bw_reserved_ / (mach_->peakBandwidth() * nodeCount());
  }

  const hw::MachineConfig& machine() const { return *mach_; }

  // ---- audit introspection (sns::audit) -------------------------------------
  // Raw cached state backing the O(1) paths, exposed read-only so the
  // invariant auditor can cross-validate it against a full recomputation
  // from the per-node ledgers. Not for scheduling code: policies read the
  // occupancy means and selection APIs above.
  std::int64_t cachedTotalCoresUsed() const { return total_cores_used_; }
  std::int64_t cachedTotalWaysReserved() const { return total_ways_reserved_; }
  double cachedTotalBwReserved() const { return total_bw_reserved_; }
  int bucketCount() const { return static_cast<int>(buckets_.size()); }
  const NodeBitset& bucket(int idle_cores) const {
    return buckets_[static_cast<std::size_t>(idle_cores)];
  }

  /// Re-execute every currently-reusable selection-cache entry through the
  /// uncached path and report any mismatch (sns::audit). Returns
  /// human-readable violation strings, sorted for determinism; empty when
  /// the cache is consistent.
  std::vector<std::string> auditSelectionCache() const;

  // ---- test hooks (tests/audit) ---------------------------------------------
  /// Deliberately desynchronize the cached core total / the idle-core index
  /// from the per-node truth. Exist ONLY so the audit tests can prove a
  /// corrupted ledger is caught; never called by production code.
  void debugCorruptCoreTotal(std::int64_t delta) { total_cores_used_ += delta; }
  void debugCorruptBucket(int node) {
    for (auto& b : buckets_) {
      if (b.erase(node)) return;
    }
  }

 private:
  NodeLedger& mutableNode(int id) {
    SNS_REQUIRE(id >= 0 && id < nodeCount(), "node id out of range");
    return nodes_[static_cast<std::size_t>(id)];
  }
  void reindex(int id, int old_idle);
  /// Collect feasible candidates grouped by idle-core count into the
  /// cand_ / group_end_ scratch: ascending from request.cores (best-fit
  /// first), ascending id within a group; each group's scan stops at
  /// `per_group_cap` candidates. Flattened into reusable buffers so a
  /// placement query allocates nothing at steady state.
  void collectCandidates(const NodeAllocation& request,
                         std::size_t per_group_cap) const;
  /// Scan one bucket for nodes fitting `request`, appending up to `cap`
  /// ids to `dest` in ascending order — sharded across pool workers when
  /// the bucket is large enough, serial otherwise; identical output
  /// either way.
  void scanBucket(const NodeBitset& bucket, const NodeAllocation& request,
                  std::size_t cap, std::vector<int>& dest) const;
  /// The fully-idle bucket (idleCores == mach_->cores) special case of
  /// scanBucket: allocate() requires >= 1 core and release() pins the
  /// double reservation sums to exact zeros on the last departure, so
  /// every member node is bit-identical — one representative fits()
  /// answers for the whole bucket, and accepted ids come straight off the
  /// bitset without touching a node ledger. Same output as scanBucket.
  void scanIdleBucket(const NodeBitset& bucket, const NodeAllocation& request,
                      std::size_t cap, std::vector<int>& dest) const;
  /// The ranked (score / group-preference) selection — the former
  /// selectNodes() body; selectNodes() wraps it with the exclusive
  /// shortcut and the selection cache.
  std::vector<int> selectNodesRanked(int count, const NodeAllocation& request,
                                     double beta) const;
  /// The alignment-ranked selection body behind selectNodesByAlignment().
  std::vector<int> selectNodesAligned(int count,
                                      const NodeAllocation& request) const;

  // ---- selection cache (incremental candidate pruning) ----------------------
  struct SelectQuery {
    std::int32_t kind = 0;  ///< 0 = ranked (selectNodes), 1 = alignment
    std::int32_t count = 0;
    std::int32_t cores = 0;
    std::int32_t ways = 0;
    std::uint64_t bw_bits = 0;
    std::uint64_t net_bits = 0;
    std::uint64_t beta_bits = 0;
    bool operator==(const SelectQuery&) const = default;
  };
  struct SelectQueryHash {
    std::size_t operator()(const SelectQuery& q) const;
  };
  struct CacheEntry {
    std::vector<int> nodes;
    std::uint64_t version = 0;  ///< change_version_ when filled/revalidated
    /// The full query, kept so the auditor can re-execute it uncached.
    NodeAllocation request;
    std::int32_t count = 0;
    std::int32_t kind = 0;
    double beta = 0.0;
  };
  static SelectQuery makeQuery(int kind, int count,
                               const NodeAllocation& request, double beta);
  bool entryStillValid(const CacheEntry& e) const;
  /// Returns the cached result if reusable (touching the entry to the
  /// current version), nullptr on miss.
  const std::vector<int>* cacheLookup(const SelectQuery& q) const;
  void cacheStore(const SelectQuery& q, const std::vector<int>& result,
                  int count, const NodeAllocation& request, double beta,
                  int kind) const;
  void noteMutation(int old_idle, int new_idle, bool released);
  /// Upper bound on feasible nodes for a request needing `from` idle
  /// cores and `ways` free cache ways: a suffix sum over the
  /// (idle-cores x free-ways) population grid, exact on that membership
  /// (ignores bw/net), so `bound < count` proves the selection empty.
  /// Stops summing once the bound reaches `enough`.
  int feasibleUpperBound(int from, int ways, int enough) const;

  const hw::MachineConfig* mach_;
  std::vector<NodeLedger> nodes_;
  /// Scratch for collectCandidates/selectNodes (selection is logically
  /// const; a ledger is owned by one simulator and not shared across
  /// threads).
  mutable std::vector<int> cand_;            ///< flattened candidate ids
  mutable std::vector<std::size_t> group_end_;  ///< prefix end per group
  mutable std::vector<std::pair<double, int>> rank_scratch_;
  /// buckets_[c] = ids of nodes with exactly c idle cores (the paper's node
  /// groups), maintained on every allocate/release. buckets_[cores] is the
  /// idle-node free list.
  std::vector<NodeBitset> buckets_;
  /// cw_grid_[idle * (llc_ways+1) + free_ways] = #nodes with exactly that
  /// (idle-core, free-way) pair, maintained on every allocate/release —
  /// the population behind feasibleUpperBound()'s two-dimensional
  /// fast-fail.
  std::vector<std::int32_t> cw_grid_;
  std::int32_t& gridCell(int idle, int free_ways) {
    return cw_grid_[static_cast<std::size_t>(idle) *
                        static_cast<std::size_t>(mach_->llc_ways + 1) +
                    static_cast<std::size_t>(free_ways)];
  }
  // ---- selection-cache state (see selectionCacheHits) -----------------------
  // Mutable: lookups run on the logically-const selection path; a ledger
  // is owned by one simulator and queried from one thread.
  mutable std::unordered_map<SelectQuery, CacheEntry, SelectQueryHash>
      sel_cache_;
  /// Suffix-maxima of the mutation history, for O(log) revalidation. Each
  /// mutation contributes the touched node's max(idle before, idle after);
  /// a query that scanned idle range [from, cores] is unaffected by every
  /// mutation whose max_idle < from — the node was outside the scanned
  /// range both before and after. A monotone stack of (version, max_idle)
  /// answers "max over all mutations after version V" exactly: pushing a
  /// value pops every older entry it dominates, leaving values strictly
  /// decreasing in version — so the suffix max is the first entry past V.
  /// Bounded by the machine's core count + 1 regardless of history length
  /// (one entry per distinct value), unlike the event log it replaced.
  /// rel_suffix_ tracks releases only: cached failures survive pure
  /// allocations (capacity is monotone), so they revalidate against it.
  using SuffixStack = std::vector<std::pair<std::uint64_t, std::int32_t>>;
  mutable SuffixStack mut_suffix_;
  mutable SuffixStack rel_suffix_;
  std::uint64_t change_version_ = 0;       ///< bumped per allocate/release
  std::uint64_t last_release_version_ = 0;
  std::uint64_t release_epoch_ = 0;        ///< maintained regardless of flags
  int release_idle_watermark_ = -1;        ///< see takeReleaseIdleWatermark()
  mutable int query_core_floor_ = std::numeric_limits<int>::max();
  mutable std::uint64_t cache_hits_ = 0;
  mutable std::uint64_t cache_misses_ = 0;
  // ---- parallel search (see setSearchPool) ----------------------------------
  util::ThreadPool* pool_ = nullptr;
  std::size_t min_parallel_ = 2048;
  mutable std::vector<std::vector<int>> shard_scratch_;
  /// Reserved-resource totals across all nodes (see meanCoreOccupancy()).
  /// Cores and ways are integers, so their totals are drift-free; the
  /// bandwidth total accumulates at most one ulp per allocate/release.
  std::int64_t total_cores_used_ = 0;
  std::int64_t total_ways_reserved_ = 0;
  double total_bw_reserved_ = 0.0;
};

}  // namespace sns::actuator
