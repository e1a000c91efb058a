#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "sns/actuator/node_ledger.hpp"
#include "sns/hw/machine.hpp"
#include "sns/util/error.hpp"
#include "sns/util/thread_annotations.hpp"

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

  /// Move `id` from this set into `to` without touching either count —
  /// the owner settles both with adjust() once per batch of moves.
  /// Returns false (and changes nothing) unless `id` was here and not in
  /// `to`. Both sets must share one universe.
  bool transfer(NodeBitset& to, int id) {
    const std::size_t w = static_cast<std::size_t>(id) >> 6;
    const std::uint64_t m = std::uint64_t{1} << (id & 63);
    std::uint64_t& src = words_[w];
    std::uint64_t& dst = to.words_[w];
    if (!(src & m) || (dst & m)) return false;
    src &= ~m;
    dst |= m;
    return true;
  }
  /// transfer() for the `len` consecutive ids from `first` on, a word
  /// mask at a time. Checks every covered word before it changes any bit:
  /// returns false (and changes nothing) unless every id was here and
  /// none was in `to`.
  bool transferRange(NodeBitset& to, int first, int len) {
    const auto lo = static_cast<std::size_t>(first);
    const std::size_t hi = lo + static_cast<std::size_t>(len) - 1;
    const std::size_t w0 = lo >> 6;
    const std::size_t w1 = hi >> 6;
    const auto mask = [&](std::size_t w) {
      std::uint64_t m = ~std::uint64_t{0};
      if (w == w0) m &= m << (lo & 63);
      if (w == w1) m &= ~std::uint64_t{0} >> (63 - (hi & 63));
      return m;
    };
    for (std::size_t w = w0; w <= w1; ++w) {
      const std::uint64_t m = mask(w);
      if ((words_[w] & m) != m || (to.words_[w] & m) != 0) return false;
    }
    for (std::size_t w = w0; w <= w1; ++w) {
      const std::uint64_t m = mask(w);
      words_[w] &= ~m;
      to.words_[w] |= m;
    }
    return true;
  }
  void adjust(int delta) { count_ += delta; }

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

 private:
  std::vector<std::uint64_t> words_;
  int count_ = 0;
};

/// Cluster-wide resource bookkeeping plus the node selection machinery the
/// SNS scheduler uses (§4.4): nodes are clustered into groups by idle-core
/// count; a job is first placed within a single group (to keep per-group
/// consumption even and reduce fragmentation), falling back to the whole
/// cluster; among candidates the least-loaded nodes win, by the score
/// Co + Bo + beta x Wo.
///
/// One node state (DESIGN.md section 11, "Co-run groups"). SNS spreads a
/// job with the same allocation on every node it occupies, so nodes with
/// the same *ordered* resident list hold the same ledger state. The ledger
/// names, for every node, the co-run group of its (job, allocation) list
/// in arrival order — exactly one group per distinct list, group 0
/// (kIdleGroup) being the empty list — and each live group carries the
/// resident allocations, the integer totals, the exclusive flag, the
/// partitioned-resident count and the core/way occupancy fractions once.
/// The bandwidth and NIC reservation sums are running +=/-= sums per node,
/// pinned to zero when the node goes idle — the one state that depends on
/// a node's history, so two nodes of one group can differ in their last
/// bits. The ledger therefore names, for every node, its exact node-state
/// class: one class per distinct (group, bw_reserved bits, net_reserved
/// bits), class 0 (kIdleClass) being the idle group with zero sums. Per
/// node it keeps only the class id and its idle-core bucket bit.
///
/// allocate()/release() are class transitions: an event over one job's
/// nodes moves each node from its group G to G+[job] (or G-[job], the
/// other residents keeping their order), memoized per source group and
/// keyed by group serials, so a pooled id never returns a stale target.
/// Every member of a class moves to the same target class (x + b on a
/// join, x - b on a leave, exact zeros on going idle), so the fit check
/// and the routing run once per source class. Member counts, the
/// bucket-population rows, the cluster totals (all integers: bandwidth
/// in bwUnits()) and the release epoch change once per transition. A span
/// event commits segment by segment — a segment being a maximal run of
/// the input with consecutive ids in one class — with one class-id fill
/// and one masked bucket move per segment and no other per-node work.
///
/// Selection is index-driven so it stays fast on 32K-node clusters (the
/// paper's Fig 20 simulations): a dense bucket array keyed by idle-core
/// count is updated incrementally on every allocate/release, buckets are
/// walked best-fit first, bucket scans are capped, and the fully-idle
/// bucket doubles as the free list CE-style exclusive placements draw
/// from. A query tests fit and computes its ranking key once per class of
/// each bucket it reads, so a bucket without enough fitting nodes is
/// decided without reading one node. Ranking orders classes, not nodes:
/// one scan of each contributing bucket reads per node only its class id
/// and writes it straight into its ranked slot, stopping once the output
/// is full, and no candidate list is kept.
/// Nothing is memoized across queries: a failing query is answered by
/// feasibleUpperBound()'s population rows (O(cores)) before any bucket is
/// read, and every other query runs the selection afresh.
/// tests/actuator/test_selection_cache.cpp and test_ledger_oracle.cpp
/// check every selection against a reference that regroups all nodes per
/// query.
///
/// Thread contract: SNS_THREAD_HOSTILE — even const selection queries
/// write the mutable selection scratch buffers and the query-core floor
/// below, so two threads may not query one ledger concurrently under any
/// qualification.
class SNS_THREAD_HOSTILE ResourceLedger {
 public:
  using GroupId = std::uint32_t;
  static constexpr GroupId kIdleGroup = 0;
  using ClassId = std::uint32_t;
  static constexpr ClassId kIdleClass = 0;

  /// One co-run group record. Records are pooled: a group that loses its
  /// last node goes back to a free list when the event ends (its resident
  /// list stays readable until the next allocate/release, so an owner can
  /// still apply the event's transitions), and the id is reused by the
  /// next new list.
  struct Group : GroupState {
    std::uint32_t members = 0;  ///< nodes naming this group
    bool live = false;          ///< false while the record sits on the free list
    /// Unique per incarnation (never 0 for a non-idle group): owners
    /// caching per-group results key them on this, since ids are reused.
    std::uint64_t serial = 0;
  };

  /// One exact node-state class record, pooled like groups: a class that
  /// loses its last node goes back to a free list when the event ends.
  struct NodeClass {
    GroupId group = kIdleGroup;
    std::uint32_t members = 0;  ///< nodes naming this class
    double bw = 0.0;            ///< bandwidth reservation sum
    double net = 0.0;           ///< NIC reservation sum
    bool live = false;          ///< false while the record sits on the free list
  };

  /// `count` nodes of one event moved from group `src` to group `dst`.
  struct Transition {
    GroupId src = kIdleGroup;
    GroupId dst = kIdleGroup;
    std::uint32_t count = 0;
  };

  /// Keeps a reference to `mach`, which must outlive the ledger: a
  /// temporary config does not compile.
  ResourceLedger(int nodes, const hw::MachineConfig& mach);
  ResourceLedger(int nodes, hw::MachineConfig&& mach) = delete;

  /// `gbps` in the cluster bandwidth total's exact units, 2^-32 GB/s.
  static std::int64_t bwUnits(double gbps) { return std::llround(gbps * 0x1p32); }

  int nodeCount() const { return static_cast<int>(slots_.size()); }
  /// Node `id`'s accounting as a by-value view. Inline: this is the single
  /// hottest call in the simulator (every selection scan, commit and rate
  /// refresh reads node state through it).
  NodeLedger node(int id) const {
    SNS_REQUIRE(id >= 0 && id < nodeCount(), "node id out of range");
    return view(id);
  }

  // ---- co-run groups and node-state classes ---------------------------------
  GroupId groupOf(int nd) const { return groupOfClass(classOf(nd)); }
  const Group& group(GroupId g) const {
    settlePending();
    return groups_[g];
  }
  /// Upper bound on group ids (live or pooled).
  std::size_t groupSlots() const { return groups_.size(); }
  /// The last Group::serial issued: every group interned after this read
  /// carries a larger one.
  std::uint64_t lastSerial() const { return serial_; }
  ClassId classOf(int nd) const { return slots_[static_cast<std::size_t>(nd)].cls; }
  GroupId groupOfClass(ClassId k) const { return classes_[k].group; }
  const NodeClass& nodeClass(ClassId k) const {
    settlePending();
    return classes_[k];
  }
  /// Upper bound on class ids (live or pooled).
  std::size_t classSlots() const { return classes_.size(); }

  /// Monotone counter bumped on every release(), regardless of flags.
  /// Scheduler layers key "this request cannot currently be satisfied"
  /// memos on it: allocations only shrink capacity, so only a release can
  /// turn a placement failure into a success.
  std::uint64_t releaseEpoch() const {
    settlePending();
    return release_epoch_;
  }

  /// Highest post-release idle-core count among releases since the last
  /// take, then resets the accumulator. Pairs with releaseEpoch(): a
  /// failure memo tagged "every ledger query asked for >= c idle cores"
  /// survives a batch of releases whenever none of the freed nodes came
  /// out with c or more idle cores — no freed node can newly enter any
  /// query the failed attempt made, so the attempt still fails.
  int takeReleaseIdleWatermark() {
    settlePending();
    return std::exchange(release_idle_watermark_, -1);
  }

  /// Non-consuming read of what takeReleaseIdleWatermark() would return.
  /// The simulator's futile-pass gate peeks to prove a batch of releases
  /// cannot purge any failed-spec memo entry (watermark below every
  /// recorded query floor) without resetting the accumulator — the next
  /// pass that actually runs still consumes the full batch.
  int peekReleaseIdleWatermark() const {
    settlePending();
    return release_idle_watermark_;
  }

  /// Minimum request.cores across every selection/feasibility query since
  /// the last reset. The scheduler brackets a placement attempt with
  /// reset/read to learn the smallest idle-core count a release must
  /// reach before the attempt could possibly see different ledger state.
  /// INT_MAX when no query ran (the attempt never read dynamic state).
  void resetQueryCoreFloor() const { query_core_floor_ = std::numeric_limits<int>::max(); }
  int queryCoreFloor() const { return query_core_floor_; }

  /// All mutations go through the ledger so the group table and the
  /// idle-core index stay consistent. An event is one job joining
  /// (allocate) or leaving (release) a set of nodes. The span forms are
  /// one whole event — one job's whole placement, distinct nodes, in
  /// order — and return its transitions, one per source group in order of
  /// first appearance; the span stays valid until the next
  /// allocate/release. The per-node forms move one node through the same
  /// path: consecutive per-node calls for the same job, direction and
  /// allocation extend one open event, which settles at the first call
  /// that does not continue it or at the first read of what it defers
  /// (member counts, totals, the population rows, the release epoch).
  /// Node views are exact at every point. A request that does not fit
  /// (or names a node twice, or a job not resident) throws
  /// PreconditionError and leaves that node unchanged; the nodes of the
  /// event before it stay committed.
  std::span<const Transition> allocate(std::span<const int> nodes, JobId job,
                                       const NodeAllocation& alloc) {
    return commit(nodes, job, &alloc);
  }
  std::span<const Transition> release(std::span<const int> nodes, JobId job) {
    return commit(nodes, job, nullptr);
  }
  void allocate(int node, JobId job, const NodeAllocation& alloc) {
    commitNode(node, job, &alloc);
  }
  void release(int node, JobId job) { commitNode(node, job, nullptr); }

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
    settlePending();
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
    settlePending();
    return static_cast<double>(total_cores_used_) /
           (static_cast<double>(mach_->cores) * nodeCount());
  }
  double meanWayOccupancy() const {
    settlePending();
    return static_cast<double>(total_ways_reserved_) /
           (static_cast<double>(mach_->llc_ways) * nodeCount());
  }
  double meanBwOccupancy() const {
    settlePending();
    return static_cast<double>(total_bw_units_) * 0x1p-32 /
           (mach_->peakBandwidth() * nodeCount());
  }

  const hw::MachineConfig& machine() const { return *mach_; }

  /// Upper bound on feasible nodes for a request needing `from` idle
  /// cores and `ways` free cache ways: a sum over the per-idle-core rows
  /// of way-suffix population counts, exact on that membership (ignores
  /// bw/net), so `bound < count` proves the selection empty. O(cores).
  /// Stops summing once the bound reaches `enough`.
  int feasibleUpperBound(int from, int ways, int enough) const;

  // ---- audit introspection (sns::audit) -------------------------------------
  // Raw cached state backing the O(1) paths, exposed read-only so the
  // invariant auditor can cross-validate it against a full recomputation
  // from the group records. Not for scheduling code: policies read the
  // occupancy means and selection APIs above.
  std::int64_t cachedTotalCoresUsed() const {
    settlePending();
    return total_cores_used_;
  }
  std::int64_t cachedTotalWaysReserved() const {
    settlePending();
    return total_ways_reserved_;
  }
  /// The sum of bwUnits() over every resident allocation of every node.
  std::int64_t cachedTotalBwUnits() const {
    settlePending();
    return total_bw_units_;
  }
  int bucketCount() const { return static_cast<int>(buckets_.size()); }
  const NodeBitset& bucket(int idle_cores) const {
    settlePending();
    return buckets_[static_cast<std::size_t>(idle_cores)];
  }

  // ---- test hooks (tests/audit) ---------------------------------------------
  /// Deliberately desynchronize cached state from the truth it summarizes:
  /// the cluster core total, the idle-core index, a group's member count,
  /// a group's cached totals (returned for the test to edit), a class's
  /// member count or group, a node's class id. Exist ONLY so the audit
  /// tests can prove a corrupted ledger is caught; never called by
  /// production code.
  void debugCorruptCoreTotal(std::int64_t delta) {
    settlePending();
    total_cores_used_ += delta;
  }
  void debugCorruptBucket(int node) {
    settlePending();
    for (auto& b : buckets_) {
      if (b.erase(node)) return;
    }
  }
  void debugCorruptMembers(GroupId g, int delta) {
    settlePending();
    groups_[g].members = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(groups_[g].members) + delta);
  }
  GroupState& debugCorruptGroup(GroupId g) {
    settlePending();
    return groups_[g];
  }
  void debugCorruptClassMembers(ClassId k, int delta) {
    settlePending();
    classes_[k].members = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(classes_[k].members) + delta);
  }
  void debugSetClassGroup(ClassId k, GroupId g) {
    settlePending();
    classes_[k].group = g;
  }
  void debugSetNodeClass(int nd, ClassId k) {
    settlePending();
    slots_[static_cast<std::size_t>(nd)].cls = k;
  }

 private:
  /// Per-node state, besides the node's idle-core bucket bit.
  struct NodeSlot {
    ClassId cls = kIdleClass;
  };
  static_assert(sizeof(NodeSlot) == sizeof(ClassId), "per-node ledger state is a class id");
  /// Terminates the intrusive class lists below.
  static constexpr ClassId kNoClass = std::numeric_limits<ClassId>::max();
  /// A group record with the table's internals.
  struct Record : Group {
    std::uint64_t hash = 0;  ///< index key: hash of `residents`
    ClassId first_class = kNoClass;  ///< head of this group's class list
    // The open event's transition out of this group — the per-event memo,
    // valid while ev_epoch == epoch_: its target, the idle-core buckets a
    // moving node leaves and enters, and the moving job's per-node
    // reservations. Ids are pooled only when an event closes, so no
    // routed target can be recycled under it.
    std::uint64_t ev_epoch = 0;
    GroupId ev_dst = kIdleGroup;
    std::uint32_t moved = 0;  ///< nodes moved by the open event
    int ev_src_idle = 0;
    int ev_dst_idle = 0;
    double ev_bw = 0.0;
    double ev_net = 0.0;
    std::int64_t ev_bw_units = 0;  ///< bwUnits(ev_bw), for the cluster total
  };
  /// A class record with the table's internals: its links in its group's
  /// class list and in its idle-core bucket's class list, and the open
  /// event's transition out of it (valid while ev_epoch == epoch_).
  struct ClassRecord : NodeClass {
    ClassId next_in_group = kNoClass;
    ClassId bucket_prev = kNoClass;
    ClassId bucket_next = kNoClass;
    std::uint64_t ev_epoch = 0;
    ClassId ev_dst = kIdleClass;
    std::uint32_t moved = 0;  ///< nodes moved by the open event
    int ev_src_idle = 0;
    int ev_dst_idle = 0;
  };
  /// One selection query's verdict on one class, refreshed for every class
  /// of a bucket before the query reads that bucket's nodes.
  struct Verdict {
    bool fits = false;
    double key = 0.0;           ///< ranking key: score or alignment
    std::uint32_t hits = 0;     ///< its nodes being ranked
    std::uint32_t rank = 0;     ///< index of `key` among the distinct keys
  };

  NodeLedger classView(ClassId k) const {
    const ClassRecord& c = classes_[k];
    return NodeLedger(groups_[c.group], c.bw, c.net, *mach_, peak_bw_);
  }
  NodeLedger view(int id) const { return classView(classOf(id)); }
  /// One whole event over `nodes`: `job` joins (`join` non-null) or leaves.
  std::span<const Transition> commit(std::span<const int> nodes, JobId job,
                                     const NodeAllocation* join);
  /// One node, extending the open event when it is the same job,
  /// direction and allocation.
  void commitNode(int nd, JobId job, const NodeAllocation* join) {
    if (!open_ || open_job_ != job || open_join_ != (join != nullptr) ||
        (join != nullptr && !sameAllocation(open_alloc_, *join))) {
      openEvent(job, join);
    }
    if (const char* error = step(nd)) fail(error);
  }
  /// Settle any open event, then open one for `job`.
  void openEvent(JobId job, const NodeAllocation* join);
  /// Move node `nd` within the open event. Returns nullptr, or why the
  /// move is not allowed (the node is then unchanged).
  const char* step(int nd);
  /// step() for the `len` >= 2 in-range nodes from `first` on, all of one
  /// class. Returns nullptr, or why the move is not allowed (the nodes
  /// are then unchanged).
  const char* stepRun(int first, int len);
  /// Route class `from` under the open event (the first of its nodes the
  /// event moves): route its group if this is the group's first node, then
  /// check the reservation sums and intern the target class. Returns
  /// nullptr or why the move is not allowed.
  const char* routeClass(ClassId from);
  /// Route group `from` under the open event: validate the move and
  /// intern the target group. Returns nullptr or why the move is not
  /// allowed.
  const char* route(GroupId from);
  /// Settle the open event: member counts, the population rows, totals
  /// and the release epoch change once per transition; emptied classes
  /// and groups go back to the pool. Fills transitions_.
  void closeEvent();
  /// Settle an open per-node event before a read of what it defers.
  /// Logically const: a ledger defined const never has an open event
  /// (opening one takes a non-const call), so the write-through below
  /// only ever reaches an object that was created non-const.
  void settlePending() const {
    if (open_) const_cast<ResourceLedger*>(this)->closeEvent();
  }
  [[noreturn]] static void fail(const char* error);
  /// Field-for-field equality, doubles on their exact bit patterns.
  static bool sameAllocation(const NodeAllocation& a, const NodeAllocation& b) {
    return a.cores == b.cores && a.ways == b.ways &&
           std::bit_cast<std::uint64_t>(a.bw_gbps) ==
               std::bit_cast<std::uint64_t>(b.bw_gbps) &&
           a.exclusive == b.exclusive &&
           std::bit_cast<std::uint64_t>(a.net_gbps) ==
               std::bit_cast<std::uint64_t>(b.net_gbps);
  }
  /// The group of `from`'s list without position `skip` (none when past
  /// the end), plus the open event's job when it joins; created on first
  /// use.
  GroupId intern(GroupId from, std::size_t skip);
  void indexInsert(GroupId g);
  void indexPlace(GroupId g);
  /// Drop `g` from the index and return its id to the free list.
  void pool(GroupId g);
  /// The class of group `g` with exactly these reservation sums; created
  /// on first use.
  ClassId internClass(GroupId g, double bw, double net);
  /// Unlink `k` from its group and bucket and return its id to the free
  /// list.
  void poolClass(ClassId k);
  /// Verdicts for every class of idle-core bucket `c`: fits `request`,
  /// and for a fitting class the ranking key `key(view)`. Returns the
  /// number of fitting nodes in the bucket; `uniform` is cleared when two
  /// fitting classes hold different keys.
  template <typename KeyFn>
  std::uint32_t judgeBucket(int c, const NodeAllocation& request, const KeyFn& key,
                            bool& uniform) const;
  /// The first `n` nodes of bucket `c` whose class fits, in ascending id
  /// order; every node qualifies when `all_fit`.
  std::vector<int> firstFitting(int c, std::size_t n, bool all_fit) const;
  /// The best `count` fitting nodes of buckets `lo`..`hi` (all judged) by
  /// (key, id), the key ascending or (`descending`) descending: every
  /// fitting node competes, so each fitting class's hits are its members.
  std::vector<int> rankBuckets(int lo, int hi, std::size_t count, bool descending) const;
  /// The best `count` by (score, id) among the first `cap` fitting nodes
  /// of bucket `c`: one scan counts the window's hits per class, then
  /// fillRanked() runs.
  std::vector<int> rankWindow(int c, std::size_t count, std::size_t cap) const;
  /// Rank the classes of hit_classes_ (each verdict's `hits` set) by key,
  /// ascending or (`descending`) descending, one rank per distinct key,
  /// then fill the output in one scan of each bucket `lo`..`hi` holding a
  /// rank that starts inside it: each node goes to its rank's next slot,
  /// and the scans stop once the output is full, so no comparison sort
  /// touches nodes. Only a rank whose classes lie in several buckets is
  /// sorted by id afterwards.
  std::vector<int> fillRanked(int lo, int hi, std::size_t count, bool descending) const;
  /// The ranked (score / group-preference) selection behind selectNodes(),
  /// which wraps it with the exclusive shortcut and the population bound.
  std::vector<int> selectNodesRanked(int count, const NodeAllocation& request,
                                     double beta) const;
  /// The alignment-ranked selection body behind selectNodesByAlignment().
  std::vector<int> selectNodesAligned(int count,
                                      const NodeAllocation& request) const;

  const hw::MachineConfig* mach_;
  double peak_bw_;  ///< mach_->peakBandwidth(), hoisted out of fits()
  std::vector<NodeSlot> slots_;
  // ---- group table -----------------------------------------------------------
  std::vector<Record> groups_;
  std::vector<GroupId> free_;
  /// Live non-idle groups by hash: open addressing with linear probing
  /// (kIdleGroup marks an empty slot), at most half full. Only ever
  /// probed, so nothing observable depends on hash order.
  std::vector<GroupId> index_;
  std::size_t indexed_ = 0;
  std::vector<GroupId> moves_;            ///< source groups of the open event
  std::vector<Transition> transitions_;   ///< the last event's transitions
  std::uint64_t epoch_ = 0;               ///< events so far
  // The open event (see allocate()).
  bool open_ = false;
  bool open_join_ = false;
  JobId open_job_ = -1;
  NodeAllocation open_alloc_;
  std::uint64_t serial_ = 0;              ///< last Group::serial issued
  // ---- class table -----------------------------------------------------------
  std::vector<ClassRecord> classes_;
  std::vector<ClassId> free_classes_;
  std::vector<ClassId> class_moves_;      ///< source classes of the open event
  /// bucket_classes_[c] = head of the list of live classes whose group has
  /// exactly c idle cores.
  std::vector<ClassId> bucket_classes_;
  /// Scratch for selection (logically const; a ledger is owned by one
  /// simulator and not shared across threads). verdicts_ grows with the
  /// class table, so a query allocates nothing at steady state.
  mutable std::vector<Verdict> verdicts_;
  mutable std::vector<ClassId> hit_classes_;     ///< classes being ranked
  mutable std::vector<std::size_t> rank_start_;  ///< slice start per rank
  /// Slices of ranks that span several buckets, sorted by id after a fill.
  mutable std::vector<std::pair<std::size_t, std::size_t>> tied_;
  /// buckets_[c] = ids of nodes with exactly c idle cores (the paper's node
  /// groups), maintained on every allocate/release. buckets_[cores] is the
  /// idle-node free list.
  std::vector<NodeBitset> buckets_;
  /// way_rows_[idle * (llc_ways+1) + w] = #nodes with exactly `idle` idle
  /// cores and at least `w` free ways, maintained on every transition —
  /// the population behind feasibleUpperBound()'s two-dimensional
  /// fast-fail, one read per idle-core row.
  std::vector<std::int32_t> way_rows_;
  /// Add `n` nodes with `idle` idle cores and `free_ways` free ways.
  void addToRows(int idle, int free_ways, std::int32_t n) {
    std::int32_t* row = way_rows_.data() + static_cast<std::size_t>(idle) *
                                               static_cast<std::size_t>(mach_->llc_ways + 1);
    for (int w = 0; w <= free_ways; ++w) row[w] += n;
  }
  std::uint64_t release_epoch_ = 0;        ///< maintained regardless of flags
  int release_idle_watermark_ = -1;        ///< see takeReleaseIdleWatermark()
  mutable int query_core_floor_ = std::numeric_limits<int>::max();
  /// Reserved-resource totals across all nodes (see meanCoreOccupancy()),
  /// all integers and so drift-free: bandwidth in bwUnits().
  std::int64_t total_cores_used_ = 0;
  std::int64_t total_ways_reserved_ = 0;
  std::int64_t total_bw_units_ = 0;
};

}  // namespace sns::actuator
