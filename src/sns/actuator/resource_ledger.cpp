#include "sns/actuator/resource_ledger.hpp"

#include <algorithm>
#include <future>
#include <limits>

#include "sns/util/error.hpp"
#include "sns/util/thread_pool.hpp"

namespace sns::actuator {

namespace {

/// Bound for the selection cache entry map: wipes wholesale when reached —
/// a contended simulation cycles through a few dozen distinct queries, so
/// the bound is not reached in practice.
constexpr std::size_t kMaxCacheEntries = 8192;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Score `ids` into `out` as (score, id) pairs — sharded across pool
/// workers when the candidate set is large enough, serial otherwise.
/// Shards are fixed index ranges and every score lands at its candidate's
/// index, so the filled array is independent of worker timing.
template <typename ScoreFn>
void fillScores(util::ThreadPool* pool, std::size_t min_parallel,
                const int* ids, std::size_t n,
                std::vector<std::pair<double, int>>& out, const ScoreFn& fn) {
  out.resize(n);
  if (pool != nullptr && n >= min_parallel && pool->threadCount() > 1) {
    const std::size_t shards = pool->threadCount();
    const std::size_t chunk = (n + shards - 1) / shards;
    std::vector<std::future<void>> pending;
    pending.reserve(shards - 1);
    for (std::size_t t = 1; t < shards; ++t) {
      const std::size_t b = chunk * t;
      if (b >= n) break;
      const std::size_t e = std::min(n, b + chunk);
      pending.push_back(pool->submit([&out, &fn, ids, b, e] {
        for (std::size_t i = b; i < e; ++i) out[i] = {fn(ids[i]), ids[i]};
      }));
    }
    for (std::size_t i = 0; i < std::min(n, chunk); ++i) {
      out[i] = {fn(ids[i]), ids[i]};
    }
    for (auto& f : pending) f.get();
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = {fn(ids[i]), ids[i]};
}

}  // namespace

ResourceLedger::ResourceLedger(int nodes, const hw::MachineConfig& mach)
    : mach_(&mach), peak_bw_(mach.peakBandwidth()) {
  SNS_REQUIRE(nodes >= 1, "ResourceLedger needs at least one node");
  slots_.assign(static_cast<std::size_t>(nodes), NodeSlot{});
  groups_.emplace_back();
  groups_[kIdleGroup].members = static_cast<std::uint32_t>(nodes);
  groups_[kIdleGroup].live = true;
  index_.assign(64, kIdleGroup);
  buckets_.assign(static_cast<std::size_t>(mach.cores) + 1, NodeBitset(nodes));
  auto& idle_bucket = buckets_[static_cast<std::size_t>(mach.cores)];
  for (int i = 0; i < nodes; ++i) idle_bucket.insert(i);
  cw_grid_.assign(static_cast<std::size_t>(mach.cores + 1) *
                      static_cast<std::size_t>(mach.llc_ways + 1),
                  0);
  gridCell(mach.cores, mach.llc_ways) = nodes;
}

namespace {

/// FNV-1a over every field bit of an ordered resident list, finished with
/// mix64.
class ResidentHash {
 public:
  void add(JobId job, const NodeAllocation& a) {
    mixIn(static_cast<std::uint64_t>(job));
    mixIn((static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.cores)) << 32) ^
          (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a.ways)) << 1) ^
          static_cast<std::uint64_t>(a.exclusive));
    mixIn(std::bit_cast<std::uint64_t>(a.bw_gbps));
    mixIn(std::bit_cast<std::uint64_t>(a.net_gbps));
  }
  std::uint64_t value() const { return mix64(h_); }

 private:
  void mixIn(std::uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

}  // namespace

void ResourceLedger::fail(const char* error) {
  throw util::PreconditionError(std::string("ResourceLedger: ") + error);
}

std::span<const ResourceLedger::Transition> ResourceLedger::commit(
    std::span<const int> nodes, JobId job, const NodeAllocation* join) {
  openEvent(job, join);
  for (const int nd : nodes) {
    if (const char* error = step(nd)) {
      closeEvent();
      fail(error);
    }
  }
  closeEvent();
  return transitions_;
}

void ResourceLedger::openEvent(JobId job, const NodeAllocation* join) {
  settlePending();
  if (join != nullptr) {
    SNS_REQUIRE(join->cores >= 1, "allocation needs at least one core");
    SNS_REQUIRE(join->ways == 0 || join->ways >= mach_->min_ways_per_job,
                "CAT partitions need at least min_ways_per_job ways");
    open_alloc_ = *join;
  }
  ++epoch_;
  moves_.clear();
  open_ = true;
  open_join_ = join != nullptr;
  open_job_ = job;
}

const char* ResourceLedger::step(int nd) {
  if (nd < 0 || nd >= nodeCount()) return "node id out of range";
  NodeSlot& s = slots_[static_cast<std::size_t>(nd)];
  const GroupId from = s.group;
  // A moved node never names a source group of its event again (its
  // target holds the job on a join and lacks it on a leave), so a routed
  // source always moves its nodes to the same target.
  if (groups_[from].ev_epoch != epoch_) {
    if (const char* error = route(from)) return error;
  }
  Record& src = groups_[from];
  const double bw = src.ev_bw;
  const double net = src.ev_net;
  if (open_join_) {
    if (bw > (peak_bw_ - s.bw) + 1e-9 || net > (mach_->net_bw_gbps - s.net) + 1e-9) {
      return "allocation does not fit on node";
    }
    s.bw += bw;
    s.net += net;
    total_bw_reserved_ += bw;
  } else if (src.ev_dst == kIdleGroup) {
    // Summed double reservations can hold a +-1-ULP residue after the
    // last resident leaves ((a+b)-a-b != 0 in floating point), which
    // would make an empty node's fits()/score() depend on its allocation
    // history. Pin the sums to exact zeros: all fully idle nodes are then
    // bit-identical, the invariant the uniform-idle selection fast path
    // rests on.
    s.bw = 0.0;
    s.net = 0.0;
    total_bw_reserved_ -= bw;
  } else {
    s.bw -= bw;
    s.net -= net;
    total_bw_reserved_ -= bw;
  }
  SNS_REQUIRE(buckets_[static_cast<std::size_t>(src.ev_src_idle)].transfer(
                  buckets_[static_cast<std::size_t>(src.ev_dst_idle)], nd),
              "ledger group index corrupt");
  s.group = src.ev_dst;
  ++src.moved;
  return nullptr;
}

const char* ResourceLedger::route(GroupId from) {
  const Record& src = groups_[from];
  const std::size_t n = src.residents.size();
  std::size_t at = 0;
  while (at < n && src.residents[at].first != open_job_) ++at;
  double bw;
  double net;
  if (open_join_) {
    if (at != n) return "job already holds resources on this node";
    if (!groupAdmits(src, *mach_, open_alloc_)) return "allocation does not fit on node";
    bw = open_alloc_.bw_gbps;
    net = open_alloc_.net_gbps;
  } else {
    if (at == n) return "job holds nothing on this node";
    bw = src.residents[at].second.bw_gbps;
    net = src.residents[at].second.net_gbps;
  }
  const GroupId to = intern(from, at);  // may grow groups_
  Record& s = groups_[from];
  s.ev_epoch = epoch_;
  s.ev_dst = to;
  s.moved = 0;
  s.ev_src_idle = mach_->cores - s.cores_used;
  s.ev_dst_idle = mach_->cores - groups_[to].cores_used;
  s.ev_bw = bw;
  s.ev_net = net;
  moves_.push_back(from);
  return nullptr;
}

void ResourceLedger::closeEvent() {
  open_ = false;
  transitions_.clear();
  const int ways = mach_->llc_ways;
  for (const GroupId from : moves_) {
    Record& src = groups_[from];
    const std::uint32_t n = src.moved;
    if (n == 0) continue;  // routed, then the move failed
    src.moved = 0;
    const GroupId to = src.ev_dst;
    Record& dst = groups_[to];
    src.members -= n;
    dst.members += n;
    buckets_[static_cast<std::size_t>(src.ev_src_idle)].adjust(-static_cast<int>(n));
    buckets_[static_cast<std::size_t>(src.ev_dst_idle)].adjust(static_cast<int>(n));
    gridCell(src.ev_src_idle, ways - src.ways_reserved) -= static_cast<std::int32_t>(n);
    gridCell(src.ev_dst_idle, ways - dst.ways_reserved) += static_cast<std::int32_t>(n);
    total_cores_used_ += static_cast<std::int64_t>(n) * (dst.cores_used - src.cores_used);
    total_ways_reserved_ +=
        static_cast<std::int64_t>(n) * (dst.ways_reserved - src.ways_reserved);
    noteMutation(src.ev_src_idle, src.ev_dst_idle, !open_join_, n);
    if (!open_join_) {
      release_epoch_ += n;
      release_idle_watermark_ = std::max(release_idle_watermark_, src.ev_dst_idle);
    }
    transitions_.push_back({from, to, n});
  }
  // Pool the sources the event emptied, and targets interned for a move
  // that then failed. Deferred to here so that an emptied source's list
  // stays readable, and its id unused, while the event can still route.
  for (const GroupId from : moves_) {
    if (from != kIdleGroup && groups_[from].live && groups_[from].members == 0) pool(from);
    const GroupId to = groups_[from].ev_dst;
    if (to != kIdleGroup && groups_[to].live && groups_[to].members == 0) pool(to);
  }
  // The bandwidth total is the one float among the cached totals, and a
  // +=/-= pair need not cancel exactly, so an idle cluster can be left with
  // a ~1-ulp residue (the invariant auditor flagged exactly this). An empty
  // cluster is an unambiguous resync point: snap back to exact zero.
  if (!open_join_ && total_cores_used_ == 0) total_bw_reserved_ = 0.0;
}

ResourceLedger::GroupId ResourceLedger::intern(GroupId from, std::size_t skip) {
  // The target list: `from`'s residents without position `skip` (none
  // when skip is past the end), plus the joining job on a join.
  const auto& base = groups_[from].residents;
  const std::size_t n =
      base.size() - (skip < base.size() ? 1 : 0) + (open_join_ ? 1 : 0);
  if (n == 0) return kIdleGroup;
  ResidentHash hasher;
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (i != skip) hasher.add(base[i].first, base[i].second);
  }
  if (open_join_) hasher.add(open_job_, open_alloc_);
  const std::uint64_t h = hasher.value();
  const auto same = [&](const GroupState& g) {
    if (g.residents.size() != n) return false;
    std::size_t k = 0;
    for (std::size_t i = 0; i < base.size(); ++i) {
      if (i == skip) continue;
      if (g.residents[k].first != base[i].first ||
          !sameAllocation(g.residents[k].second, base[i].second)) {
        return false;
      }
      ++k;
    }
    return !open_join_ || (g.residents[k].first == open_job_ &&
                           sameAllocation(g.residents[k].second, open_alloc_));
  };
  // At most one live group carries a given list.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = h & mask; index_[i] != kIdleGroup; i = (i + 1) & mask) {
    const Record& g = groups_[index_[i]];
    if (g.hash == h && same(g)) return index_[i];
  }
  GroupId g;
  if (!free_.empty()) {
    g = free_.back();
    free_.pop_back();
  } else {
    g = static_cast<GroupId>(groups_.size());
    groups_.emplace_back();  // invalidates `base`
  }
  Record& grp = groups_[g];
  const auto& src = groups_[from].residents;
  grp.residents.clear();
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (i != skip) grp.residents.push_back(src[i]);
  }
  if (open_join_) grp.residents.emplace_back(open_job_, open_alloc_);
  grp.cores_used = 0;
  grp.ways_reserved = 0;
  grp.partitioned = 0;
  grp.exclusive = false;
  for (const auto& [job, a] : grp.residents) {
    grp.cores_used += a.cores;
    grp.ways_reserved += a.ways;
    if (a.exclusive) grp.exclusive = true;
    if (!a.exclusive && a.ways > 0) ++grp.partitioned;
  }
  grp.occ_cores = static_cast<double>(grp.cores_used) / mach_->cores;
  grp.occ_ways = static_cast<double>(grp.ways_reserved) / mach_->llc_ways;
  grp.members = 0;
  grp.live = true;
  grp.serial = ++serial_;
  grp.hash = h;
  grp.ev_epoch = 0;
  grp.moved = 0;
  indexInsert(g);
  return g;
}

void ResourceLedger::indexInsert(GroupId g) {
  if (2 * (indexed_ + 1) > index_.size()) {
    // Keep the load at most one half: rebuild at twice the size.
    std::vector<GroupId> old(index_.size() * 2, kIdleGroup);
    old.swap(index_);
    for (const GroupId k : old) {
      if (k != kIdleGroup) indexPlace(k);
    }
  }
  indexPlace(g);
  ++indexed_;
}

void ResourceLedger::indexPlace(GroupId g) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = groups_[g].hash & mask;
  while (index_[i] != kIdleGroup) i = (i + 1) & mask;
  index_[i] = g;
}

void ResourceLedger::pool(GroupId g) {
  // Linear-probing deletion by backward shift: later entries of the probe
  // run move up into the hole unless their home slot lies cyclically in
  // (hole, entry], so every remaining entry stays reachable from its home.
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = groups_[g].hash & mask;
  while (index_[hole] != g) hole = (hole + 1) & mask;
  for (std::size_t j = (hole + 1) & mask; index_[j] != kIdleGroup; j = (j + 1) & mask) {
    const std::size_t home = groups_[index_[j]].hash & mask;
    const bool stays = hole <= j ? (hole < home && home <= j) : (hole < home || home <= j);
    if (stays) continue;
    index_[hole] = index_[j];
    hole = j;
  }
  index_[hole] = kIdleGroup;
  --indexed_;
  groups_[g].live = false;
  free_.push_back(g);
}

std::vector<int> ResourceLedger::feasibleNodes(const NodeAllocation& request) const {
  settlePending();
  query_core_floor_ = std::min(query_core_floor_, request.cores);
  std::vector<int> out;
  for (int c = mach_->cores; c >= std::max(0, request.cores); --c) {
    const auto& bucket = buckets_[static_cast<std::size_t>(c)];
    if (bucket.empty()) continue;
    if (c == mach_->cores) {
      scanIdleBucket(bucket, request, std::numeric_limits<std::size_t>::max(),
                     out);
      continue;
    }
    scanBucket(bucket, request, std::numeric_limits<std::size_t>::max(), out);
  }
  return out;
}

void ResourceLedger::scanBucket(const NodeBitset& bucket,
                                const NodeAllocation& request, std::size_t cap,
                                std::vector<int>& dest) const {
  const std::size_t begin = dest.size();
  if (pool_ == nullptr ||
      static_cast<std::size_t>(bucket.size()) < min_parallel_ ||
      pool_->threadCount() <= 1) {
    bucket.scan([&](int id) {
      if (view(id).fits(request)) dest.push_back(id);
      return dest.size() - begin < cap;
    });
    return;
  }
  // Sharded scan with ordered merge: shard boundaries are fixed bitmap word
  // ranges (a function of node id only), each shard is capped at `cap` (no
  // shard can contribute more than the whole scan keeps), and the merge
  // concatenates shards in order — bit-for-bit the serial scan's capped
  // prefix, regardless of worker timing. Workers read immutable node state
  // and write only their own scratch vector; f.get() sequences every write
  // before the merge.
  const std::size_t shards = pool_->threadCount();
  if (shard_scratch_.size() < shards) shard_scratch_.resize(shards);
  const std::size_t words = bucket.wordCount();
  const std::size_t chunk = (words + shards - 1) / shards;
  const std::size_t used = (words + chunk - 1) / chunk;
  std::vector<std::future<void>> pending;
  pending.reserve(used - 1);
  for (std::size_t t = 1; t < used; ++t) {
    const std::size_t wb = chunk * t;
    const std::size_t we = std::min(words, wb + chunk);
    auto& out = shard_scratch_[t];
    pending.push_back(
        pool_->submit([this, &bucket, &request, &out, wb, we, cap] {
          out.clear();
          bucket.scanWords(wb, we, [&](int id) {
            if (view(id).fits(request)) {
              out.push_back(id);
            }
            return out.size() < cap;
          });
        }));
  }
  auto& own = shard_scratch_[0];
  own.clear();
  bucket.scanWords(0, std::min(words, chunk), [&](int id) {
    if (view(id).fits(request)) own.push_back(id);
    return own.size() < cap;
  });
  for (auto& f : pending) f.get();
  for (std::size_t t = 0; t < used; ++t) {
    for (int id : shard_scratch_[t]) {
      if (dest.size() - begin >= cap) return;
      dest.push_back(id);
    }
  }
}

void ResourceLedger::scanIdleBucket(const NodeBitset& bucket,
                                    const NodeAllocation& request,
                                    std::size_t cap,
                                    std::vector<int>& dest) const {
  int rep = -1;
  bucket.scan([&](int id) {
    rep = id;
    return false;
  });
  if (rep < 0 || !view(rep).fits(request)) return;
  const std::size_t begin = dest.size();
  bucket.scan([&](int id) {
    dest.push_back(id);
    return dest.size() - begin < cap;
  });
}

void ResourceLedger::collectCandidates(const NodeAllocation& request,
                                       std::size_t per_group_cap) const {
  cand_.clear();
  group_end_.clear();
  const int from = std::max(0, request.cores);
  for (int c = from; c <= mach_->cores; ++c) {
    const auto& bucket = buckets_[static_cast<std::size_t>(c)];
    if (bucket.empty()) continue;
    if (request.exclusive && c < mach_->cores) {
      // idleCores < cores proves a resident holds >= 1 core, so an
      // exclusive request cannot fit anywhere in this bucket: an empty
      // group.
      group_end_.push_back(cand_.size());
      continue;
    }
    if (c == mach_->cores) {
      scanIdleBucket(bucket, request, per_group_cap, cand_);
    } else {
      scanBucket(bucket, request, per_group_cap, cand_);
    }
    group_end_.push_back(cand_.size());
  }
}

std::vector<int> ResourceLedger::selectNodes(int count, const NodeAllocation& request,
                                             double beta) const {
  SNS_REQUIRE(count >= 1, "selectNodes() needs count >= 1");
  settlePending();
  query_core_floor_ = std::min(query_core_floor_, request.cores);

  // Exclusive requests are a provable special case: they only fit on
  // completely idle nodes (every resident allocation holds >= 1 core), so
  // all candidates live in one group and score exactly 0.0 — the ranked
  // prefix is the first `count` candidates, making any scan window
  // >= count equivalent and the scoring pass unnecessary. CE and the
  // E-mode arm of SNS place this request for every multi-node job, with
  // `count` in the thousands on Fig 20 clusters. Already O(1) on failure,
  // so the selection cache skips them.
  if (request.exclusive) {
    // Candidates can only be fully idle nodes, so when the free list is
    // already too small the scan cannot succeed — failed placement
    // attempts (a deep queue probing an overcommitted cluster every
    // scheduling point) cost O(1) instead of a walk over every idle node.
    if (idleNodeCount() < count) return {};
    collectCandidates(request, static_cast<std::size_t>(count));
    if (cand_.size() < static_cast<std::size_t>(count)) return {};
    std::size_t begin = 0;
    for (std::size_t end : group_end_) {
      if (end - begin >= static_cast<std::size_t>(count)) {
        return {cand_.begin() + static_cast<std::ptrdiff_t>(begin),
                cand_.begin() + static_cast<std::ptrdiff_t>(begin + count)};
      }
      begin = end;
    }
    return {};
  }

  const SelectQuery q = makeQuery(/*kind=*/0, count, request, beta);
  if (const std::vector<int>* hit = cacheLookup(q)) return *hit;
  std::vector<int> out;
  // Fast fail: the suffix bucket population bounds the feasible set from
  // above, so fewer than `count` nodes with enough idle cores proves the
  // scans below would come back empty — without reading one node ledger.
  if (feasibleUpperBound(request.cores, request.ways, count) >= count) {
    out = selectNodesRanked(count, request, beta);
  }
  cacheStore(q, out, count, request, beta, /*kind=*/0);
  return out;
}

std::vector<int> ResourceLedger::selectNodesRanked(int count,
                                                   const NodeAllocation& request,
                                                   double beta) const {
  // Rank `ids` by the node score Co + Bo + beta x Wo (hoisted: one score
  // evaluation per candidate, not per comparison), id as the deterministic
  // tie-break, and return the best `count`. Only the winning prefix is
  // needed, so partial_sort suffices: the comparator is a strict total
  // order, making the prefix identical to a full sort's.
  // `ids_ascending` marks callers whose candidate list is already in
  // ascending id order (a single group's scan); when additionally every
  // candidate scores the same, the ranked prefix is just the first `count`
  // ids, no sort needed.
  auto best = [&](const int* ids, std::size_t n, bool ids_ascending) {
    fillScores(pool_, min_parallel_, ids, n, rank_scratch_, [&](int id) {
      return view(id).score(beta);
    });
    bool uniform = true;
    for (std::size_t i = 1; i < n && uniform; ++i) {
      uniform = rank_scratch_[i].first == rank_scratch_.front().first;
    }
    if (!(uniform && ids_ascending)) {
      // Identical prefix any way it is produced (strict total order, so
      // the sorted prefix is unique). Heap-based partial_sort pays off
      // when the prefix is a small slice; otherwise partition the winners
      // to the front in O(n) and sort only them — a full sort paid
      // n log n for a prefix the callers never read past.
      const auto mid =
          rank_scratch_.begin() + static_cast<std::ptrdiff_t>(count);
      if (static_cast<std::size_t>(count) * 4 >= n) {
        if (static_cast<std::size_t>(count) < n) {
          std::nth_element(rank_scratch_.begin(), mid, rank_scratch_.end());
        }
        std::sort(rank_scratch_.begin(), mid);
      } else {
        std::partial_sort(rank_scratch_.begin(), mid, rank_scratch_.end());
      }
    }
    std::vector<int> out(static_cast<std::size_t>(count));
    for (std::size_t i = 0; i < out.size(); ++i) out[i] = rank_scratch_[i].second;
    return out;
  };

  // Walk feasible groups best-fit first (least idle cores that still hold
  // the request): the first group that can satisfy the whole request on
  // its own wins, which keeps per-group consumption even and preserves
  // fully idle nodes for large jobs (the paper's fragmentation-reduction
  // rule, §4.4). Within a group, the least-loaded nodes win by the score
  // Co + Bo + beta x Wo. If no single group suffices, fall back to the
  // idlest feasible nodes cluster-wide. Bucket scans are capped so a
  // single placement stays sub-linear on 32K-node clusters.
  const std::size_t scan_cap =
      std::max<std::size_t>(64, 2 * static_cast<std::size_t>(count) + 8);
  // Walk buckets lazily, best-fit first, and stop at the first group that
  // satisfies the whole request on its own — identical to collecting every
  // group up front and then walking (the winning group's candidates don't
  // depend on groups after it), but a typical placement ends after one
  // bucket instead of scanning all of them.
  cand_.clear();
  group_end_.clear();
  for (int c = std::max(0, request.cores); c <= mach_->cores; ++c) {
    const auto& bucket = buckets_[static_cast<std::size_t>(c)];
    if (bucket.empty()) continue;
    const std::size_t begin = cand_.size();
    if (c == mach_->cores) {
      scanIdleBucket(bucket, request, scan_cap, cand_);
    } else {
      scanBucket(bucket, request, scan_cap, cand_);
    }
    group_end_.push_back(cand_.size());
    if (cand_.size() - begin >= static_cast<std::size_t>(count)) {
      if (c == mach_->cores) {
        // Every fully idle node scores exactly 0.0 (pinned zero
        // reservations), so the uniform + ids_ascending shortcut in
        // best() applies analytically: the answer is the first `count`
        // ids, no score fill needed.
        return {cand_.begin() + static_cast<std::ptrdiff_t>(begin),
                cand_.begin() + static_cast<std::ptrdiff_t>(
                                    begin + static_cast<std::size_t>(count))};
      }
      return best(cand_.data() + begin, cand_.size() - begin,
                  /*ids_ascending=*/true);
    }
  }
  // No single group sufficed; every bucket has been scanned above, so the
  // flattened concatenation is complete (ascending only within each
  // group, so the uniform-score shortcut does not apply).
  if (cand_.size() < static_cast<std::size_t>(count)) return {};
  return best(cand_.data(), cand_.size(), /*ids_ascending=*/false);
}

std::vector<int> ResourceLedger::selectNodesByAlignment(
    int count, const NodeAllocation& request) const {
  SNS_REQUIRE(count >= 1, "selectNodesByAlignment() needs count >= 1");
  settlePending();
  query_core_floor_ = std::min(query_core_floor_, request.cores);
  if (request.exclusive) return selectNodesAligned(count, request);
  const SelectQuery q = makeQuery(/*kind=*/1, count, request, /*beta=*/0.0);
  if (const std::vector<int>* hit = cacheLookup(q)) return *hit;
  std::vector<int> out;
  if (feasibleUpperBound(request.cores, request.ways, count) >= count) {
    out = selectNodesAligned(count, request);
  }
  cacheStore(q, out, count, request, /*beta=*/0.0, /*kind=*/1);
  return out;
}

std::vector<int> ResourceLedger::selectNodesAligned(
    int count, const NodeAllocation& request) const {
  auto candidates = feasibleNodes(request);
  if (static_cast<int>(candidates.size()) < count) return {};

  // Normalize each dimension by its node capacity so cores, ways, memory
  // bandwidth and NIC bandwidth weigh equally.
  const double req[4] = {
      static_cast<double>(request.cores) / mach_->cores,
      static_cast<double>(request.ways) / mach_->llc_ways,
      request.bw_gbps / mach_->peakBandwidth(),
      request.net_gbps / mach_->net_bw_gbps,
  };
  auto alignment = [&](int id) {
    const NodeLedger n = view(id);
    const double free[4] = {
        static_cast<double>(n.idleCores()) / mach_->cores,
        static_cast<double>(n.freeWays()) / mach_->llc_ways,
        n.freeBandwidth() / mach_->peakBandwidth(),
        n.freeNetwork() / mach_->net_bw_gbps,
    };
    double dot = 0.0;
    for (int d = 0; d < 4; ++d) dot += req[d] * free[d];
    return dot;
  };

  // Only the top `count` are needed: precompute each candidate's alignment
  // once and partial-sort, instead of the old full O(N log N) sort with
  // the dot product re-derived inside the comparator. The comparator is a
  // strict total order (id tie-break), so the selected prefix is identical
  // to what a full sort would produce.
  std::vector<std::pair<double, int>> scored;
  fillScores(pool_, min_parallel_, candidates.data(), candidates.size(),
             scored, alignment);
  std::partial_sort(scored.begin(), scored.begin() + count, scored.end(),
                    [](const std::pair<double, int>& a,
                       const std::pair<double, int>& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;
                    });
  candidates.resize(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    candidates[static_cast<std::size_t>(i)] = scored[static_cast<std::size_t>(i)].second;
  }
  return candidates;
}

// ---- selection cache --------------------------------------------------------

void ResourceLedger::setSearchPool(util::ThreadPool* pool,
                                   int min_parallel_nodes) {
  pool_ = pool;
  min_parallel_ = static_cast<std::size_t>(std::max(1, min_parallel_nodes));
}

ResourceLedger::SelectQuery ResourceLedger::makeQuery(
    int kind, int count, const NodeAllocation& request, double beta) {
  SelectQuery q;
  q.kind = kind;
  q.count = count;
  q.cores = request.cores;
  q.ways = request.ways;
  q.bw_bits = std::bit_cast<std::uint64_t>(request.bw_gbps);
  q.net_bits = std::bit_cast<std::uint64_t>(request.net_gbps);
  q.beta_bits = std::bit_cast<std::uint64_t>(beta);
  return q;
}

std::size_t ResourceLedger::SelectQueryHash::operator()(
    const SelectQuery& q) const {
  std::uint64_t h =
      mix64((static_cast<std::uint64_t>(static_cast<std::uint32_t>(q.kind)) << 48) ^
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(q.count)) << 32) ^
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(q.cores)) << 16) ^
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(q.ways)));
  h = mix64(h ^ q.bw_bits);
  h = mix64(h ^ q.net_bits);
  h = mix64(h ^ q.beta_bits);
  return static_cast<std::size_t>(h);
}

void ResourceLedger::noteMutation(int old_idle, int new_idle, bool released,
                                  std::uint32_t n) {
  // n node mutations with one max_idle: the stack keeps only the newest of
  // equal values, so one push at the last of the n versions is exact.
  change_version_ += n;
  if (released) last_release_version_ = change_version_;
  const std::int32_t max_idle =
      static_cast<std::int32_t>(std::max(old_idle, new_idle));
  const auto push = [this, max_idle](SuffixStack& st) {
    // A newer mutation with an equal-or-greater max_idle dominates every
    // suffix an older entry could answer for; drop the dominated tail.
    while (!st.empty() && st.back().second <= max_idle) st.pop_back();
    st.push_back({change_version_, max_idle});
  };
  push(mut_suffix_);
  if (released) push(rel_suffix_);
}

namespace {
/// Max of max_idle over all stack entries with version > after, or -1 when
/// there are none. Entries are strictly decreasing in value as versions
/// increase (see mut_suffix_), so the answer is the first entry past
/// `after`.
std::int32_t suffixMaxIdle(
    const std::vector<std::pair<std::uint64_t, std::int32_t>>& st,
    std::uint64_t after) {
  const auto it = std::upper_bound(
      st.begin(), st.end(), after,
      [](std::uint64_t v, const auto& e) { return v < e.first; });
  return it == st.end() ? -1 : it->second;
}
}  // namespace

bool ResourceLedger::entryStillValid(const CacheEntry& e) const {
  if (e.version == change_version_) return true;
  const int from = std::max(0, e.request.cores);
  if (e.nodes.empty()) {
    // Failure certificate: an empty result proved fewer than `count` nodes
    // could hold the request. Allocations only shrink capacity, so the
    // conclusion stands until a release — and only a release that lifts
    // the freed node's idle cores into the scanned range [cores, max]
    // can add a node the query would now see (a release's max_idle IS its
    // post-release idle count, since releasing only raises it).
    if (last_release_version_ <= e.version) return true;
    return suffixMaxIdle(rel_suffix_, e.version) < from;
  }
  // Node-level revalidation: the query read exactly the nodes whose
  // idle-core count lies in [request.cores, cores]. A mutation whose
  // touched node stayed below that range (before and after) cannot have
  // changed any input the query read; if every mutation since the fill is
  // such a mutation, the result is unchanged.
  return suffixMaxIdle(mut_suffix_, e.version) < from;
}

const std::vector<int>* ResourceLedger::cacheLookup(const SelectQuery& q) const {
  const auto it = sel_cache_.find(q);
  if (it != sel_cache_.end() && entryStillValid(it->second)) {
    // Touch: the entry is proven valid at the current version, so future
    // checks only need to consider mutations from here on.
    it->second.version = change_version_;
    ++cache_hits_;
    return &it->second.nodes;
  }
  ++cache_misses_;
  return nullptr;
}

void ResourceLedger::cacheStore(const SelectQuery& q,
                                const std::vector<int>& result, int count,
                                const NodeAllocation& request, double beta,
                                int kind) const {
  if (sel_cache_.size() >= kMaxCacheEntries) {
    sel_cache_.clear();
    // With no live entries the history protects nothing; restart it.
    mut_suffix_.clear();
    rel_suffix_.clear();
  }
  CacheEntry e;
  e.nodes = result;
  e.version = change_version_;
  e.request = request;
  e.count = count;
  e.kind = kind;
  e.beta = beta;
  sel_cache_[q] = std::move(e);
}

int ResourceLedger::feasibleUpperBound(int from, int ways, int enough) const {
  settlePending();
  // #{nodes : idleCores >= from AND freeWays >= ways} — counted exactly
  // from the (idle-cores x free-ways) population grid, so it bounds the
  // feasible set from above (fits() additionally checks bandwidth,
  // network and exclusivity, which only shrink it further). Callers pass
  // the candidate count they need in `enough`: the suffix sum stops as
  // soon as the bound proves the scan could succeed, so the common
  // feasible case costs a handful of adds and the provably-empty case at
  // most one pass over the grid.
  int n = 0;
  const int w0 = std::max(0, ways);
  for (int c = mach_->cores; c >= std::max(0, from); --c) {
    const std::int32_t* row = cw_grid_.data() +
                              static_cast<std::size_t>(c) *
                                  static_cast<std::size_t>(mach_->llc_ways + 1);
    for (int w = w0; w <= mach_->llc_ways; ++w) n += row[w];
    if (n >= enough) return n;
  }
  return n;
}

std::vector<std::string> ResourceLedger::auditSelectionCache() const {
  settlePending();
  std::vector<std::string> out;
  // Violations are sorted below, so map order never reaches output.
  for (const auto& [q, e] : sel_cache_) {  // snslint: allow(unordered-iteration)
    // An entry the lookup would not serve recomputes on next use; only
    // currently-reusable entries can return stale data.
    if (!entryStillValid(e)) continue;
    const std::vector<int> fresh =
        e.kind == 1 ? selectNodesAligned(e.count, e.request)
                    : selectNodesRanked(e.count, e.request, e.beta);
    if (fresh != e.nodes) {
      out.push_back("selection cache entry stale: kind=" + std::to_string(e.kind) +
                    " count=" + std::to_string(e.count) +
                    " cores=" + std::to_string(e.request.cores) +
                    " cached_n=" + std::to_string(e.nodes.size()) +
                    " fresh_n=" + std::to_string(fresh.size()));
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sns::actuator
