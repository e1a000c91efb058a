#include "sns/actuator/resource_ledger.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "sns/util/error.hpp"

namespace sns::actuator {

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ResourceLedger::ResourceLedger(int nodes, const hw::MachineConfig& mach)
    : mach_(&mach), peak_bw_(mach.peakBandwidth()) {
  SNS_REQUIRE(nodes >= 1, "ResourceLedger needs at least one node");
  slots_.assign(static_cast<std::size_t>(nodes), NodeSlot{});
  groups_.emplace_back();
  groups_[kIdleGroup].members = static_cast<std::uint32_t>(nodes);
  groups_[kIdleGroup].live = true;
  groups_[kIdleGroup].first_class = kIdleClass;
  classes_.emplace_back();
  classes_[kIdleClass].members = static_cast<std::uint32_t>(nodes);
  classes_[kIdleClass].live = true;
  verdicts_.resize(1);
  index_.assign(64, kIdleGroup);
  const auto rows = static_cast<std::size_t>(mach.cores) + 1;
  buckets_.assign(rows, NodeBitset(nodes));
  auto& idle_bucket = buckets_[static_cast<std::size_t>(mach.cores)];
  for (int i = 0; i < nodes; ++i) idle_bucket.insert(i);
  bucket_classes_.assign(rows, kNoClass);
  bucket_classes_[static_cast<std::size_t>(mach.cores)] = kIdleClass;
  way_rows_.assign(rows * static_cast<std::size_t>(mach.llc_ways + 1), 0);
  addToRows(mach.cores, mach.llc_ways, nodes);
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
  // Segment by segment: a maximal run of consecutive ids in one class
  // routes once and moves together; an error leaves its segment unchanged
  // and every earlier one committed, as per-node calls would. Classes are
  // read as the scan reaches them; a node the event already moved sits in
  // a target class, whose routing always fails (on a join it holds the
  // job, on a leave it lacks it), so no segment moves such a node. A
  // single node takes step(), so inputs without runs cost what a per-node
  // walk does.
  const std::size_t n = nodes.size();
  for (std::size_t i = 0; i < n;) {
    const int first = nodes[i];
    std::size_t len = 1;
    if (i + 1 < n && first >= 0 && first < nodeCount() - 1 && nodes[i + 1] == first + 1) {
      // The run stops at the input's end and at the cluster's last id.
      const std::size_t room =
          std::min(n - i, static_cast<std::size_t>(nodeCount() - first));
      const ClassId cls = slots_[static_cast<std::size_t>(first)].cls;
      while (len < room && nodes[i + len] == first + static_cast<int>(len) &&
             slots_[static_cast<std::size_t>(first) + len].cls == cls) {
        ++len;
      }
    }
    if (const char* error =
            len == 1 ? step(first) : stepRun(first, static_cast<int>(len))) {
      closeEvent();
      fail(error);
    }
    i += len;
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
  class_moves_.clear();
  open_ = true;
  open_join_ = join != nullptr;
  open_job_ = job;
}

const char* ResourceLedger::step(int nd) {
  if (nd < 0 || nd >= nodeCount()) return "node id out of range";
  NodeSlot& s = slots_[static_cast<std::size_t>(nd)];
  const ClassId from = s.cls;
  // A moved node never names a source class of its event again (its
  // target group holds the job on a join and lacks it on a leave), so a
  // routed source always moves its nodes to the same target.
  if (classes_[from].ev_epoch != epoch_) {
    if (const char* error = routeClass(from)) return error;
  }
  ClassRecord& src = classes_[from];
  SNS_REQUIRE(buckets_[static_cast<std::size_t>(src.ev_src_idle)].transfer(
                  buckets_[static_cast<std::size_t>(src.ev_dst_idle)], nd),
              "ledger group index corrupt");
  s.cls = src.ev_dst;
  ++src.moved;
  return nullptr;
}

const char* ResourceLedger::stepRun(int first, int len) {
  const ClassId from = slots_[static_cast<std::size_t>(first)].cls;
  if (classes_[from].ev_epoch != epoch_) {
    if (const char* error = routeClass(from)) return error;
  }
  ClassRecord& src = classes_[from];
  SNS_REQUIRE(buckets_[static_cast<std::size_t>(src.ev_src_idle)].transferRange(
                  buckets_[static_cast<std::size_t>(src.ev_dst_idle)], first, len),
              "ledger group index corrupt");
  std::fill_n(slots_.begin() + first, len, NodeSlot{src.ev_dst});
  src.moved += static_cast<std::uint32_t>(len);
  return nullptr;
}

const char* ResourceLedger::routeClass(ClassId from) {
  const GroupId g = classes_[from].group;
  if (groups_[g].ev_epoch != epoch_) {
    if (const char* error = route(g)) return error;
  }
  const Record& grp = groups_[g];
  const ClassRecord& c = classes_[from];
  double bw;
  double net;
  if (open_join_) {
    if (grp.ev_bw > (peak_bw_ - c.bw) + 1e-9 ||
        grp.ev_net > (mach_->net_bw_gbps - c.net) + 1e-9) {
      return "allocation does not fit on node";
    }
    bw = c.bw + grp.ev_bw;
    net = c.net + grp.ev_net;
  } else if (grp.ev_dst == kIdleGroup) {
    // Summed double reservations can hold a +-1-ULP residue after the
    // last resident leaves ((a+b)-a-b != 0 in floating point), which
    // would make an empty node's fits()/score() depend on its allocation
    // history. Pin the sums to exact zeros: all fully idle nodes are then
    // one class, kIdleClass.
    bw = 0.0;
    net = 0.0;
  } else {
    bw = c.bw - grp.ev_bw;
    net = c.net - grp.ev_net;
  }
  const GroupId to_group = grp.ev_dst;
  const int src_idle = grp.ev_src_idle;
  const int dst_idle = grp.ev_dst_idle;
  const ClassId to = internClass(to_group, bw, net);  // may grow classes_
  ClassRecord& k = classes_[from];
  k.ev_epoch = epoch_;
  k.ev_dst = to;
  k.moved = 0;
  k.ev_src_idle = src_idle;
  k.ev_dst_idle = dst_idle;
  class_moves_.push_back(from);
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
  s.ev_bw_units = bwUnits(bw);
  moves_.push_back(from);
  return nullptr;
}

void ResourceLedger::closeEvent() {
  open_ = false;
  transitions_.clear();
  for (const ClassId from : class_moves_) {
    ClassRecord& src = classes_[from];
    const std::uint32_t n = src.moved;
    src.moved = 0;
    src.members -= n;
    classes_[src.ev_dst].members += n;
    groups_[src.group].moved += n;
  }
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
    addToRows(src.ev_src_idle, ways - src.ways_reserved, -static_cast<std::int32_t>(n));
    addToRows(src.ev_dst_idle, ways - dst.ways_reserved, static_cast<std::int32_t>(n));
    total_cores_used_ += static_cast<std::int64_t>(n) * (dst.cores_used - src.cores_used);
    total_ways_reserved_ +=
        static_cast<std::int64_t>(n) * (dst.ways_reserved - src.ways_reserved);
    const std::int64_t bw_units = static_cast<std::int64_t>(n) * src.ev_bw_units;
    total_bw_units_ += open_join_ ? bw_units : -bw_units;
    if (!open_join_) {
      release_epoch_ += n;
      release_idle_watermark_ = std::max(release_idle_watermark_, src.ev_dst_idle);
    }
    transitions_.push_back({from, to, n});
  }
  // Pool the sources the event emptied, and targets interned for a move
  // that then failed. Deferred to here so that an emptied source's list
  // stays readable, and its id unused, while the event can still route.
  // Classes first: an emptied group has no live class left after this.
  for (const ClassId from : class_moves_) {
    if (from != kIdleClass && classes_[from].live && classes_[from].members == 0) {
      poolClass(from);
    }
    const ClassId to = classes_[from].ev_dst;
    if (to != kIdleClass && classes_[to].live && classes_[to].members == 0) poolClass(to);
  }
  for (const GroupId from : moves_) {
    if (from != kIdleGroup && groups_[from].live && groups_[from].members == 0) pool(from);
    const GroupId to = groups_[from].ev_dst;
    if (to != kIdleGroup && groups_[to].live && groups_[to].members == 0) pool(to);
  }
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
  grp.first_class = kNoClass;
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

ResourceLedger::ClassId ResourceLedger::internClass(GroupId g, double bw, double net) {
  if (g == kIdleGroup) return kIdleClass;  // going idle pins the sums to zero
  const auto bw_bits = std::bit_cast<std::uint64_t>(bw);
  const auto net_bits = std::bit_cast<std::uint64_t>(net);
  // A group holds few classes (sums differ only in last-bit residues), so
  // its list is the index.
  for (ClassId k = groups_[g].first_class; k != kNoClass; k = classes_[k].next_in_group) {
    const ClassRecord& c = classes_[k];
    if (std::bit_cast<std::uint64_t>(c.bw) == bw_bits &&
        std::bit_cast<std::uint64_t>(c.net) == net_bits) {
      return k;
    }
  }
  ClassId k;
  if (!free_classes_.empty()) {
    k = free_classes_.back();
    free_classes_.pop_back();
  } else {
    k = static_cast<ClassId>(classes_.size());
    classes_.emplace_back();
    verdicts_.resize(classes_.size());
  }
  ClassRecord& c = classes_[k];
  c.group = g;
  c.members = 0;
  c.bw = bw;
  c.net = net;
  c.live = true;
  c.ev_epoch = 0;
  c.moved = 0;
  c.next_in_group = groups_[g].first_class;
  groups_[g].first_class = k;
  const auto idle = static_cast<std::size_t>(mach_->cores - groups_[g].cores_used);
  c.bucket_prev = kNoClass;
  c.bucket_next = bucket_classes_[idle];
  if (c.bucket_next != kNoClass) classes_[c.bucket_next].bucket_prev = k;
  bucket_classes_[idle] = k;
  return k;
}

void ResourceLedger::poolClass(ClassId k) {
  ClassRecord& c = classes_[k];
  Record& g = groups_[c.group];
  if (g.first_class == k) {
    g.first_class = c.next_in_group;
  } else {
    ClassId p = g.first_class;
    while (classes_[p].next_in_group != k) p = classes_[p].next_in_group;
    classes_[p].next_in_group = c.next_in_group;
  }
  if (c.bucket_prev != kNoClass) {
    classes_[c.bucket_prev].bucket_next = c.bucket_next;
  } else {
    bucket_classes_[static_cast<std::size_t>(mach_->cores - g.cores_used)] = c.bucket_next;
  }
  if (c.bucket_next != kNoClass) classes_[c.bucket_next].bucket_prev = c.bucket_prev;
  c.live = false;
  free_classes_.push_back(k);
}

template <typename KeyFn>
std::uint32_t ResourceLedger::judgeBucket(int c, const NodeAllocation& request,
                                          const KeyFn& key, bool& uniform) const {
  std::uint32_t fit = 0;
  bool seen = false;
  double first = 0.0;
  for (ClassId k = bucket_classes_[static_cast<std::size_t>(c)]; k != kNoClass;
       k = classes_[k].bucket_next) {
    Verdict& v = verdicts_[k];
    const NodeLedger n = classView(k);
    v.fits = n.fits(request);
    v.hits = 0;
    if (!v.fits || classes_[k].members == 0) continue;
    v.key = key(n);
    fit += classes_[k].members;
    if (!seen) {
      first = v.key;
      seen = true;
    } else if (v.key != first) {
      uniform = false;
    }
  }
  return fit;
}

std::vector<int> ResourceLedger::firstFitting(int c, std::size_t n, bool all_fit) const {
  std::vector<int> out;
  out.reserve(n);
  buckets_[static_cast<std::size_t>(c)].scan([&](int id) {
    if (!all_fit && !verdicts_[classOf(id)].fits) return true;
    out.push_back(id);
    return out.size() < n;
  });
  return out;
}

std::vector<int> ResourceLedger::rankBuckets(int lo, int hi, std::size_t count,
                                             bool descending) const {
  hit_classes_.clear();
  for (int c = lo; c <= hi; ++c) {
    for (ClassId k = bucket_classes_[static_cast<std::size_t>(c)]; k != kNoClass;
         k = classes_[k].bucket_next) {
      Verdict& v = verdicts_[k];
      if (classes_[k].members == 0 || !v.fits) continue;
      v.hits = classes_[k].members;
      hit_classes_.push_back(k);
    }
  }
  return fillRanked(lo, hi, count, descending);
}

std::vector<int> ResourceLedger::rankWindow(int c, std::size_t count, std::size_t cap) const {
  hit_classes_.clear();
  std::size_t seen = 0;
  buckets_[static_cast<std::size_t>(c)].scan([&](int id) {
    const ClassId k = classOf(id);
    Verdict& v = verdicts_[k];
    if (!v.fits) return true;
    if (v.hits++ == 0) hit_classes_.push_back(k);
    return ++seen < cap;
  });
  // The window is the bucket's first `cap` fitting ids, and every slot of
  // the output belongs to one of them, so the fill below stops inside it.
  return fillRanked(c, c, count, /*descending=*/false);
}

std::vector<int> ResourceLedger::fillRanked(int lo, int hi, std::size_t count,
                                            bool descending) const {
  std::sort(hit_classes_.begin(), hit_classes_.end(), [&](ClassId a, ClassId b) {
    const double ka = verdicts_[a].key;
    const double kb = verdicts_[b].key;
    return descending ? ka > kb : ka < kb;
  });
  // One rank per distinct key (classes with equal keys share a rank);
  // rank_start_[r] = where its slice of the ranked order begins, with the
  // end of the last slice appended. Buckets are filled one after another,
  // each in ascending id order, so a rank whose classes lie in several
  // buckets goes to tied_, to be put in id order after the fill.
  rank_start_.clear();
  tied_.clear();
  std::size_t pos = 0;
  for (std::size_t i = 0; i < hit_classes_.size(); ++i) {
    const ClassId k = hit_classes_[i];
    Verdict& v = verdicts_[k];
    if (i == 0 || v.key != verdicts_[hit_classes_[i - 1]].key) {
      rank_start_.push_back(pos);
    } else if (groups_[classes_[k].group].cores_used !=
                   groups_[classes_[hit_classes_[i - 1]].group].cores_used &&
               (tied_.empty() || tied_.back().first != rank_start_.size() - 1)) {
      tied_.emplace_back(rank_start_.size() - 1, 0);
    }
    v.rank = static_cast<std::uint32_t>(rank_start_.size() - 1);
    pos += v.hits;
  }
  rank_start_.push_back(pos);
  // A tied rank that straddles `count` is filled whole, so that its lowest
  // ids are the ones kept.
  std::size_t size = count;
  for (auto& [begin, end] : tied_) {
    end = rank_start_[begin + 1];
    begin = rank_start_[begin];
    if (begin < count) size = std::max(size, end);
  }
  std::vector<int> out(size);
  std::size_t placed = 0;
  for (int c = lo; c <= hi && placed < size; ++c) {
    // Skip a bucket whose fitting classes all rank past the output.
    bool wanted = false;
    for (ClassId k = bucket_classes_[static_cast<std::size_t>(c)]; k != kNoClass && !wanted;
         k = classes_[k].bucket_next) {
      const Verdict& v = verdicts_[k];
      wanted = v.hits != 0 && rank_start_[v.rank] < size;
    }
    if (!wanted) continue;
    buckets_[static_cast<std::size_t>(c)].scan([&](int id) {
      const Verdict& v = verdicts_[classOf(id)];
      if (!v.fits) return true;
      std::size_t& at = rank_start_[v.rank];
      if (at < size) {
        out[at] = id;
        ++placed;
      }
      ++at;
      return placed < size;
    });
  }
  for (const auto& [begin, end] : tied_) {
    if (begin < count) {
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(begin),
                out.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  out.resize(count);
  return out;
}

std::vector<int> ResourceLedger::feasibleNodes(const NodeAllocation& request) const {
  settlePending();
  query_core_floor_ = std::min(query_core_floor_, request.cores);
  std::vector<int> out;
  for (int c = mach_->cores; c >= std::max(0, request.cores); --c) {
    bool uniform = true;
    judgeBucket(c, request, [](const NodeLedger&) { return 0.0; }, uniform);
    buckets_[static_cast<std::size_t>(c)].scan([&](int id) {
      if (verdicts_[classOf(id)].fits) out.push_back(id);
      return true;
    });
  }
  return out;
}

std::vector<int> ResourceLedger::selectNodes(int count, const NodeAllocation& request,
                                             double beta) const {
  SNS_REQUIRE(count >= 1, "selectNodes() needs count >= 1");
  settlePending();
  query_core_floor_ = std::min(query_core_floor_, request.cores);

  // Exclusive requests are a provable special case: they only fit on
  // completely idle nodes (every resident allocation holds >= 1 core), so
  // all candidates are the one idle class and score exactly 0.0 — the
  // ranked prefix is the first `count` idle nodes. CE and the E-mode arm
  // of SNS place this request for every multi-node job, with `count` in
  // the thousands on Fig 20 clusters. O(1) on failure.
  if (request.exclusive) {
    if (idleNodeCount() < count || !classView(kIdleClass).fits(request)) return {};
    return firstFitting(mach_->cores, static_cast<std::size_t>(count), /*all_fit=*/true);
  }

  // The population bound is the failure check: the per-row way-suffix
  // populations bound the feasible set from above, so fewer than `count`
  // nodes with enough idle cores and free ways proves the scans below
  // would come back empty — without reading one bucket. In a congested
  // replay most re-asked queries end here.
  if (feasibleUpperBound(request.cores, request.ways, count) < count) return {};
  return selectNodesRanked(count, request, beta);
}

std::vector<int> ResourceLedger::selectNodesRanked(int count,
                                                   const NodeAllocation& request,
                                                   double beta) const {
  // Walk buckets best-fit first (least idle cores that still hold the
  // request): the first bucket that can satisfy the whole request on its
  // own wins, which keeps per-group consumption even and preserves fully
  // idle nodes for large jobs (the paper's fragmentation-reduction rule,
  // §4.4). Within a bucket, the least-loaded nodes win by the score
  // Co + Bo + beta x Wo, id breaking ties. If no single bucket suffices,
  // fall back to the idlest feasible nodes cluster-wide. A bucket's window
  // is its first max(64, 2*count+8) fitting nodes in ascending id, so a
  // single placement stays sub-linear on 32K-node clusters; the fallback
  // runs only when every bucket holds fewer than `count` fitting nodes, so
  // there every fitting node competes. Fit and score are per class, so a
  // bucket's fitting population is known before any of its nodes is read.
  const auto n = static_cast<std::size_t>(count);
  const std::size_t cap = std::max<std::size_t>(64, 2 * n + 8);
  const auto score = [beta](const NodeLedger& v) { return v.score(beta); };
  const int from = std::max(0, request.cores);
  std::size_t total = 0;
  for (int c = from; c <= mach_->cores; ++c) {
    bool uniform = true;
    const std::uint32_t fit = judgeBucket(c, request, score, uniform);
    if (fit >= n) {
      const bool all_fit = static_cast<int>(fit) == buckets_[static_cast<std::size_t>(c)].size();
      // Every candidate scores the same: the ranked prefix is the first
      // `count` fitting ids.
      if (uniform) return firstFitting(c, n, all_fit);
      return fit <= cap ? rankBuckets(c, c, n, /*descending=*/false) : rankWindow(c, n, cap);
    }
    total += fit;
  }
  if (total < n) return {};
  return rankBuckets(from, mach_->cores, n, /*descending=*/false);
}

std::vector<int> ResourceLedger::selectNodesByAlignment(
    int count, const NodeAllocation& request) const {
  SNS_REQUIRE(count >= 1, "selectNodesByAlignment() needs count >= 1");
  settlePending();
  query_core_floor_ = std::min(query_core_floor_, request.cores);
  if (!request.exclusive &&
      feasibleUpperBound(request.cores, request.ways, count) < count) {
    return {};
  }
  return selectNodesAligned(count, request);
}

std::vector<int> ResourceLedger::selectNodesAligned(
    int count, const NodeAllocation& request) const {
  // Normalize each dimension by its node capacity so cores, ways, memory
  // bandwidth and NIC bandwidth weigh equally.
  const double req[4] = {
      static_cast<double>(request.cores) / mach_->cores,
      static_cast<double>(request.ways) / mach_->llc_ways,
      request.bw_gbps / mach_->peakBandwidth(),
      request.net_gbps / mach_->net_bw_gbps,
  };
  const auto alignment = [&](const NodeLedger& v) {
    const double free[4] = {
        static_cast<double>(v.idleCores()) / mach_->cores,
        static_cast<double>(v.freeWays()) / mach_->llc_ways,
        v.freeBandwidth() / mach_->peakBandwidth(),
        v.freeNetwork() / mach_->net_bw_gbps,
    };
    double dot = 0.0;
    for (int d = 0; d < 4; ++d) dot += req[d] * free[d];
    return dot;
  };
  // Every feasible node competes: best alignment first, id breaking ties.
  const int from = std::max(0, request.cores);
  std::size_t total = 0;
  for (int c = from; c <= mach_->cores; ++c) {
    bool uniform = true;
    total += judgeBucket(c, request, alignment, uniform);
  }
  if (total < static_cast<std::size_t>(count)) return {};
  return rankBuckets(from, mach_->cores, static_cast<std::size_t>(count), /*descending=*/true);
}

int ResourceLedger::feasibleUpperBound(int from, int ways, int enough) const {
  settlePending();
  // #{nodes : idleCores >= from AND freeWays >= ways} — counted exactly
  // from the per-row way-suffix population counts, so it bounds the
  // feasible set from above (fits() additionally checks bandwidth,
  // network and exclusivity, which only shrink it further). Callers pass
  // the candidate count they need in `enough`: the suffix sum stops as
  // soon as the bound proves the scan could succeed, so the common
  // feasible case costs a handful of adds and the provably-empty case one
  // read per idle-core row.
  int n = 0;
  const int w0 = std::max(0, ways);
  if (w0 > mach_->llc_ways) return 0;
  const auto stride = static_cast<std::size_t>(mach_->llc_ways + 1);
  for (int c = mach_->cores; c >= std::max(0, from); --c) {
    n += way_rows_[static_cast<std::size_t>(c) * stride + static_cast<std::size_t>(w0)];
    if (n >= enough) return n;
  }
  return n;
}

}  // namespace sns::actuator
