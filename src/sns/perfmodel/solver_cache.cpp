#include "sns/perfmodel/solver_cache.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "sns/util/hot_path.hpp"

namespace sns::perfmodel {

namespace {
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  // splitmix64-style combine: cheap and well-distributed for bit patterns.
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// Final avalanche folded to 32 bits, so the low bits the table masks
/// with depend on every input bit. 32 bits index any table the capacity
/// bound allows.
inline std::uint32_t finalize(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x ^ (x >> 32));
}

bool sameBits(const ShareDerivation& a, const ShareDerivation& b) {
  const auto eq = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  return eq(a.miss, b.miss) && eq(a.refs, b.refs) && eq(a.raw_rate, b.raw_rate) &&
         eq(a.demand, b.demand) && eq(a.capped, b.capped);
}
}  // namespace

SolverCache::Key SolverCache::keyOf(const NodeShare& share, double ways) {
  return {share.prog,
          share.procs,
          std::bit_cast<std::uint64_t>(ways),
          std::bit_cast<std::uint64_t>(share.remote_frac),
          std::bit_cast<std::uint64_t>(share.mem_intensity),
          std::bit_cast<std::uint64_t>(share.bw_cap_gbps)};
}

NodeShare SolverCache::shareOf(const Key& key) {
  return {key.prog,
          key.procs,
          std::bit_cast<double>(key.ways_bits),
          std::bit_cast<double>(key.remote_bits),
          std::bit_cast<double>(key.intensity_bits),
          std::bit_cast<double>(key.cap_bits)};
}

std::uint32_t SolverCache::hashOf(const Key& key) {
  std::uint64_t h = reinterpret_cast<std::uintptr_t>(key.prog);
  h = mix(h, static_cast<std::uint64_t>(key.procs));
  h = mix(h, key.ways_bits);
  h = mix(h, key.remote_bits);
  h = mix(h, key.intensity_bits);
  h = mix(h, key.cap_bits);
  return finalize(h);
}

std::size_t SolverCache::probe(std::uint32_t h, const Key& key) const {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Entry& e = table_[i];
    if (e.key.prog == nullptr || (e.hash == h && e.key == key)) return i;
  }
}

void SolverCache::grow() {
  std::vector<Entry> old = std::move(table_);
  table_.assign(old.empty() ? 64 : 2 * old.size(), Entry{});
  const std::size_t mask = table_.size() - 1;
  for (const Entry& e : old) {
    if (e.key.prog == nullptr) continue;
    std::size_t i = e.hash & mask;
    while (table_[i].key.prog != nullptr) i = (i + 1) & mask;
    table_[i] = e;
  }
}

void SolverCache::wipe() {
  std::fill(table_.begin(), table_.end(), Entry{});
  size_ = 0;
  lone_ = 0;
}

void SolverCache::insert(std::size_t slot, const Entry& e) {
  if (4 * (size_ + lone_ + 1) > 3 * table_.size()) {
    util::hotpath::markInnermostBoundary();
    grow();
    slot = probe(e.hash, e.key);
  }
  table_[slot] = e;
}

ShareDerivation SolverCache::derive(const NodeShare& share, double ways) {
  const Key key = keyOf(share, ways);
  const std::uint32_t h = hashOf(key);
  std::size_t slot = 0;
  if (!table_.empty()) {
    slot = probe(h, key);
    if (table_[slot].key.prog != nullptr) return table_[slot].d;
  }
  // Memo warm-up: a never-seen share may grow the table. Declare the
  // enclosing hot-path activation a boundary — solves of known shares, the
  // steady state the allocation contract gates, stay heap-silent.
  util::hotpath::markInnermostBoundary();
  derived_fresh_ = true;
  const ShareDerivation d = solver_->derive(share, ways);
  if (size_ >= capacity_) {
    evictions_ += size_;
    if (m_evictions_) m_evictions_->inc(static_cast<double>(size_));
    wipe();
    wiped_ = true;
    slot = probe(h, key);
  }
  // The lookup's probe ended at the slot the entry goes in, unless the
  // table was wiped since.
  insert(slot, {key, d, ways, h});
  ++size_;
  return d;
}

std::optional<LoneFixedPoint> SolverCache::findLone(const NodeShare& share) {
  if (table_.empty()) return std::nullopt;
  const Key key = keyOf(share, share.ways);
  const Entry& e = table_[probe(hashOf(key), key)];
  if (e.key.prog == nullptr) return std::nullopt;
  return LoneFixedPoint{e.at, e.d};
}

void SolverCache::storeLone(const NodeShare& share, const LoneFixedPoint& fp) {
  if (wiped_) return;
  const Key key = keyOf(share, share.ways);
  const std::uint32_t h = hashOf(key);
  insert(probe(h, key), {key, fp.d, fp.ways, h});
  ++lone_;
}

std::span<const ShareOutcome> SolverCache::solve(
    std::span<const NodeShare> shares) {
  // A set wider than any before grows the reused buffers: warm-up too.
  if (shares.size() > out_.capacity()) util::hotpath::markInnermostBoundary();
  derived_fresh_ = false;
  wiped_ = false;
  solver_->solveInto(shares, scratch_, out_, *this);
  if (derived_fresh_) {
    ++misses_;
    if (m_misses_) m_misses_->inc();
  } else {
    ++hits_;
    if (m_hits_) m_hits_->inc();
  }
  return out_;
}

void SolverCache::clear() {
  wipe();
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
}

std::vector<std::string> SolverCache::auditInvariants() const {
  std::vector<std::string> out;
  const std::size_t mask = table_.size() - 1;
  std::size_t live = 0;
  std::size_t lone = 0;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const Entry& e = table_[i];
    if (e.key.prog == nullptr) continue;
    const bool is_lone = isLone(e.key);
    ++(is_lone ? lone : live);
    char name[160];
    std::snprintf(name, sizeof name, "%s of %s (%d procs) at %.17g ways",
                  is_lone ? "lone fixed point" : "derivation",
                  e.key.prog->name.c_str(), e.key.procs, e.at);
    if (e.hash != hashOf(e.key)) {
      out.push_back(std::string(name) + ": stored hash does not match its key");
    }
    for (std::size_t j = e.hash & mask; j != i; j = (j + 1) & mask) {
      if (table_[j].key.prog == nullptr) {
        out.push_back(std::string(name) + ": unreachable from its home slot");
        break;
      }
    }
    const NodeShare share = shareOf(e.key);
    if (is_lone && std::bit_cast<std::uint64_t>(
                       solver_->solve(std::span<const NodeShare>(&share, 1))[0].eff_ways) !=
                       std::bit_cast<std::uint64_t>(e.at)) {
      out.push_back(std::string(name) + ": a fresh solve converges elsewhere");
    }
    if (!sameBits(e.d, solver_->derive(share, e.at))) {
      out.push_back(std::string(name) + ": stored values differ from a fresh derivation");
    }
  }
  if (live != size_) {
    out.push_back("memo holds " + std::to_string(live) +
                  " derivations but size() is " + std::to_string(size_));
  }
  if (lone != lone_) {
    out.push_back("memo holds " + std::to_string(lone) +
                  " lone fixed points but counts " + std::to_string(lone_));
  }
  std::sort(out.begin(), out.end());
  return out;
}

void SolverCache::debugCorruptEntry() {
  for (Entry& e : table_) {
    if (e.key.prog != nullptr) {
      e.d.miss = std::bit_cast<double>(std::bit_cast<std::uint64_t>(e.d.miss) ^ 1);
      return;
    }
  }
}

void SolverCache::attachMetrics(obs::Registry& reg) {
  m_hits_ = &reg.counter("solver.cache.hits");
  m_misses_ = &reg.counter("solver.cache.misses");
  m_evictions_ = &reg.counter("solver.cache.evictions");
}

}  // namespace sns::perfmodel
