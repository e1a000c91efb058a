#include "sns/perfmodel/solver_cache.hpp"

#include <algorithm>
#include <bit>

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
}  // namespace

template <typename T>
T* SolverCache::BlockArena<T>::append(std::span<const T> src) {
  // Entries never straddle blocks; a block too full (or, after a reset, too
  // small) for this entry is skipped.
  while (block_ < blocks_.size() && used_ + src.size() > blocks_[block_].size) {
    ++block_;
    used_ = 0;
  }
  if (block_ == blocks_.size()) {
    const std::size_t n = std::max(kBlockSize, src.size());
    blocks_.push_back({std::make_unique_for_overwrite<T[]>(n), n});
  }
  T* dst = blocks_[block_].data.get() + used_;
  std::copy(src.begin(), src.end(), dst);
  used_ += src.size();
  return dst;
}

std::uint32_t SolverCache::hashOf(std::span<const Key> sig) {
  std::uint64_t h = sig.size();
  for (const Key& k : sig) {
    h = mix(h, reinterpret_cast<std::uintptr_t>(k.prog));
    h = mix(h, static_cast<std::uint64_t>(k.procs));
    h = mix(h, k.ways_bits);
    h = mix(h, k.remote_bits);
    h = mix(h, k.intensity_bits);
    h = mix(h, k.cap_bits);
  }
  return finalize(h);
}

std::size_t SolverCache::probe(std::uint32_t h, std::span<const Key> sig) const {
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Entry& e = table_[i];
    if (e.key == nullptr) return i;
    if (e.hash == h && e.len == sig.size() &&
        std::equal(sig.begin(), sig.end(), e.key)) {
      return i;
    }
  }
}

void SolverCache::grow() {
  std::vector<Entry> old = std::move(table_);
  table_.assign(old.empty() ? 64 : 2 * old.size(), Entry{});
  const std::size_t mask = table_.size() - 1;
  for (const Entry& e : old) {
    if (e.key == nullptr) continue;
    std::size_t i = e.hash & mask;
    while (table_[i].key != nullptr) i = (i + 1) & mask;
    table_[i] = e;
  }
}

void SolverCache::wipe() {
  std::fill(table_.begin(), table_.end(), Entry{});
  size_ = 0;
  keys_.reset();
  outcomes_.reset();
  last_ = Entry{};
}

std::span<const ShareOutcome> SolverCache::solve(
    std::span<const NodeShare> shares) {
  scratch_.clear();
  for (const NodeShare& s : shares) {
    scratch_.push_back({s.prog, s.procs, std::bit_cast<std::uint64_t>(s.ways),
                        std::bit_cast<std::uint64_t>(s.remote_frac),
                        std::bit_cast<std::uint64_t>(s.mem_intensity),
                        std::bit_cast<std::uint64_t>(s.bw_cap_gbps)});
  }
  const std::span<const Key> sig(scratch_);
  // Same-signature fast path: every node of a K-node exclusive placement
  // issues the same single-share lookup back to back, so one key compare
  // replaces K-1 hash probes.
  if (last_.key != nullptr && last_.len == sig.size() &&
      std::equal(sig.begin(), sig.end(), last_.key)) {
    ++hits_;
    if (m_hits_) m_hits_->inc();
    return {last_.out, last_.len};
  }
  const std::uint32_t h = hashOf(sig);
  std::size_t slot = 0;
  if (!table_.empty()) {
    slot = probe(h, sig);
    const Entry& e = table_[slot];
    if (e.key != nullptr) {
      ++hits_;
      if (m_hits_) m_hits_->inc();
      last_ = e;
      return {e.out, e.len};
    }
  }
  ++misses_;
  if (m_misses_) m_misses_->inc();
  // Memo warm-up: a never-seen co-run signature enters the cache, which
  // may allocate (an arena block, a table rehash). Declare the enclosing
  // hot-path activation a boundary — replays of known signatures, the
  // steady state the allocation contract gates, take the hit-paths above
  // and stay heap-silent.
  util::hotpath::markInnermostBoundary();
  bool reprobe = false;
  if (size_ >= capacity_) {
    evictions_ += size_;
    if (m_evictions_) m_evictions_->inc(static_cast<double>(size_));
    wipe();
    reprobe = true;
  }
  if (4 * (size_ + 1) > 3 * table_.size()) {
    grow();
    reprobe = true;
  }
  // The lookup's probe ended at the slot the entry goes in, unless the
  // table was wiped or rehashed since.
  if (reprobe) slot = probe(h, sig);
  solver_->solveInto(shares, solve_scratch_, fresh_);
  Entry& e = table_[slot];
  e.key = keys_.append(sig);
  e.out = outcomes_.append(std::span<const ShareOutcome>(fresh_));
  e.hash = h;
  e.len = static_cast<std::uint32_t>(sig.size());
  ++size_;
  last_ = e;
  return {e.out, e.len};
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
  bool last_found = last_.key == nullptr;
  for (std::size_t i = 0; i < table_.size(); ++i) {
    const Entry& e = table_[i];
    if (e.key == nullptr) continue;
    ++live;
    if (e.len == 0 || e.out == nullptr) {
      out.push_back("cached entry with an empty co-run signature");
      continue;
    }
    const std::span<const Key> sig(e.key, e.len);
    if (e.hash != hashOf(sig)) {
      out.push_back("slot " + std::to_string(i) +
                    ": stored hash does not match its signature");
    }
    for (std::size_t j = e.hash & mask; j != i; j = (j + 1) & mask) {
      if (table_[j].key == nullptr) {
        out.push_back("slot " + std::to_string(i) +
                      ": unreachable from its home slot");
        break;
      }
    }
    if (e.key == last_.key) {
      last_found = e.out == last_.out && e.len == last_.len;
    }
  }
  if (live != size_) {
    out.push_back("table holds " + std::to_string(live) +
                  " entries but size() is " + std::to_string(size_));
  }
  if (!last_found) {
    out.push_back("last-signature fast path points at no live entry");
  }
  // Every stored entry was produced by a miss; evictions only ever discard
  // entries, so the live count can never exceed the misses that created
  // entries minus those wiped.
  if (size_ > misses_) {
    out.push_back("cache holds " + std::to_string(size_) +
                  " entries but only " + std::to_string(misses_) +
                  " misses were counted");
  }
  return out;
}

void SolverCache::debugCorruptEntry() {
  for (Entry& e : table_) {
    if (e.key != nullptr) {
      e.hash ^= 1;
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
