#include "sns/sched/corun_groups.hpp"

#include <algorithm>

#include "sns/util/error.hpp"

namespace sns::sched {
namespace {

/// FNV-1a over the ordered ids, finished with a splitmix-style mixer.
std::uint64_t hashResidents(const std::vector<JobId>& ids) {
  std::uint64_t h = 1469598103934665603ull;
  for (JobId id : ids) {
    h ^= static_cast<std::uint64_t>(id);
    h *= 1099511628211ull;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

}  // namespace

void CorunGroups::reset(int nodes, std::size_t n_jobs) {
  SNS_REQUIRE(nodes >= 1, "co-run group table needs at least one node");
  node_group_.assign(static_cast<std::size_t>(nodes), kIdle);
  groups_.clear();
  groups_.emplace_back();
  groups_[kIdle].members = static_cast<std::uint32_t>(nodes);
  groups_[kIdle].live = true;
  free_.clear();
  index_.clear();
  hist_.assign(n_jobs, {});
  hist_pool_.clear();
  moves_.clear();
  epoch_ = 0;
  serial_ = 0;
  job_ = -1;
}

void CorunGroups::event(JobId job, std::span<const int> nodes, bool joining) {
  SNS_REQUIRE(job >= 0 && static_cast<std::size_t>(job) < hist_.size(),
              "job id outside the co-run group table");
  job_ = job;
  joining_ = joining;
  ++epoch_;
  moves_.clear();
  auto& h = hist_[static_cast<std::size_t>(job)];
  if (joining) {
    SNS_REQUIRE(h.empty(), "job already holds co-run groups");
    if (!hist_pool_.empty()) {
      h.swap(hist_pool_.back());
      hist_pool_.pop_back();
    }
  }
  // Consecutive placement nodes mostly leave the same group, so the last
  // transition is cached in locals; route() memoizes the rest. A moved
  // node never names a source group again (its target holds the job on a
  // join and lacks it on a leave), so comparing old ids is sound.
  GroupId from = kIdle;
  GroupId to = kIdle;
  std::uint32_t run = 0;
  for (int nd : nodes) {
    GroupId& slot = node_group_[static_cast<std::size_t>(nd)];
    if (run == 0 || slot != from) {
      if (run > 0) groups_[from].moved += run;
      from = slot;
      to = route(from);
      run = 0;
    }
    ++run;
    slot = to;
  }
  if (run > 0) groups_[from].moved += run;
  settle();
}

CorunGroups::GroupId CorunGroups::route(GroupId from) {
  if (groups_[from].move_epoch == epoch_) return groups_[from].move_dst;
  key_.assign(groups_[from].residents.begin(), groups_[from].residents.end());
  const auto at = std::find(key_.begin(), key_.end(), job_);
  if (joining_) {
    SNS_REQUIRE(at == key_.end(), "job already resident on node");
    key_.push_back(job_);
  } else {
    SNS_REQUIRE(at != key_.end(), "job not resident on node");
    key_.erase(at);
  }
  const GroupId to = intern(key_);  // may grow groups_
  Group& g = groups_[from];
  g.move_epoch = epoch_;
  g.move_dst = to;
  g.moved = 0;
  moves_.push_back(from);
  return to;
}

CorunGroups::GroupId CorunGroups::intern(const std::vector<JobId>& residents) {
  if (residents.empty()) return kIdle;
  const std::uint64_t h = hashResidents(residents);
  // Probe only: at most one group carries a given list, so the order the
  // equal-hash candidates come back in cannot matter.
  const auto [lo, hi] = index_.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (groups_[it->second].residents == residents) return it->second;
  }
  GroupId g;
  if (!free_.empty()) {
    g = free_.back();
    free_.pop_back();
  } else {
    g = static_cast<GroupId>(groups_.size());
    groups_.emplace_back();
  }
  Group& grp = groups_[g];
  const std::size_t n = residents.size();
  grp.residents.assign(residents.begin(), residents.end());
  grp.in.assign(n, perfmodel::NodeShare{});
  grp.out.assign(n, perfmodel::ShareOutcome{});
  grp.hist_pos.assign(n, 0u);
  grp.members = 0;
  grp.stamp = 0;
  grp.live = true;
  grp.serial = ++serial_;
  grp.hash = h;
  grp.born_epoch = epoch_;
  grp.move_epoch = 0;
  grp.moved = 0;
  index_.emplace(h, g);
  return g;
}

void CorunGroups::release(GroupId g) {
  Group& grp = groups_[g];
  const auto [lo, hi] = index_.equal_range(grp.hash);
  for (auto it = lo; it != hi; ++it) {
    if (it->second == g) {
      index_.erase(it);
      break;
    }
  }
  grp.residents.clear();
  grp.in.clear();
  grp.out.clear();
  grp.hist_pos.clear();
  grp.live = false;
  free_.push_back(g);
}

void CorunGroups::shrink(std::vector<HistEntry>& h, std::uint32_t pos,
                         std::uint32_t n) {
  HistEntry& e = h[pos];
  SNS_REQUIRE(e.count >= n, "co-run histogram underflow");
  e.count -= n;
  e.first = kUnknown;
  if (e.count > 0) return;
  const HistEntry last = h.back();
  h.pop_back();
  if (pos < h.size()) {
    h[pos] = last;
    groups_[last.group].hist_pos[last.index] = pos;
  }
}

void CorunGroups::settle() {
  for (GroupId from : moves_) {
    Group& src = groups_[from];
    const GroupId to = src.move_dst;
    Group& dst = groups_[to];
    const std::uint32_t n = src.moved;
    // A group born in this event has no histogram entries yet, and exactly
    // one source maps to it. A join appends the job, which keeps distinct
    // lists distinct. A leave could merge two sources only if they differed
    // just in the leaving job's position; but every resident list follows
    // the global join order, because a job joins all of its nodes in one
    // event. An older target is already in every resident's histogram.
    const bool fresh = dst.born_epoch == epoch_;
    SNS_REQUIRE(!fresh || dst.members == 0,
                "two co-run groups moved into one new group in one event");
    src.moved = 0;
    src.members -= n;
    dst.members += n;
    std::uint32_t at = 0;  // resident's index in dst
    for (std::size_t i = 0; i < src.residents.size(); ++i) {
      const JobId k = src.residents[i];
      if (k == job_) continue;  // the leaving job: histogram dropped below
      auto& h = hist_[static_cast<std::size_t>(k)];
      shrink(h, src.hist_pos[i], n);
      if (to != kIdle) {
        if (fresh) {
          dst.hist_pos[at] = static_cast<std::uint32_t>(h.size());
          h.push_back({to, n, at});
        } else {
          HistEntry& e = h[dst.hist_pos[at]];
          e.count += n;
          e.first = kUnknown;
        }
      }
      ++at;
    }
    if (joining_) {
      auto& h = hist_[static_cast<std::size_t>(job_)];
      dst.hist_pos[at] = static_cast<std::uint32_t>(h.size());
      h.push_back({to, n, at});
    }
    if (from != kIdle && src.members == 0) release(from);
  }
  if (!joining_) {
    // Every group holding the job was a source and emptied completely, so
    // its entries are all stale: recycle the storage.
    auto& h = hist_[static_cast<std::size_t>(job_)];
    h.clear();
    hist_pool_.emplace_back();
    hist_pool_.back().swap(h);
  }
  moves_.clear();
}

std::size_t CorunGroups::firstOf(JobId job, std::size_t entry,
                                 std::span<const int> placement) {
  HistEntry& e = hist_[static_cast<std::size_t>(job)][entry];
  if (e.first != kUnknown) return e.first;
  std::size_t i = 0;
  while (i < placement.size() &&
         node_group_[static_cast<std::size_t>(placement[i])] != e.group) {
    ++i;
  }
  SNS_REQUIRE(i < placement.size(), "histogram group absent from the placement");
  e.first = static_cast<std::uint32_t>(i);
  return i;
}

void CorunGroups::debugCorruptMembers(GroupId g, int delta) {
  groups_[g].members =
      static_cast<std::uint32_t>(static_cast<std::int64_t>(groups_[g].members) + delta);
}

void CorunGroups::debugCorruptHistogram(JobId job, int delta) {
  auto& h = hist_[static_cast<std::size_t>(job)];
  SNS_REQUIRE(!h.empty(), "job holds no co-run groups");
  h.front().count =
      static_cast<std::uint32_t>(static_cast<std::int64_t>(h.front().count) + delta);
}

}  // namespace sns::sched
