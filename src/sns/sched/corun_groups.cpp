#include "sns/sched/corun_groups.hpp"

#include <algorithm>

#include "sns/util/error.hpp"

namespace sns::sched {

void CorunGroups::reset(std::size_t n_jobs) {
  slots_.clear();
  hist_.assign(n_jobs, {});
  hist_pool_.clear();
  nic_.assign(n_jobs, 0.0);
  nic_over_nodes_ = 0;
}

void CorunGroups::apply(JobId job, double nic_demand, const actuator::ResourceLedger& ledger,
                        std::span<const Transition> moves, bool joining) {
  SNS_REQUIRE(job >= 0 && static_cast<std::size_t>(job) < hist_.size(),
              "job id outside the co-run group table");
  auto& h = hist_[static_cast<std::size_t>(job)];
  if (joining) {
    SNS_REQUIRE(h.empty(), "job already holds co-run groups");
    nic_[static_cast<std::size_t>(job)] = nic_demand;
    if (!hist_pool_.empty()) {
      h.swap(hist_pool_.back());
      hist_pool_.pop_back();
    }
  }
  if (slots_.size() < ledger.groupSlots()) slots_.resize(ledger.groupSlots());
  const double nic_cap = ledger.machine().net_bw_gbps;
  for (const Transition& t : moves) {
    // The source's resident list is still readable: the ledger pools an
    // emptied group's id but keeps its list until its next event.
    const auto& src_res = ledger.group(t.src).residents;
    const auto& dst_grp = ledger.group(t.dst);
    Slot& src = slots_[t.src];
    Slot& dst = slots_[t.dst];
    // A new incarnation behind the id has no histogram entries yet. A
    // second source merging into it in the same event finds the first
    // source's entries and adds to them.
    const bool fresh = t.dst != kIdle && dst.serial != dst_grp.serial;
    if (fresh) {
      const std::size_t n = dst_grp.residents.size();
      dst.in.assign(n, perfmodel::NodeShare{});
      dst.out.assign(n, perfmodel::ShareOutcome{});
      dst.hist_pos.assign(n, 0u);
      dst.stamp = 0;
      dst.serial = dst_grp.serial;
      dst.nic = 0.0;
      for (const auto& [k, alloc] : dst_grp.residents) {
        dst.nic += nic_[static_cast<std::size_t>(k)];
      }
    }
    nic_over_nodes_ += static_cast<std::int64_t>(t.count) *
                       ((dst.nic > nic_cap) - (src.nic > nic_cap));
    std::uint32_t at = 0;  // resident's index in dst
    for (std::size_t i = 0; i < src_res.size(); ++i) {
      const JobId k = src_res[i].first;
      if (k == job) continue;  // the leaving job: histogram dropped below
      auto& hk = hist_[static_cast<std::size_t>(k)];
      shrink(hk, src.hist_pos[i], t.count);
      if (t.dst != kIdle) {
        if (fresh) {
          dst.hist_pos[at] = static_cast<std::uint32_t>(hk.size());
          hk.push_back({t.dst, t.count, at});
        } else {
          HistEntry& e = hk[dst.hist_pos[at]];
          e.count += t.count;
          e.first = kUnknown;
        }
      }
      ++at;
    }
    if (joining) {
      dst.hist_pos[at] = static_cast<std::uint32_t>(h.size());
      h.push_back({t.dst, t.count, at});
    }
  }
  if (!joining) {
    // Every group holding the job was a source and emptied completely, so
    // its entries are all stale: recycle the storage.
    h.clear();
    hist_pool_.emplace_back();
    hist_pool_.back().swap(h);
  }
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
    slots_[last.group].hist_pos[last.index] = pos;
  }
}

std::size_t CorunGroups::firstOf(JobId job, std::size_t entry,
                                 std::span<const int> placement,
                                 const actuator::ResourceLedger& ledger) {
  HistEntry& e = hist_[static_cast<std::size_t>(job)][entry];
  if (e.first != kUnknown) return e.first;
  std::size_t i = 0;
  while (i < placement.size() && ledger.groupOf(placement[i]) != e.group) ++i;
  SNS_REQUIRE(i < placement.size(), "histogram group absent from the placement");
  e.first = static_cast<std::uint32_t>(i);
  return i;
}

CorunGroups::NicPeak CorunGroups::nicPeak(JobId job, std::span<const int> placement,
                                          const actuator::ResourceLedger& ledger) {
  const auto& h = hist_[static_cast<std::size_t>(job)];
  NicPeak peak;
  for (const HistEntry& e : h) peak.demand = std::max(peak.demand, slots_[e.group].nic);
  peak.first = placement.size();
  for (std::size_t k = 0; k < h.size(); ++k) {
    if (slots_[h[k].group].nic != peak.demand) continue;
    peak.first = std::min(peak.first, firstOf(job, k, placement, ledger));
  }
  return peak;
}

void CorunGroups::debugCorruptHistogram(JobId job, int delta) {
  auto& h = hist_[static_cast<std::size_t>(job)];
  SNS_REQUIRE(!h.empty(), "job holds no co-run groups");
  h.front().count =
      static_cast<std::uint32_t>(static_cast<std::int64_t>(h.front().count) + delta);
}

}  // namespace sns::sched
