// The co-run group table is the simulator's resident bookkeeping: the
// ledger names, for every node, the group of its ordered resident list,
// and CorunGroups keeps every group's solve slot and every running job's
// histogram of the groups its placement touches, fed from the ledger's
// transitions. Rate derivation reads only the histograms, so a group that
// diverges from the per-node truth, or a histogram count that drifts,
// silently changes a job's co-run rate. The randomized test replays
// join/leave events against a naive per-node model and checks the full
// table after every event, NIC demand sums and the NIC peak included.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/sched/corun_groups.hpp"
#include "sns/util/error.hpp"
#include "sns/util/rng.hpp"

namespace sns::sched {
namespace {

using GroupId = CorunGroups::GroupId;

/// The ledger and the table over it, as the simulator drives them: every
/// job holds one core per node.
struct Table {
  Table(int nodes, std::size_t jobs) : ledger(nodes, mach) { t.reset(jobs); }

  GroupId groupOf(int nd) const { return ledger.groupOf(nd); }
  const actuator::ResourceLedger::Group& group(GroupId g) const {
    return ledger.group(g);
  }
  std::vector<JobId> residents(GroupId g) const {
    std::vector<JobId> ids;
    for (const auto& r : ledger.group(g).residents) ids.push_back(r.first);
    return ids;
  }
  const std::vector<CorunGroups::HistEntry>& histogram(JobId job) const {
    return t.histogram(job);
  }

  hw::MachineConfig mach = hw::MachineConfig::xeonE5_2680v4();
  actuator::ResourceLedger ledger;
  CorunGroups t;
};

void join(Table& t, JobId job, const std::vector<int>& nodes, double nic = 0.0) {
  t.t.join(job, nic, t.ledger, t.ledger.allocate(nodes, job, {1, 0, 0.0, false}));
}

void leave(Table& t, JobId job, const std::vector<int>& nodes) {
  t.t.leave(job, t.ledger, t.ledger.release(nodes, job));
}

std::uint32_t countIn(const Table& t, JobId job, GroupId g) {
  for (const auto& e : t.histogram(job)) {
    if (e.group == g) return e.count;
  }
  return 0;
}

TEST(CorunGroups, StartsAllIdle) {
  Table t(4, 2);
  for (int nd = 0; nd < 4; ++nd) EXPECT_EQ(t.groupOf(nd), CorunGroups::kIdle);
  EXPECT_EQ(t.group(CorunGroups::kIdle).members, 4u);
  EXPECT_TRUE(t.residents(CorunGroups::kIdle).empty());
  EXPECT_TRUE(t.histogram(0).empty());
}

TEST(CorunGroups, SpreadJobSharesOneGroup) {
  Table t(8, 2);
  join(t, 0, {5, 1, 2});
  const GroupId g = t.groupOf(5);
  EXPECT_NE(g, CorunGroups::kIdle);
  EXPECT_EQ(t.groupOf(1), g);
  EXPECT_EQ(t.groupOf(2), g);
  EXPECT_EQ(t.groupOf(0), CorunGroups::kIdle);
  EXPECT_EQ(t.residents(g), std::vector<JobId>{0});
  EXPECT_EQ(t.group(g).members, 3u);
  EXPECT_EQ(t.group(CorunGroups::kIdle).members, 5u);
  ASSERT_EQ(t.histogram(0).size(), 1u);
  EXPECT_EQ(t.histogram(0)[0].group, g);
  EXPECT_EQ(t.histogram(0)[0].count, 3u);
  EXPECT_EQ(t.histogram(0)[0].index, 0u);
  // Outcome storage is sized with the resident list.
  EXPECT_EQ(t.t.slot(g).out.size(), 1u);
}

TEST(CorunGroups, PartialOverlapSplitsAndLeaveMergesBack) {
  Table t(4, 2);
  join(t, 0, {0, 1, 2, 3});
  const GroupId solo = t.groupOf(0);
  join(t, 1, {1, 2});
  const GroupId pair = t.groupOf(1);
  EXPECT_NE(pair, solo);
  EXPECT_EQ(t.groupOf(2), pair);
  EXPECT_EQ(t.groupOf(3), solo);
  EXPECT_EQ(t.residents(pair), (std::vector<JobId>{0, 1}));
  EXPECT_EQ(t.group(solo).members, 2u);
  EXPECT_EQ(t.group(pair).members, 2u);
  EXPECT_EQ(countIn(t, 0, solo), 2u);
  EXPECT_EQ(countIn(t, 0, pair), 2u);
  EXPECT_EQ(countIn(t, 1, pair), 2u);
  ASSERT_EQ(t.histogram(1).size(), 1u);
  EXPECT_EQ(t.histogram(1)[0].index, 1u);

  // Job 1 leaves: its nodes rejoin job 0's existing group, and the pair
  // group goes back to the pool.
  leave(t, 1, {1, 2});
  for (int nd = 0; nd < 4; ++nd) EXPECT_EQ(t.groupOf(nd), solo);
  EXPECT_EQ(t.group(solo).members, 4u);
  ASSERT_EQ(t.histogram(0).size(), 1u);
  EXPECT_EQ(t.histogram(0)[0].count, 4u);
  EXPECT_TRUE(t.histogram(1).empty());
  EXPECT_FALSE(t.group(pair).live);
  EXPECT_EQ(t.group(pair).members, 0u);

  // The pooled record is reused for the next new list.
  join(t, 1, {3});
  EXPECT_EQ(t.groupOf(3), pair);
  EXPECT_EQ(t.residents(pair), (std::vector<JobId>{0, 1}));
}

TEST(CorunGroups, LeavingKeepsTheOthersOrder) {
  Table t(2, 3);
  join(t, 0, {0, 1});
  join(t, 1, {0, 1});
  join(t, 2, {0, 1});
  EXPECT_EQ(t.residents(t.groupOf(0)), (std::vector<JobId>{0, 1, 2}));
  leave(t, 1, {0, 1});
  const GroupId g = t.groupOf(0);
  EXPECT_EQ(t.groupOf(1), g);
  EXPECT_EQ(t.residents(g), (std::vector<JobId>{0, 2}));
  ASSERT_EQ(t.histogram(2).size(), 1u);
  EXPECT_EQ(t.histogram(2)[0].index, 1u);
  EXPECT_EQ(t.histogram(2)[0].count, 2u);
  leave(t, 0, {0, 1});
  leave(t, 2, {0, 1});
  EXPECT_EQ(t.groupOf(0), CorunGroups::kIdle);
  EXPECT_EQ(t.group(CorunGroups::kIdle).members, 2u);
}

TEST(CorunGroups, EqualListsAreOneGroupAcrossEvents) {
  // Nodes that reach the same ordered list by different event sequences
  // still name one group.
  Table t(3, 3);
  join(t, 0, {0, 1, 2});
  join(t, 1, {0});
  join(t, 2, {1});
  leave(t, 2, {1});
  EXPECT_NE(t.groupOf(0), t.groupOf(1));
  EXPECT_EQ(t.groupOf(1), t.groupOf(2));
  leave(t, 1, {0});
  EXPECT_EQ(t.groupOf(0), t.groupOf(1));
  EXPECT_EQ(t.group(t.groupOf(0)).members, 3u);
}

TEST(CorunGroups, NicDemandIsSummedOncePerGroupIncarnation) {
  // Demands whose running +=/-= sums leave residues: (0.1 + 0.2) - 0.2 is
  // not 0.1, and (0.1 + 0.2) - 0.1 - 0.2 is not 0.
  ASSERT_NE((0.1 + 0.2) - 0.2, 0.1);
  ASSERT_NE((0.1 + 0.2) - 0.1 - 0.2, 0.0);
  Table t(4, 4);
  const double cap = t.mach.net_bw_gbps;
  const double hog = cap - 0.05;
  const auto nic = [&](int nd) { return t.t.slot(t.groupOf(nd)).nic; };
  join(t, 0, {0, 1, 2, 3}, 0.1);
  join(t, 1, {0, 1}, 0.2);
  EXPECT_EQ(nic(0), 0.1 + 0.2);
  // Job 1 departs from nodes that stay busy: their demand is job 0's
  // alone, exactly.
  leave(t, 1, {0, 1});
  for (int nd = 0; nd < 4; ++nd) EXPECT_EQ(nic(nd), 0.1) << nd;
  EXPECT_EQ(t.t.nicOverNodes(), 0);

  // Those nodes then oversubscribe: job 2 joins three of them, and job 3
  // brings node 0 to the same demand.
  const std::vector<int> p2 = {3, 1, 2};
  join(t, 2, p2, hog);
  join(t, 3, {0}, hog);
  for (int nd = 0; nd < 4; ++nd) EXPECT_EQ(nic(nd), 0.1 + hog) << nd;
  EXPECT_EQ(t.t.nicOverNodes(), 4);
  const auto peak2 = t.t.nicPeak(2, p2, t.ledger);
  EXPECT_EQ(peak2.demand, 0.1 + hog);
  EXPECT_EQ(peak2.first, 0u);
  EXPECT_GT(peak2.demand / cap, 1.0);  // the comm stretch
  // Job 0's nodes sit in two groups of equal demand, {0, 2} on nodes 1-3
  // (its first histogram entry) and {0, 3} on node 0: the peak is the
  // first node in placement order.
  const std::vector<int> p0 = {0, 1, 2, 3};
  ASSERT_EQ(t.histogram(0).size(), 2u);
  EXPECT_EQ(t.histogram(0)[0].group, t.groupOf(1));
  const auto peak0 = t.t.nicPeak(0, p0, t.ledger);
  EXPECT_EQ(peak0.demand, 0.1 + hog);
  EXPECT_EQ(peak0.first, 0u);

  leave(t, 3, {0});
  EXPECT_EQ(t.t.nicOverNodes(), 3);
  EXPECT_EQ(t.t.nicPeak(0, p0, t.ledger).first, 1u);
  leave(t, 2, p2);
  EXPECT_EQ(t.t.nicOverNodes(), 0);
  for (int nd = 0; nd < 4; ++nd) EXPECT_EQ(nic(nd), 0.1) << nd;
  // A node freed by every job has no demand at all.
  leave(t, 0, p0);
  for (int nd = 0; nd < 4; ++nd) {
    EXPECT_EQ(t.groupOf(nd), CorunGroups::kIdle);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(nic(nd)), 0u) << nd;
  }
}

TEST(CorunGroups, MisuseIsRejected) {
  Table t(3, 2);
  join(t, 0, {0, 1});
  EXPECT_THROW(join(t, 0, {2}), util::PreconditionError);  // already placed
  EXPECT_THROW(join(t, 1, {2, 2}), util::PreconditionError);  // node twice
  Table u(3, 2);
  join(u, 0, {0, 1});
  EXPECT_THROW(leave(u, 0, {0, 2}), util::PreconditionError);  // not resident
  EXPECT_THROW(join(u, 7, {2}), util::PreconditionError);  // id out of range
}

TEST(CorunGroups, RandomEventsMatchPerNodeModel) {
  constexpr int kNodes = 12;
  constexpr int kJobs = 60;
  Table t(kNodes, kJobs);
  // Per-job NIC demand, by id (no draw, so the event stream is unchanged):
  // up to four residents can push a node past the 6.8 GB/s link.
  const double demands[] = {0.0, 0.1, 0.2, 0.7, 2.9, 3.5};
  const auto demand = [&](JobId id) { return demands[id % 6]; };
  const double cap = t.mach.net_bw_gbps;
  std::int64_t most_over = 0;  // the stream must oversubscribe some nodes
  std::vector<std::vector<JobId>> model(kNodes);  // per-node resident lists
  std::vector<std::vector<int>> placed(kJobs);
  std::vector<JobId> running;
  util::Rng rng(42);
  JobId next = 0;
  for (int step = 0; step < 400 && (next < kJobs || !running.empty()); ++step) {
    const bool start = next < kJobs && (running.empty() || rng.uniform() < 0.55);
    if (start) {
      std::vector<int> nodes;
      for (int nd = 0; nd < kNodes; ++nd) {
        if (model[static_cast<std::size_t>(nd)].size() < 4 && rng.uniform() < 0.35)
          nodes.push_back(nd);
      }
      if (nodes.empty()) continue;
      std::shuffle(nodes.begin(), nodes.end(), rng);
      const JobId id = next++;
      join(t, id, nodes, demand(id));
      for (int nd : nodes) model[static_cast<std::size_t>(nd)].push_back(id);
      placed[static_cast<std::size_t>(id)] = nodes;
      running.push_back(id);
    } else {
      const auto pick = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(running.size()) - 1));
      const JobId id = running[pick];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(pick));
      leave(t, id, placed[static_cast<std::size_t>(id)]);
      for (int nd : placed[static_cast<std::size_t>(id)]) {
        auto& res = model[static_cast<std::size_t>(nd)];
        res.erase(std::find(res.begin(), res.end(), id));
      }
    }

    // Every node's group is its model list; equal lists share a group.
    std::map<std::vector<JobId>, GroupId> seen;
    std::map<GroupId, std::uint32_t> members;
    for (int nd = 0; nd < kNodes; ++nd) {
      const GroupId g = t.groupOf(nd);
      const auto& want = model[static_cast<std::size_t>(nd)];
      ASSERT_EQ(t.residents(g), want) << "node " << nd << " step " << step;
      ASSERT_EQ(g == CorunGroups::kIdle, want.empty());
      const auto [it, fresh] = seen.emplace(want, g);
      ASSERT_EQ(it->second, g) << "two groups for one list";
      ++members[g];
    }
    for (const auto& [g, n] : members) ASSERT_EQ(t.group(g).members, n);
    // NIC demand: each node's group carries its residents' demands summed
    // in arrival order, whatever the node's join/leave history.
    std::vector<double> node_nic(kNodes, 0.0);
    std::int64_t over = 0;
    for (int nd = 0; nd < kNodes; ++nd) {
      double& sum = node_nic[static_cast<std::size_t>(nd)];
      for (JobId id : model[static_cast<std::size_t>(nd)]) sum += demand(id);
      const auto& slot = t.t.slot(t.groupOf(nd));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(slot.nic), std::bit_cast<std::uint64_t>(sum))
          << "node " << nd << " step " << step;
      if (sum > cap) ++over;
    }
    ASSERT_EQ(t.t.nicOverNodes(), over) << "step " << step;
    most_over = std::max(most_over, over);
    // Histograms: one entry per distinct group, count = nodes of the
    // placement in it, index = position in the list.
    for (JobId id : running) {
      std::map<GroupId, std::uint32_t> want;
      for (int nd : placed[static_cast<std::size_t>(id)]) ++want[t.groupOf(nd)];
      const auto& h = t.histogram(id);
      ASSERT_EQ(h.size(), want.size());
      const auto& nodes = placed[static_cast<std::size_t>(id)];
      for (std::size_t pos = 0; pos < h.size(); ++pos) {
        const auto& e = h[pos];
        ASSERT_EQ(e.count, want[e.group]);
        ASSERT_EQ(t.residents(e.group)[e.index], id);
        ASSERT_EQ(t.t.slot(e.group).hist_pos[e.index], pos);
        // firstOf (cached or scanned) is the first placement node in the
        // group; querying every step also exercises cache invalidation.
        std::size_t first = 0;
        while (t.groupOf(nodes[first]) != e.group) ++first;
        ASSERT_EQ(t.t.firstOf(id, pos, nodes, t.ledger), first) << "job " << id;
      }
      // The NIC peak is the per-node scan's: the max demand, first wins.
      std::size_t first = 0;
      for (std::size_t i = 1; i < nodes.size(); ++i) {
        if (node_nic[static_cast<std::size_t>(nodes[i])] >
            node_nic[static_cast<std::size_t>(nodes[first])]) {
          first = i;
        }
      }
      const auto peak = t.t.nicPeak(id, nodes, t.ledger);
      ASSERT_EQ(peak.demand, node_nic[static_cast<std::size_t>(nodes[first])]);
      ASSERT_EQ(peak.first, first) << "job " << id << " step " << step;
    }
  }
  EXPECT_EQ(next, kJobs);
  EXPECT_GT(most_over, 0);
}

}  // namespace
}  // namespace sns::sched
