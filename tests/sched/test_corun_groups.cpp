// CorunGroups is the simulator's resident bookkeeping: every node names the
// group of its ordered resident list, and every running job keeps a
// histogram of the groups its placement touches. Rate derivation reads
// only the histograms, so a group that diverges from the per-node truth,
// or a histogram count that drifts, silently changes a job's co-run rate.
// The randomized test replays join/leave events against a naive per-node
// model and checks the full table after every event.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "sns/sched/corun_groups.hpp"
#include "sns/util/error.hpp"
#include "sns/util/rng.hpp"

namespace sns::sched {
namespace {

using GroupId = CorunGroups::GroupId;

void join(CorunGroups& t, JobId job, const std::vector<int>& nodes) {
  t.join(job, nodes);
}

void leave(CorunGroups& t, JobId job, const std::vector<int>& nodes) {
  t.leave(job, nodes);
}

std::uint32_t countIn(const CorunGroups& t, JobId job, GroupId g) {
  for (const auto& e : t.histogram(job)) {
    if (e.group == g) return e.count;
  }
  return 0;
}

TEST(CorunGroups, StartsAllIdle) {
  CorunGroups t;
  t.reset(4, 2);
  for (int nd = 0; nd < 4; ++nd) EXPECT_EQ(t.groupOf(nd), CorunGroups::kIdle);
  EXPECT_EQ(t.group(CorunGroups::kIdle).members, 4u);
  EXPECT_TRUE(t.group(CorunGroups::kIdle).residents.empty());
  EXPECT_TRUE(t.histogram(0).empty());
}

TEST(CorunGroups, SpreadJobSharesOneGroup) {
  CorunGroups t;
  t.reset(8, 2);
  join(t, 0, {5, 1, 2});
  const GroupId g = t.groupOf(5);
  EXPECT_NE(g, CorunGroups::kIdle);
  EXPECT_EQ(t.groupOf(1), g);
  EXPECT_EQ(t.groupOf(2), g);
  EXPECT_EQ(t.groupOf(0), CorunGroups::kIdle);
  EXPECT_EQ(t.group(g).residents, std::vector<JobId>{0});
  EXPECT_EQ(t.group(g).members, 3u);
  EXPECT_EQ(t.group(CorunGroups::kIdle).members, 5u);
  ASSERT_EQ(t.histogram(0).size(), 1u);
  EXPECT_EQ(t.histogram(0)[0].group, g);
  EXPECT_EQ(t.histogram(0)[0].count, 3u);
  EXPECT_EQ(t.histogram(0)[0].index, 0u);
  // Outcome storage is sized with the resident list.
  EXPECT_EQ(t.group(g).out.size(), 1u);
}

TEST(CorunGroups, PartialOverlapSplitsAndLeaveMergesBack) {
  CorunGroups t;
  t.reset(4, 2);
  join(t, 0, {0, 1, 2, 3});
  const GroupId solo = t.groupOf(0);
  join(t, 1, {1, 2});
  const GroupId pair = t.groupOf(1);
  EXPECT_NE(pair, solo);
  EXPECT_EQ(t.groupOf(2), pair);
  EXPECT_EQ(t.groupOf(3), solo);
  EXPECT_EQ(t.group(pair).residents, (std::vector<JobId>{0, 1}));
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
  EXPECT_EQ(t.group(pair).residents, (std::vector<JobId>{0, 1}));
}

TEST(CorunGroups, LeavingKeepsTheOthersOrder) {
  CorunGroups t;
  t.reset(2, 3);
  join(t, 0, {0, 1});
  join(t, 1, {0, 1});
  join(t, 2, {0, 1});
  EXPECT_EQ(t.group(t.groupOf(0)).residents, (std::vector<JobId>{0, 1, 2}));
  leave(t, 1, {0, 1});
  const GroupId g = t.groupOf(0);
  EXPECT_EQ(t.groupOf(1), g);
  EXPECT_EQ(t.group(g).residents, (std::vector<JobId>{0, 2}));
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
  CorunGroups t;
  t.reset(3, 3);
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

TEST(CorunGroups, MisuseIsRejected) {
  CorunGroups t;
  t.reset(3, 2);
  join(t, 0, {0, 1});
  EXPECT_THROW(join(t, 0, {2}), util::PreconditionError);  // already placed
  EXPECT_THROW(join(t, 1, {2, 2}), util::PreconditionError);  // node twice
  CorunGroups u;
  u.reset(3, 2);
  join(u, 0, {0, 1});
  EXPECT_THROW(leave(u, 0, {0, 2}), util::PreconditionError);  // not resident
  EXPECT_THROW(join(u, 7, {2}), util::PreconditionError);  // id out of range
}

TEST(CorunGroups, RandomEventsMatchPerNodeModel) {
  constexpr int kNodes = 12;
  constexpr int kJobs = 60;
  CorunGroups t;
  t.reset(kNodes, kJobs);
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
      join(t, id, nodes);
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
      ASSERT_EQ(t.group(g).residents, want) << "node " << nd << " step " << step;
      ASSERT_EQ(g == CorunGroups::kIdle, want.empty());
      const auto [it, fresh] = seen.emplace(want, g);
      ASSERT_EQ(it->second, g) << "two groups for one list";
      ++members[g];
    }
    for (const auto& [g, n] : members) ASSERT_EQ(t.group(g).members, n);
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
        ASSERT_EQ(t.group(e.group).residents[e.index], id);
        ASSERT_EQ(t.group(e.group).hist_pos[e.index], pos);
        // firstOf (cached or scanned) is the first placement node in the
        // group; querying every step also exercises cache invalidation.
        std::size_t first = 0;
        while (t.groupOf(nodes[first]) != e.group) ++first;
        ASSERT_EQ(t.firstOf(id, pos, nodes), first) << "job " << id;
      }
    }
  }
  EXPECT_EQ(next, kJobs);
}

}  // namespace
}  // namespace sns::sched
