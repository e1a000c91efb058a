// Differential check of the group-level ResourceLedger against per-node
// reference ledgers (tests/support/reference_ledger.hpp): a seeded stream
// of per-node and whole-placement calls, with jobs arriving on their nodes
// in interleaved orders so that co-run groups split on arrival and merge
// on release. After every call each node's view must equal its reference
// bit for bit, and the ledger's indexes (idle-core buckets, the bucket
// population bound, selection) must answer as a regroup-from-scratch over
// the references does. A second stream at 512 nodes drives multi-node
// placements whose nodes reach one resident list through different
// join/leave histories, so one co-run group splits into several exact
// node-state classes, and checks every selection query at every step.
// A third stream at 256 nodes commits spans whose ids run in ascending
// order (so the ledger moves them a segment at a time, across 64-bit
// bitmap words) against a twin ledger fed the same nodes one call at a
// time, and the error cases check that a span failing mid-run leaves the
// failing node unchanged with every earlier segment committed. Last, the
// transitions an event returns must name, through their live destinations,
// exactly the groups its nodes are left in, as a rate refresh reads them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/audit/audit.hpp"
#include "sns/util/error.hpp"
#include "sns/util/rng.hpp"
#include "tests/support/reference_ledger.hpp"

namespace sns::actuator {
namespace {

using testsupport::ReferenceNodeLedger;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class Cluster {
 public:
  Cluster(int nodes, const hw::MachineConfig& mach)
      : mach_(mach), ledger_(nodes, mach_), ref_(nodes, ReferenceNodeLedger(mach_)) {}

  ResourceLedger& ledger() { return ledger_; }
  const ReferenceNodeLedger& ref(int nd) const { return ref_[static_cast<std::size_t>(nd)]; }
  int nodes() const { return static_cast<int>(ref_.size()); }

  /// Mirror of a ledger allocate over `nodes`: every node up to the first
  /// that does not fit, as the ledger commits them.
  void refAllocate(const std::vector<int>& nodes, JobId job, const NodeAllocation& a) {
    for (int nd : nodes) {
      auto& r = ref_[static_cast<std::size_t>(nd)];
      if (r.holds(job) || !r.fits(a)) return;
      r.allocate(job, a);
      total_bw_ += ResourceLedger::bwUnits(a.bw_gbps);
      total_cores_ += a.cores;
    }
  }
  void refRelease(const std::vector<int>& nodes, JobId job) {
    for (int nd : nodes) {
      auto& r = ref_[static_cast<std::size_t>(nd)];
      const NodeAllocation a = r.allocation(job);
      r.release(job);
      total_bw_ -= ResourceLedger::bwUnits(a.bw_gbps);
      total_cores_ -= a.cores;
    }
  }

  /// Every node view against its reference, and every index against a
  /// recount over the references.
  void compare(const std::string& where) {
    const NodeAllocation probes[] = {
        {1, 0, 0.0, false, 0.0},  {4, 2, 3.5, false, 0.0},
        {8, 4, 20.0, false, 0.5}, {28, 0, 0.0, true, 0.0},
        {3, 6, 0.0, false, 0.0},  {2, 2, 40.0, false, 1.0},
    };
    std::int64_t cores = 0;
    int idle_nodes = 0;
    for (int nd = 0; nd < nodes(); ++nd) {
      const NodeLedger v = ledger_.node(nd);
      const ReferenceNodeLedger& r = ref(nd);
      const std::string at = where + " node " + std::to_string(nd);
      ASSERT_EQ(v.idleCores(), r.idleCores()) << at;
      ASSERT_EQ(v.freeWays(), r.freeWays()) << at;
      ASSERT_EQ(bits(v.freeBandwidth()), bits(r.freeBandwidth())) << at;
      ASSERT_EQ(bits(v.freeNetwork()), bits(r.freeNetwork())) << at;
      ASSERT_EQ(v.jobCount(), r.jobCount()) << at;
      ASSERT_EQ(v.idle(), r.idle()) << at;
      ASSERT_EQ(v.hasExclusiveJob(), r.hasExclusiveJob()) << at;
      ASSERT_EQ(v.partitionedResidents(), r.partitionedResidents()) << at;
      ASSERT_EQ(bits(v.coreOccupancy()), bits(r.coreOccupancy())) << at;
      ASSERT_EQ(bits(v.wayOccupancy()), bits(r.wayOccupancy())) << at;
      ASSERT_EQ(bits(v.bwOccupancy()), bits(r.bwOccupancy())) << at;
      for (double beta : {0.0, 1.0, 2.0}) {
        ASSERT_EQ(bits(v.score(beta)), bits(r.score(beta))) << at;
      }
      for (const NodeAllocation& p : probes) ASSERT_EQ(v.fits(p), r.fits(p)) << at;
      // Same resident set (the ledger lists arrival order, the reference
      // ascending ids), same allocations, same effective ways.
      auto got = v.allocations();
      std::sort(got.begin(), got.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      ASSERT_EQ(got.size(), r.allocations().size()) << at;
      for (std::size_t i = 0; i < got.size(); ++i) {
        const auto& [job, a] = got[i];
        const NodeAllocation& want = r.allocations()[i].second;
        ASSERT_EQ(job, r.allocations()[i].first) << at;
        ASSERT_EQ(a.cores, want.cores) << at;
        ASSERT_EQ(a.ways, want.ways) << at;
        ASSERT_EQ(bits(a.bw_gbps), bits(want.bw_gbps)) << at;
        ASSERT_EQ(bits(a.net_gbps), bits(want.net_gbps)) << at;
        ASSERT_EQ(a.exclusive, want.exclusive) << at;
        ASSERT_EQ(bits(v.effectiveWays(job)), bits(r.effectiveWays(job))) << at;
      }
      for (int c = 0; c < ledger_.bucketCount(); ++c) {
        ASSERT_EQ(ledger_.bucket(c).contains(nd), c == r.idleCores()) << at << " bucket " << c;
      }
      cores += mach_.cores - r.idleCores();
      if (r.idle()) ++idle_nodes;
    }
    ASSERT_EQ(ledger_.cachedTotalCoresUsed(), cores) << where;
    ASSERT_EQ(cores, total_cores_) << where;
    ASSERT_EQ(ledger_.cachedTotalBwUnits(), total_bw_) << where;
    ASSERT_EQ(ledger_.idleNodeCount(), idle_nodes) << where;

    // The bucket population bound, summed row by row from the most idle
    // down, stopping once it reaches `enough`.
    for (int from : {1, 4, 12, 27}) {
      for (int ways : {0, 2, 8}) {
        for (int enough : {1, 3, 100}) {
          int n = 0;
          for (int c = mach_.cores; c >= from; --c) {
            for (int nd = 0; nd < nodes(); ++nd) {
              if (ref(nd).idleCores() == c && ref(nd).freeWays() >= ways) ++n;
            }
            if (n >= enough) break;
          }
          ASSERT_EQ(ledger_.feasibleUpperBound(from, ways, enough), n)
              << where << " from " << from << " ways " << ways;
        }
      }
    }
    for (const NodeAllocation& p : probes) {
      if (p.exclusive) continue;
      for (int count : {1, 2, 5}) {
        const auto want = testsupport::referenceRanked(
            nodes(), [&](int id) { return ref(id); }, count, p, 2.0);
        ASSERT_EQ(ledger_.selectNodes(count, p, 2.0), want)
            << where << " count " << count << " cores " << p.cores;
      }
    }
  }

 private:
  hw::MachineConfig mach_;
  ResourceLedger ledger_;
  std::vector<ReferenceNodeLedger> ref_;
  std::int64_t total_bw_ = 0;  ///< in ResourceLedger::bwUnits()
  std::int64_t total_cores_ = 0;
};

struct Job {
  NodeAllocation alloc;
  std::vector<int> plan;    ///< nodes still to join, per-node jobs only
  std::vector<int> placed;  ///< nodes holding the job
};

TEST(LedgerOracle, MixedPerNodeAndSpanCallsMatchPerNodeReferences) {
  constexpr int kNodes = 10;
  Cluster cl(kNodes, hw::MachineConfig::xeonE5_2680v4());
  util::Rng rng(20260417);
  std::map<JobId, Job> jobs;  // ordered: draws below never depend on hashing
  JobId next = 1;
  int span_calls = 0;
  int node_calls = 0;
  int failed_spans = 0;
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.uniformInt(0, static_cast<std::int64_t>(n) - 1));
  };
  for (int step = 0; step < 700; ++step) {
    const std::string where = "step " + std::to_string(step);
    const double u = rng.uniform();
    if (u < 0.3 || jobs.empty()) {
      // A new job. Fractional bandwidths make the per-node +=/-= sums
      // carry history-dependent rounding residue.
      Job j;
      const bool exclusive = rng.uniform() < 0.08;
      j.alloc.exclusive = exclusive;
      j.alloc.cores = exclusive ? static_cast<int>(rng.uniformInt(8, 28))
                                : static_cast<int>(rng.uniformInt(1, 7));
      j.alloc.ways = rng.uniform() < 0.4 ? 0 : static_cast<int>(rng.uniformInt(2, 5));
      j.alloc.bw_gbps = rng.uniform() < 0.3 ? 0.0 : 0.1 * rng.uniformInt(1, 150) + 0.013;
      j.alloc.net_gbps = rng.uniform() < 0.5 ? 0.0 : 0.07 * rng.uniformInt(1, 20);
      std::vector<int> nodes;
      for (int nd = 0; nd < kNodes; ++nd) {
        if (cl.ref(nd).fits(j.alloc) && rng.uniform() < 0.5) nodes.push_back(nd);
      }
      if (nodes.empty()) continue;
      std::shuffle(nodes.begin(), nodes.end(), rng);
      const JobId id = next++;
      if (rng.uniform() < 0.5) {
        // Whole placement at once; sometimes with a trailing node that
        // cannot hold the job, which must throw after committing the rest.
        std::vector<int> span = nodes;
        int blocked = -1;
        for (int nd = 0; nd < kNodes && rng.uniform() < 0.3; ++nd) {
          if (!cl.ref(nd).fits(j.alloc)) blocked = nd;
        }
        if (blocked >= 0) span.push_back(blocked);
        if (blocked >= 0) {
          EXPECT_THROW(cl.ledger().allocate(span, id, j.alloc), util::PreconditionError)
              << where;
          ++failed_spans;
        } else {
          const auto moves = cl.ledger().allocate(span, id, j.alloc);
          std::uint32_t moved = 0;
          for (const auto& t : moves) moved += t.count;
          ASSERT_EQ(moved, span.size()) << where;
        }
        cl.refAllocate(span, id, j.alloc);
        j.placed = nodes;
        ++span_calls;
      } else {
        j.plan = nodes;  // joined one node per step, interleaved with others
      }
      jobs.emplace(id, std::move(j));
    } else if (u < 0.6) {
      // One per-node join of a job still arriving.
      std::vector<JobId> arriving;
      for (const auto& [id, j] : jobs) {
        if (!j.plan.empty()) arriving.push_back(id);
      }
      if (arriving.empty()) continue;
      const JobId id = arriving[pick(arriving.size())];
      Job& j = jobs[id];
      const int nd = j.plan.back();
      j.plan.pop_back();
      if (!cl.ref(nd).fits(j.alloc)) {
        EXPECT_THROW(cl.ledger().allocate(nd, id, j.alloc), util::PreconditionError)
            << where;
      } else {
        cl.ledger().allocate(nd, id, j.alloc);
        cl.refAllocate({nd}, id, j.alloc);
        j.placed.push_back(nd);
      }
      ++node_calls;
    } else {
      // A departure: the whole placement in one call, or one node.
      std::vector<JobId> ids;
      for (const auto& [id, j] : jobs) {
        if (!j.placed.empty()) ids.push_back(id);
      }
      if (ids.empty()) continue;
      const JobId id = ids[pick(ids.size())];
      Job& j = jobs[id];
      if (rng.uniform() < 0.5) {
        std::shuffle(j.placed.begin(), j.placed.end(), rng);
        cl.ledger().release(j.placed, id);
        cl.refRelease(j.placed, id);
        j.placed.clear();
        j.plan.clear();
        ++span_calls;
      } else {
        const std::size_t k = pick(j.placed.size());
        const int nd = j.placed[k];
        j.placed.erase(j.placed.begin() + static_cast<std::ptrdiff_t>(k));
        cl.ledger().release(nd, id);
        cl.refRelease({nd}, id);
        ++node_calls;
      }
      if (j.placed.empty() && j.plan.empty()) jobs.erase(id);
    }
    cl.compare(where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(span_calls, 50);
  EXPECT_GT(node_calls, 50);
  EXPECT_GT(failed_spans, 0);
  audit::Auditor auditor;
  EXPECT_EQ(auditor.auditLedger(cl.ledger()), 0u) << auditor.report();
}

// Groups merge on release: two nodes reach {A, B} in opposite arrival
// orders (two groups); once B leaves both hold {A} again, one group.
TEST(LedgerOracle, OppositeArrivalOrdersMergeOnRelease) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger(2, mach);
  const NodeAllocation a{4, 2, 1.5, false, 0.0};
  const NodeAllocation b{2, 0, 0.7, false, 0.0};
  ledger.allocate(0, 1, a);
  ledger.allocate(1, 2, b);
  ledger.allocate(0, 2, b);
  ledger.allocate(1, 1, a);
  EXPECT_NE(ledger.groupOf(0), ledger.groupOf(1));
  EXPECT_EQ(ledger.node(0).allocations().front().first, 1);
  EXPECT_EQ(ledger.node(1).allocations().front().first, 2);
  const std::vector<int> both = {0, 1};
  const auto moves = ledger.release(both, 2);
  ASSERT_EQ(moves.size(), 2u);
  EXPECT_EQ(moves[0].dst, moves[1].dst);
  EXPECT_EQ(ledger.groupOf(0), ledger.groupOf(1));
  EXPECT_EQ(ledger.group(ledger.groupOf(0)).members, 2u);
  audit::Auditor auditor;
  EXPECT_EQ(auditor.auditLedger(ledger), 0u) << auditor.report();
}

// What a rate refresh reads off the transitions instead of walking the
// event's nodes. A destination is named with the serial of the
// incarnation it was, and counts only while that incarnation is live.
struct Named {
  ResourceLedger::GroupId group;
  std::uint64_t serial;
};

void nameDestinations(const ResourceLedger& ledger,
                      std::span<const ResourceLedger::Transition> moves,
                      std::vector<Named>& out) {
  for (const auto& t : moves) {
    if (t.dst != ResourceLedger::kIdleGroup) out.push_back({t.dst, ledger.group(t.dst).serial});
  }
}

/// The live entries of `named`, each group once, in first-appearance order.
std::vector<ResourceLedger::GroupId> liveGroups(const ResourceLedger& ledger,
                                                const std::vector<Named>& named) {
  std::vector<ResourceLedger::GroupId> out;
  for (const Named& n : named) {
    const ResourceLedger::Group& g = ledger.group(n.group);
    if (!g.live || g.serial != n.serial) continue;
    if (std::find(out.begin(), out.end(), n.group) == out.end()) out.push_back(n.group);
  }
  return out;
}

/// The distinct current groups of `nodes` other than the idle one, in
/// first-appearance order.
std::vector<ResourceLedger::GroupId> groupsOf(const ResourceLedger& ledger,
                                              const std::vector<int>& nodes) {
  std::vector<ResourceLedger::GroupId> out;
  for (int nd : nodes) {
    const ResourceLedger::GroupId g = ledger.groupOf(nd);
    if (g == ResourceLedger::kIdleGroup) continue;
    if (std::find(out.begin(), out.end(), g) == out.end()) out.push_back(g);
  }
  return out;
}

// Random batches of joins, each followed by releases: after a release,
// its live destinations are the distinct current groups of its nodes in
// first-appearance order; after a batch of joins, the live destinations
// of the whole batch are the distinct groups of every node it placed. A
// join can empty a group the batch named earlier, and a later join of the
// batch can take the pooled id: the stale entry then no longer counts and
// the id is named live once, under the new serial.
TEST(LedgerOracle, TransitionDestinationsAreTheGroupsAnEventLeavesItsNodesIn) {
  constexpr int kNodes = 24;
  const auto mach = hw::MachineConfig::xeonE5_2680v4();  // the ledger keeps a pointer
  ResourceLedger ledger(kNodes, mach);
  util::Rng rng(20261019);
  struct Held {
    NodeAllocation alloc;
    std::vector<int> nodes;
  };
  std::map<JobId, Held> placed;  // ordered: no hash-order draws
  JobId next = 1;
  int reused = 0;
  int merges = 0;
  for (int batch = 0; batch < 300; ++batch) {
    const std::string where = "batch " + std::to_string(batch);
    std::vector<Named> named;
    std::vector<int> batch_nodes;
    const int joins = static_cast<int>(rng.uniformInt(1, 4));
    for (int k = 0; k < joins; ++k) {
      // A new job, or a placed one spreading to more nodes: jobs then
      // reach the same nodes in different orders, so a release can merge
      // two groups into one.
      JobId id = next;
      Held h;
      if (!placed.empty() && rng.uniform() < 0.3) {
        auto it = placed.begin();
        std::advance(it, rng.uniformInt(0, static_cast<std::int64_t>(placed.size()) - 1));
        id = it->first;
        h.alloc = it->second.alloc;
      } else {
        h.alloc.cores = static_cast<int>(rng.uniformInt(1, 6));
        h.alloc.ways = rng.uniform() < 0.5 ? 0 : 2;
        h.alloc.bw_gbps = 0.1 * static_cast<double>(rng.uniformInt(0, 20));
      }
      for (int nd = 0; nd < kNodes; ++nd) {
        if (!ledger.node(nd).holds(id) && ledger.node(nd).fits(h.alloc) &&
            rng.uniform() < 0.4) {
          h.nodes.push_back(nd);
        }
      }
      if (h.nodes.empty()) continue;
      std::shuffle(h.nodes.begin(), h.nodes.end(), rng);
      nameDestinations(ledger, ledger.allocate(h.nodes, id, h.alloc), named);
      batch_nodes.insert(batch_nodes.end(), h.nodes.begin(), h.nodes.end());
      if (id == next) {
        placed.emplace(next++, std::move(h));
      } else {
        auto& nodes = placed[id].nodes;
        nodes.insert(nodes.end(), h.nodes.begin(), h.nodes.end());
      }
    }
    std::vector<ResourceLedger::GroupId> live = liveGroups(ledger, named);
    std::vector<ResourceLedger::GroupId> want = groupsOf(ledger, batch_nodes);
    std::sort(live.begin(), live.end());
    std::sort(want.begin(), want.end());
    ASSERT_EQ(live, want) << where;
    for (const Named& n : named) {
      const ResourceLedger::Group& g = ledger.group(n.group);
      reused += g.live && g.serial != n.serial;
    }

    const int releases = static_cast<int>(rng.uniformInt(0, 3));
    for (int k = 0; k < releases && !placed.empty(); ++k) {
      auto it = placed.begin();
      std::advance(it, rng.uniformInt(0, static_cast<std::int64_t>(placed.size()) - 1));
      std::vector<int> nodes = std::move(it->second.nodes);
      std::shuffle(nodes.begin(), nodes.end(), rng);
      const auto moves = ledger.release(nodes, it->first);
      placed.erase(it);
      std::vector<Named> released;
      nameDestinations(ledger, moves, released);
      for (const Named& n : released) {
        // The span is read before any other event: every destination is live.
        ASSERT_TRUE(ledger.group(n.group).live) << where;
      }
      const std::vector<ResourceLedger::GroupId> dsts = liveGroups(ledger, released);
      merges += dsts.size() < released.size();
      ASSERT_EQ(dsts, groupsOf(ledger, nodes)) << where << " release " << k;
    }
  }
  EXPECT_GT(reused, 0);
  EXPECT_GT(merges, 0);
}

// The reuse case spelled out: job 1's group is emptied by job 2 joining
// both its nodes, job 3 then takes the pooled id, and the batch names that
// id live once, as job 3's group.
TEST(LedgerOracle, AGroupEmptiedMidBatchIsNamedOnceUnderItsNewSerial) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger(3, mach);
  const NodeAllocation a{4, 0, 1.0, false, 0.0};
  std::vector<Named> named;
  const std::vector<int> pair = {0, 1};
  const std::vector<int> third = {2};
  nameDestinations(ledger, ledger.allocate(pair, 1, a), named);
  nameDestinations(ledger, ledger.allocate(pair, 2, a), named);
  nameDestinations(ledger, ledger.allocate(third, 3, a), named);
  ASSERT_EQ(named.size(), 3u);
  EXPECT_EQ(named[0].group, named[2].group);  // job 1's id, pooled and reused
  EXPECT_NE(named[0].serial, named[2].serial);
  const std::vector<ResourceLedger::GroupId> want = {named[1].group, named[2].group};
  EXPECT_EQ(liveGroups(ledger, named), want);
  EXPECT_EQ(ledger.groupOf(2), named[2].group);
}

/// Selection queries of one large-cluster step against the references:
/// selectNodes, selectNodesByAlignment, feasibleNodes and
/// feasibleUpperBound, plus each node's exact bandwidth sum.
void compareSelection(ResourceLedger& ledger, const std::vector<ReferenceNodeLedger>& ref,
                      const hw::MachineConfig& mach, const std::string& where) {
  const int nodes = static_cast<int>(ref.size());
  const auto at = [&](int id) -> const ReferenceNodeLedger& {
    return ref[static_cast<std::size_t>(id)];
  };
  std::vector<std::vector<int>> rows(
      static_cast<std::size_t>(mach.cores + 1),
      std::vector<int>(static_cast<std::size_t>(mach.llc_ways + 1), 0));
  for (int nd = 0; nd < nodes; ++nd) {
    const auto& cls = ledger.nodeClass(ledger.classOf(nd));
    ASSERT_EQ(bits(cls.bw), bits(at(nd).bwReserved())) << where << " node " << nd;
    ASSERT_EQ(bits(cls.net), bits(at(nd).netReserved())) << where << " node " << nd;
    ++rows[static_cast<std::size_t>(at(nd).idleCores())]
          [static_cast<std::size_t>(at(nd).freeWays())];
  }
  for (int from : {0, 1, 5, 14, 27, 28, 29}) {
    for (int ways : {0, 2, 9, 20, 21}) {
      for (int enough : {1, 40, 600}) {
        int n = 0;
        for (int c = mach.cores; c >= from; --c) {
          for (int w = ways; w <= mach.llc_ways; ++w) {
            n += rows[static_cast<std::size_t>(c)][static_cast<std::size_t>(w)];
          }
          if (n >= enough) break;
        }
        ASSERT_EQ(ledger.feasibleUpperBound(from, ways, enough), n)
            << where << " from " << from << " ways " << ways << " enough " << enough;
      }
    }
  }
  const NodeAllocation probes[] = {
      {1, 0, 0.0, false, 0.0},  {2, 2, 0.2, false, 0.0},  {6, 3, 0.7, false, 0.1},
      {12, 0, 0.1, false, 0.0}, {0, 2, 0.0, false, 0.0},  {28, 0, 0.0, true, 0.0},
      {3, 0, 30.0, false, 0.0}, {4, 2, 0.3, false, 6.5},
  };
  for (const NodeAllocation& p : probes) {
    const std::string q = where + " probe cores " + std::to_string(p.cores) + " ways " +
                          std::to_string(p.ways) + " bw " + std::to_string(p.bw_gbps);
    ASSERT_EQ(ledger.feasibleNodes(p), testsupport::referenceFeasible(nodes, at, p)) << q;
    for (int count : {1, 3, 37, 130, 400}) {
      for (double beta : {0.0, 2.0}) {
        ASSERT_EQ(ledger.selectNodes(count, p, beta),
                  testsupport::referenceRanked(nodes, at, count, p, beta))
            << q << " count " << count << " beta " << beta;
      }
      ASSERT_EQ(ledger.selectNodesByAlignment(count, p),
                testsupport::referenceAligned(nodes, at, mach, count, p))
          << q << " count " << count;
    }
  }
}

// Multi-node jobs placed and released as whole spans on 512 nodes, with
// bandwidths such as 0.1, 0.2 and 0.7 GB/s joining and leaving in
// different orders: nodes that end up with one resident list carry
// different reservation-sum bits, so one group holds several classes.
// Every selection must still equal the per-node reference.
TEST(LedgerOracle, ClassesOnLargeClusterMatchPerNodeReferences) {
  constexpr int kNodes = 512;
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger(kNodes, mach);
  std::vector<ReferenceNodeLedger> ref(kNodes, ReferenceNodeLedger(mach));
  util::Rng rng(20261018);
  const double bws[] = {0.1, 0.2, 0.7, 0.3, 1.1, 0.0};
  const double nets[] = {0.0, 0.1, 0.2};
  std::map<JobId, std::pair<NodeAllocation, std::vector<int>>> jobs;
  JobId next = 1;
  int split_steps = 0;
  int releases = 0;
  for (int step = 0; step < 160; ++step) {
    const std::string where = "step " + std::to_string(step);
    if (jobs.size() < 6 || rng.uniform() < 0.55) {
      NodeAllocation a;
      a.cores = static_cast<int>(rng.uniformInt(1, 6));
      a.ways = rng.uniform() < 0.5 ? 0 : static_cast<int>(rng.uniformInt(2, 3));
      a.bw_gbps = bws[rng.uniformInt(0, 5)];
      a.net_gbps = nets[rng.uniformInt(0, 2)];
      // A window of the cluster, so placements overlap in shifting ways.
      const int lo = static_cast<int>(rng.uniformInt(0, kNodes - 1));
      const int width = static_cast<int>(rng.uniformInt(8, 160));
      std::vector<int> span;
      for (int i = 0; i < width; ++i) {
        const int nd = (lo + i) % kNodes;
        if (ref[static_cast<std::size_t>(nd)].fits(a) && rng.uniform() < 0.8) span.push_back(nd);
      }
      if (span.empty()) continue;
      std::shuffle(span.begin(), span.end(), rng);
      const JobId id = next++;
      const auto moves = ledger.allocate(span, id, a);
      std::uint32_t moved = 0;
      for (const auto& t : moves) moved += t.count;
      ASSERT_EQ(moved, span.size()) << where;
      for (int nd : span) ref[static_cast<std::size_t>(nd)].allocate(id, a);
      jobs.emplace(id, std::make_pair(a, std::move(span)));
    } else {
      auto it = jobs.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniformInt(
                           0, static_cast<std::int64_t>(jobs.size()) - 1)));
      auto& [alloc, span] = it->second;
      std::shuffle(span.begin(), span.end(), rng);
      ledger.release(span, it->first);
      for (int nd : span) ref[static_cast<std::size_t>(nd)].release(it->first);
      jobs.erase(it);
      ++releases;
    }
    // Nodes of one group share a class exactly when their sums share bits.
    std::map<ResourceLedger::GroupId, int> first;
    bool split = false;
    for (int nd = 0; nd < kNodes; ++nd) {
      const auto [pos, fresh] = first.emplace(ledger.groupOf(nd), nd);
      if (fresh) continue;
      const auto& u = ref[static_cast<std::size_t>(pos->second)];
      const auto& v = ref[static_cast<std::size_t>(nd)];
      const bool same = bits(u.bwReserved()) == bits(v.bwReserved()) &&
                        bits(u.netReserved()) == bits(v.netReserved());
      ASSERT_EQ(ledger.classOf(nd) == ledger.classOf(pos->second), same) << where;
      split = split || !same;
    }
    if (split) ++split_steps;
    compareSelection(ledger, ref, mach, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(releases, 30);
  EXPECT_GT(split_steps, 20);
  audit::Auditor auditor;
  EXPECT_EQ(auditor.auditLedger(ledger), 0u) << auditor.report();
}

// Two nodes with one resident list but different bandwidth-sum bits are
// two classes, and selection ranks them by exact score, then id. Node 0
// sees x + y + z - y, nodes 1 and 2 see x + z; depending on the values the
// residue survives into the score or rounds away (a tie, ordered by id).
TEST(LedgerOracle, EqualResidentsDifferentSumsRankByExactScore) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  // A large middle term leaves a residue of its own magnitude's ulp.
  const double peak = mach.peakBandwidth();
  const double sums[][3] = {{0.1, 0.2, 0.7},         {0.1, 0.7, 0.2},
                            {0.1, 0.83 * peak, 0.7}, {0.3, 0.61 * peak, 0.2},
                            {0.7, 0.77 * peak, 0.1}, {0.2, 0.9 * peak, 0.3}};
  const NodeAllocation req{1, 0, 0.0, false, 0.0};
  int split = 0;
  int distinct = 0;
  int tied = 0;
  for (const auto& xyz : sums) {
    ResourceLedger ledger(3, mach);
    ledger.allocate(std::vector<int>{0, 1, 2}, 1, {1, 0, xyz[0], false, 0.0});
    ledger.allocate(std::vector<int>{0}, 2, {1, 0, xyz[1], false, 0.0});
    ledger.allocate(std::vector<int>{2, 0, 1}, 3, {1, 0, xyz[2], false, 0.0});
    ledger.release(std::vector<int>{0}, 2);
    ASSERT_EQ(ledger.groupOf(0), ledger.groupOf(1));
    ASSERT_EQ(ledger.groupOf(1), ledger.groupOf(2));
    EXPECT_EQ(ledger.classOf(1), ledger.classOf(2));
    const bool same_bits = bits(ledger.nodeClass(ledger.classOf(0)).bw) ==
                           bits(ledger.nodeClass(ledger.classOf(1)).bw);
    EXPECT_EQ(ledger.classOf(0) == ledger.classOf(1), same_bits);
    if (same_bits) continue;
    ++split;
    EXPECT_EQ(ledger.nodeClass(ledger.classOf(1)).members, 2u);
    for (double beta : {0.0, 2.0}) {
      std::vector<std::pair<double, int>> scored;
      for (int nd = 0; nd < 3; ++nd) scored.emplace_back(ledger.node(nd).score(beta), nd);
      std::sort(scored.begin(), scored.end());
      const std::vector<int> want = {scored[0].second, scored[1].second, scored[2].second};
      EXPECT_EQ(ledger.selectNodes(3, req, beta), want);
      EXPECT_EQ(ledger.selectNodes(2, req, beta), std::vector<int>(want.begin(), want.begin() + 2));
      if (scored[0].first == scored[2].first) {
        ++tied;
      } else {
        ++distinct;
      }
    }
    audit::Auditor auditor;
    EXPECT_EQ(auditor.auditLedger(ledger), 0u) << auditor.report();
  }
  EXPECT_GT(split, 0);
  EXPECT_GT(distinct, 0);
  EXPECT_GT(tied, 0);
}

// Equal keys across idle-core buckets (the all-buckets fallback and the
// alignment ranking read several buckets) are ordered by id, although the
// buckets are read in idle-core order.
TEST(LedgerOracle, TiesAcrossBucketsBreakById) {
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  ResourceLedger ledger(4, mach);
  // Nodes 0 and 1 hold 8 cores, nodes 2 and 3 hold 4: two buckets, the
  // higher ids in the idler one; every node keeps 18 free ways.
  ledger.allocate(std::vector<int>{0, 1}, 1, {8, 2, 0.0, false, 0.0});
  ledger.allocate(std::vector<int>{2, 3}, 2, {4, 2, 0.0, false, 0.0});
  // Alignment with a ways-only request reads only the free ways: a tie.
  const NodeAllocation ways_only{0, 2, 0.0, false, 0.0};
  EXPECT_EQ(ledger.selectNodesByAlignment(3, ways_only), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(ledger.feasibleNodes(ways_only), (std::vector<int>{2, 3, 0, 1}));
  // Ranked fallback: with beta 0 and no bandwidth the score is the core
  // occupancy, so the 4-core nodes lead; asking for more nodes than one
  // bucket holds ranks both buckets together.
  const NodeAllocation small{1, 0, 0.0, false, 0.0};
  EXPECT_EQ(ledger.selectNodes(3, small, 0.0), (std::vector<int>{2, 3, 0}));

  // A 4-core node whose bandwidth lifts its score to exactly an 8-core
  // node's: the ranked fallback must order the tie by id across buckets.
  const double target = ResourceLedger(1, mach).node(0).score(0.0) + 8.0 / mach.cores;
  double bw = 4.0 / mach.cores * mach.peakBandwidth();
  bool found = false;
  for (int i = 0; i < 64 && !found; ++i) {
    ResourceLedger probe(1, mach);
    probe.allocate(0, 1, {4, 0, bw, false, 0.0});
    if (probe.node(0).score(0.0) == target) {
      found = true;
    } else {
      bw = std::nextafter(bw, probe.node(0).score(0.0) < target ? 1e9 : 0.0);
    }
  }
  ASSERT_TRUE(found);
  ResourceLedger tie(4, mach);
  tie.allocate(std::vector<int>{0, 2}, 1, {8, 0, 0.0, false, 0.0});
  tie.allocate(std::vector<int>{1, 3}, 2, {4, 0, bw, false, 0.0});
  ASSERT_EQ(tie.node(0).score(0.0), tie.node(1).score(0.0));
  EXPECT_EQ(tie.selectNodes(3, small, 0.0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(tie.selectNodes(3, small, 0.0),
            testsupport::referenceRanked(4, [&](int id) { return tie.node(id); }, 3, small, 0.0));
}

TEST(NodeBitset, TransferRangeChecksEveryWordBeforeMoving) {
  NodeBitset from(200);
  NodeBitset to(200);
  for (int id = 0; id < 200; ++id) from.insert(id);
  // Ids 60..140 span three words; 130 already sits in `to`.
  to.insert(130);
  EXPECT_FALSE(from.transferRange(to, 60, 81));
  for (int id = 60; id <= 140; ++id) {
    ASSERT_TRUE(from.contains(id)) << id;
    ASSERT_EQ(to.contains(id), id == 130) << id;
  }
  // 150 missing from the source fails a range that ends on it.
  from.erase(150);
  EXPECT_FALSE(from.transferRange(to, 131, 20));
  EXPECT_TRUE(from.contains(131));
  EXPECT_TRUE(from.transferRange(to, 131, 19));  // 131..149
  EXPECT_TRUE(from.transferRange(to, 0, 130));   // whole words and a partial one
  for (int id = 0; id < 200; ++id) {
    const bool moved = id <= 149 && id != 130;
    ASSERT_EQ(from.contains(id), !moved && id != 150) << id;
    ASSERT_EQ(to.contains(id), moved || id == 130) << id;
  }
  EXPECT_TRUE(from.transferRange(to, 199, 1));  // the last id of the universe
  EXPECT_TRUE(to.contains(199));
}

/// The transitions a span event must return, read off a ledger fed the
/// same nodes one call at a time: one per source group in order of first
/// appearance, `before`/`after` being each input node's group around the
/// event.
std::vector<ResourceLedger::Transition> expectedTransitions(
    const std::vector<ResourceLedger::GroupId>& before,
    const std::vector<ResourceLedger::GroupId>& after) {
  std::vector<ResourceLedger::Transition> out;
  for (std::size_t i = 0; i < before.size(); ++i) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const auto& t) { return t.src == before[i]; });
    if (it == out.end()) {
      out.push_back({before[i], after[i], 0});
      it = std::prev(out.end());
    }
    EXPECT_EQ(it->dst, after[i]);
    ++it->count;
  }
  return out;
}

/// The span ledger and its per-node twin hold the same state: the same
/// class and group per node (both intern in the same order), the same
/// views, buckets and cached totals.
void compareTwins(ResourceLedger& span, ResourceLedger& twin, const std::string& where) {
  for (int nd = 0; nd < span.nodeCount(); ++nd) {
    const std::string at = where + " node " + std::to_string(nd);
    ASSERT_EQ(span.classOf(nd), twin.classOf(nd)) << at;
    ASSERT_EQ(span.groupOf(nd), twin.groupOf(nd)) << at;
    const NodeLedger a = span.node(nd);
    const NodeLedger b = twin.node(nd);
    ASSERT_EQ(a.idleCores(), b.idleCores()) << at;
    ASSERT_EQ(a.freeWays(), b.freeWays()) << at;
    ASSERT_EQ(bits(a.freeBandwidth()), bits(b.freeBandwidth())) << at;
    ASSERT_EQ(bits(a.freeNetwork()), bits(b.freeNetwork())) << at;
    ASSERT_EQ(a.allocations().size(), b.allocations().size()) << at;
    for (std::size_t i = 0; i < a.allocations().size(); ++i) {
      const auto& [job, x] = a.allocations()[i];
      const auto& [twin_job, y] = b.allocations()[i];
      ASSERT_EQ(job, twin_job) << at;
      ASSERT_TRUE(x.cores == y.cores && x.ways == y.ways && x.exclusive == y.exclusive &&
                  bits(x.bw_gbps) == bits(y.bw_gbps) && bits(x.net_gbps) == bits(y.net_gbps))
          << at;
    }
  }
  for (int c = 0; c < span.bucketCount(); ++c) {
    ASSERT_EQ(span.bucket(c).size(), twin.bucket(c).size()) << where << " bucket " << c;
    for (int nd = 0; nd < span.nodeCount(); ++nd) {
      ASSERT_EQ(span.bucket(c).contains(nd), twin.bucket(c).contains(nd))
          << where << " bucket " << c << " node " << nd;
    }
  }
  ASSERT_EQ(span.cachedTotalBwUnits(), twin.cachedTotalBwUnits()) << where;
  ASSERT_EQ(span.cachedTotalCoresUsed(), twin.cachedTotalCoresUsed()) << where;
  ASSERT_EQ(span.cachedTotalWaysReserved(), twin.cachedTotalWaysReserved()) << where;
  ASSERT_EQ(span.idleNodeCount(), twin.idleNodeCount()) << where;
}

// Spans over windows of a 256-node cluster, in ascending id order or
// shuffled, allocated and released in one call on one ledger and one node
// per call on a twin. Ascending spans commit as segments of consecutive
// ids in one class, crossing bitmap words; both ledgers and the per-node
// references must agree after every event, transitions included.
TEST(LedgerOracle, SpanRunsMatchPerNodeCallsAndReferences) {
  constexpr int kNodes = 256;
  const auto mach = hw::MachineConfig::xeonE5_2680v4();
  Cluster cl(kNodes, mach);
  ResourceLedger twin(kNodes, mach);
  util::Rng rng(20261019);
  const double bws[] = {0.1, 0.2, 0.7, 0.3, 1.1, 0.0};
  const double nets[] = {0.0, 0.1, 0.2};
  std::map<JobId, std::pair<NodeAllocation, std::vector<int>>> jobs;
  JobId next = 1;
  int ascending = 0;
  int shuffled = 0;
  int word_crossings = 0;  // events with a run over a 64-id boundary
  int class_breaks = 0;    // events with consecutive ids in different classes
  for (int step = 0; step < 240; ++step) {
    const std::string where = "step " + std::to_string(step);
    const bool join = jobs.size() < 5 || rng.uniform() < 0.55;
    JobId id;
    NodeAllocation a;
    std::vector<int> span;
    if (join) {
      a.cores = static_cast<int>(rng.uniformInt(1, 6));
      a.ways = rng.uniform() < 0.5 ? 0 : static_cast<int>(rng.uniformInt(2, 3));
      a.bw_gbps = bws[rng.uniformInt(0, 5)];
      a.net_gbps = nets[rng.uniformInt(0, 2)];
      const int lo = static_cast<int>(rng.uniformInt(0, kNodes - 1));
      const int width = static_cast<int>(rng.uniformInt(8, 200));
      for (int i = 0; i < width; ++i) {
        const int nd = (lo + i) % kNodes;
        if (cl.ref(nd).fits(a) && rng.uniform() < 0.9) span.push_back(nd);
      }
      if (span.empty()) continue;
      id = next++;
    } else {
      auto it = jobs.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng.uniformInt(
                           0, static_cast<std::int64_t>(jobs.size()) - 1)));
      id = it->first;
      span = it->second.second;
      std::sort(span.begin(), span.end());
    }
    if (rng.uniform() < 0.4) {
      std::shuffle(span.begin(), span.end(), rng);
      ++shuffled;
    } else {
      ++ascending;
    }
    bool crosses = false;
    bool breaks = false;
    std::vector<ResourceLedger::GroupId> before;
    for (std::size_t i = 0; i < span.size(); ++i) {
      before.push_back(twin.groupOf(span[i]));
      if (i + 1 < span.size() && span[i + 1] == span[i] + 1) {
        crosses = crosses || span[i] % 64 == 63;
        breaks = breaks || twin.classOf(span[i]) != twin.classOf(span[i + 1]);
      }
    }
    word_crossings += crosses ? 1 : 0;
    class_breaks += breaks ? 1 : 0;

    std::vector<ResourceLedger::Transition> got;
    if (join) {
      const auto moves = cl.ledger().allocate(span, id, a);
      got.assign(moves.begin(), moves.end());
      for (const int nd : span) twin.allocate(nd, id, a);
      cl.refAllocate(span, id, a);
      jobs.emplace(id, std::make_pair(a, span));
    } else {
      const auto moves = cl.ledger().release(span, id);
      got.assign(moves.begin(), moves.end());
      for (const int nd : span) twin.release(nd, id);
      cl.refRelease(span, id);
      jobs.erase(id);
    }
    std::vector<ResourceLedger::GroupId> after;
    for (const int nd : span) after.push_back(twin.groupOf(nd));
    const auto want = expectedTransitions(before, after);
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i].src, want[i].src) << where << " transition " << i;
      ASSERT_EQ(got[i].dst, want[i].dst) << where << " transition " << i;
      ASSERT_EQ(got[i].count, want[i].count) << where << " transition " << i;
    }
    compareTwins(cl.ledger(), twin, where);
    if (::testing::Test::HasFatalFailure()) return;
    cl.compare(where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  EXPECT_GT(ascending, 60);
  EXPECT_GT(shuffled, 40);
  EXPECT_GT(word_crossings, 30);
  EXPECT_GT(class_breaks, 10);
  audit::Auditor auditor;
  EXPECT_EQ(auditor.auditLedger(cl.ledger()), 0u) << auditor.report();
  EXPECT_EQ(auditor.auditLedger(twin), 0u) << auditor.report();
}

/// A span that fails part-way on one ledger and the same nodes one call
/// at a time on a twin: both throw the same message at the same node, and
/// leave the same state behind.
class SpanFailure {
 public:
  explicit SpanFailure(int nodes)
      : mach_(hw::MachineConfig::xeonE5_2680v4()), span_(nodes, mach_), twin_(nodes, mach_) {}

  /// Commit `nodes` for `job` on both ledgers, ahead of the failing call.
  void setUp(const std::vector<int>& nodes, JobId job, const NodeAllocation& a) {
    span_.allocate(nodes, job, a);
    for (const int nd : nodes) twin_.allocate(nd, job, a);
  }

  /// Run the failing event (`join` null for a release) and check: the
  /// message, the first `committed` nodes holding the job's change, every
  /// other node unchanged, the twin failing at the same node with the
  /// same message, and the twins equal afterwards.
  void expectFailure(const std::vector<int>& nodes, JobId job, const NodeAllocation* join,
                     const std::string& message, std::size_t committed) {
    std::vector<ResourceLedger::ClassId> before;
    for (int nd = 0; nd < span_.nodeCount(); ++nd) before.push_back(span_.classOf(nd));
    std::string got;
    try {
      if (join != nullptr) {
        span_.allocate(nodes, job, *join);
      } else {
        span_.release(nodes, job);
      }
    } catch (const util::PreconditionError& e) {
      got = e.what();
    }
    EXPECT_EQ(got, "ResourceLedger: " + message);
    std::string twin_got;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      try {
        if (join != nullptr) {
          twin_.allocate(nodes[i], job, *join);
        } else {
          twin_.release(nodes[i], job);
        }
      } catch (const util::PreconditionError& e) {
        twin_got = e.what();
        EXPECT_EQ(i, committed) << "the twin failed at another node";
        break;
      }
    }
    EXPECT_EQ(twin_got, got);
    std::vector<bool> changed(static_cast<std::size_t>(span_.nodeCount()), false);
    for (std::size_t i = 0; i < committed; ++i) {
      changed[static_cast<std::size_t>(nodes[i])] = true;
      const auto& residents = span_.node(nodes[i]).allocations();
      const bool holds = std::any_of(residents.begin(), residents.end(),
                                     [&](const auto& r) { return r.first == job; });
      EXPECT_EQ(holds, join != nullptr) << "committed node " << nodes[i];
    }
    for (int nd = 0; nd < span_.nodeCount(); ++nd) {
      if (!changed[static_cast<std::size_t>(nd)]) {
        EXPECT_EQ(span_.classOf(nd), before[static_cast<std::size_t>(nd)]) << "node " << nd;
      }
    }
    compareTwins(span_, twin_, message);
    audit::Auditor auditor;
    EXPECT_EQ(auditor.auditLedger(span_), 0u) << auditor.report();
  }

  ResourceLedger& ledger() { return span_; }

 private:
  hw::MachineConfig mach_;
  ResourceLedger span_;
  ResourceLedger twin_;
};

std::vector<int> ids(int first, int last) {
  std::vector<int> out(static_cast<std::size_t>(last - first + 1));
  std::iota(out.begin(), out.end(), first);
  return out;
}

std::vector<int> concat(std::vector<int> a, const std::vector<int>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

TEST(LedgerOracle, SpanOutOfRangeMidRunCommitsTheRunBeforeIt) {
  SpanFailure f(200);
  const NodeAllocation a{2, 0, 0.3, false, 0.1};
  f.setUp(ids(56, 70), 1, a);
  // 60..69 are one class, then an id past the end, then 70.
  const auto nodes = concat(concat(ids(60, 69), {200}), {70});
  f.expectFailure(nodes, 2, &a, "node id out of range", 10);
  const auto negative = concat(ids(120, 135), {-1, 136});
  f.expectFailure(negative, 3, &a, "node id out of range", 16);
}

TEST(LedgerOracle, SpanDuplicateAfterARunFailsAtTheDuplicate) {
  SpanFailure f(200);
  const NodeAllocation a{3, 2, 0.7, false, 0.0};
  // A run over the 63/64 word boundary, then its last id again.
  f.expectFailure(concat(ids(50, 80), {80}), 1, &a,
                  "job already holds resources on this node", 31);
  EXPECT_EQ(f.ledger().node(80).jobCount(), 1);
  // Released as a run, then one of its ids again.
  f.expectFailure(concat(ids(50, 80), {66}), 1, nullptr, "job holds nothing on this node", 31);
}

TEST(LedgerOracle, SpanSecondSegmentThatDoesNotFitLeavesTheFirstCommitted) {
  SpanFailure f(200);
  // 100..139 hold a 20-core job, so only 8 cores stay idle there.
  f.setUp(ids(100, 139), 1, {20, 0, 0.0, false, 0.0});
  // 80..99 are idle and fit; 100..139 are the second segment and do not.
  const NodeAllocation big{10, 0, 0.1, false, 0.0};
  f.expectFailure(ids(80, 139), 2, &big, "allocation does not fit on node", 20);
  EXPECT_EQ(f.ledger().node(99).idleCores(), 18);
  EXPECT_EQ(f.ledger().node(100).idleCores(), 8);
}

TEST(LedgerOracle, SpanRunEndingAtTheLastNode) {
  SpanFailure f(200);
  const NodeAllocation a{1, 0, 0.2, false, 0.0};
  // A run through the last id, then one past it: the run scan must stop
  // at the end of the cluster, and the id past it fails on its own.
  f.expectFailure(concat(ids(150, 199), {200}), 1, &a, "node id out of range", 50);
  // The same run, ending at the last id, commits whole on a fresh job.
  ResourceLedger& ledger = f.ledger();
  const auto moves = ledger.allocate(ids(150, 199), 2, a);
  ASSERT_EQ(moves.size(), 1u);
  EXPECT_EQ(moves[0].count, 50u);
  for (int nd = 0; nd < 200; ++nd) {
    EXPECT_EQ(ledger.node(nd).jobCount(), nd >= 150 ? 2 : 0) << nd;
    EXPECT_EQ(ledger.bucket(26).contains(nd), nd >= 150) << nd;
  }
  const auto back = ledger.release(ids(150, 199), 2);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].count, 50u);
  EXPECT_EQ(ledger.bucket(27).size(), 50);
  audit::Auditor auditor;
  EXPECT_EQ(auditor.auditLedger(ledger), 0u) << auditor.report();
}

}  // namespace
}  // namespace sns::actuator
