#include "checks.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <tuple>
#include <vector>

namespace perfbench {

using sns::sim::JobRecord;
using sns::sim::SimResult;

CheckReport checkResult(const SimResult& res, int cluster_nodes,
                        const sns::hw::MachineConfig& mach) {
  CheckReport rep;
  rep.jobs = res.jobs.size();
  std::vector<char> failed(res.jobs.size(), 0);
  auto fail = [&](std::size_t i, const std::string& why) {
    if (!failed[i]) ++rep.failed_jobs;
    failed[i] = 1;
    if (rep.first_failure.empty()) {
      rep.first_failure = "job " + std::to_string(res.jobs[i].id) + ": " + why;
    }
  };

  // Per-job checks; only structurally sound jobs enter the capacity sweep.
  std::vector<int> stamp(static_cast<std::size_t>(cluster_nodes), -1);
  struct Edge {
    double t;
    int is_start;  // finishes (0) free capacity before starts (1) claim it
    std::size_t job;
  };
  std::vector<Edge> edges;
  edges.reserve(2 * res.jobs.size());
  for (std::size_t i = 0; i < res.jobs.size(); ++i) {
    const JobRecord& j = res.jobs[i];
    const auto& p = j.placement;
    if (!j.completed() || j.start < 0.0) {
      fail(i, "did not complete");
      continue;
    }
    if (!(j.submit <= j.start && j.start < j.finish)) {
      fail(i, "times out of order (submit <= start < finish)");
      continue;
    }
    if (p.nodes.empty() || p.procs_per_node < 1 ||
        static_cast<long>(p.procs_per_node) * p.nodeCount() < j.spec.procs) {
      fail(i, "placement does not cover the job's processes");
      continue;
    }
    bool sound = true;
    for (int nd : p.nodes) {
      if (nd < 0 || nd >= cluster_nodes || stamp[static_cast<std::size_t>(nd)] ==
                                                 static_cast<int>(i)) {
        sound = false;
        break;
      }
      stamp[static_cast<std::size_t>(nd)] = static_cast<int>(i);
    }
    if (!sound) {
      fail(i, "placement names an out-of-range or repeated node");
      continue;
    }
    edges.push_back({j.start, 1, i});
    edges.push_back({j.finish, 0, i});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return std::tie(a.t, a.is_start, a.job) < std::tie(b.t, b.is_start, b.job);
  });

  struct NodeUse {
    int procs = 0;
    int ways = 0;
    int residents = 0;
    bool exclusive = false;
  };
  std::vector<NodeUse> use(static_cast<std::size_t>(cluster_nodes));
  for (const Edge& e : edges) {
    const auto& p = res.jobs[e.job].placement;
    for (int nd : p.nodes) {
      NodeUse& u = use[static_cast<std::size_t>(nd)];
      if (e.is_start) {
        if (u.exclusive || (p.exclusive && u.residents > 0)) {
          fail(e.job, "exclusive placement shares node " + std::to_string(nd));
        }
        u.procs += p.procs_per_node;
        u.ways += p.ways;
        ++u.residents;
        u.exclusive = u.exclusive || p.exclusive;
        if (u.procs > mach.cores) {
          fail(e.job, "node " + std::to_string(nd) + " holds more processes than cores");
        }
        if (u.ways > mach.llc_ways) {
          fail(e.job, "node " + std::to_string(nd) + " holds more ways than its LLC");
        }
      } else {
        u.procs -= p.procs_per_node;
        u.ways -= p.ways;
        --u.residents;
        if (p.exclusive) u.exclusive = false;
      }
    }
  }
  return rep;
}

std::uint64_t resultDigest(const SimResult& res) {
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  for (const JobRecord& j : res.jobs) {
    mix(std::bit_cast<std::uint64_t>(j.start));
    mix(std::bit_cast<std::uint64_t>(j.finish));
    mix(j.placement.nodes.size());
    for (int nd : j.placement.nodes) mix(static_cast<std::uint64_t>(nd));
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
