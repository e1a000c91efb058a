#include "sns/sim/trace_export.hpp"

#include <algorithm>
#include <fstream>
#include <utility>
#include <vector>

#include "sns/obs/perfetto.hpp"
#include "sns/util/error.hpp"

namespace sns::sim {

namespace {

constexpr int kSchedulerPid = 0;

int nodePid(int node) { return node + 1; }

std::string jobLabel(const JobRecord& j) {
  std::string out = "J";
  out += std::to_string(j.id);
  out += " " + j.spec.program + "/" + std::to_string(j.spec.procs) +
         " k=" + std::to_string(j.placement.scale_factor) +
         (j.placement.exclusive ? " excl" : " w=" + std::to_string(j.placement.ways));
  return out;
}

}  // namespace

util::Json exportPerfetto(const SimResult& res, std::span<const obs::Event> events,
                          const TraceExportOptions& opts) {
  obs::PerfettoTraceBuilder b;

  // Scheduler decisions render above the node lanes.
  b.processName(kSchedulerPid, "scheduler (" + res.policy + ")");
  b.processSortIndex(kSchedulerPid, 0);

  const int n_nodes = static_cast<int>(res.node_bw_episodes.size());
  for (int nd = 0; nd < n_nodes; ++nd) {
    b.processName(nodePid(nd), "node " + std::to_string(nd));
    b.processSortIndex(nodePid(nd), nd + 1);
    // Monitoring episodes as a stepped counter track; a closing zero sample
    // keeps the last step from extending forever in the UI.
    const auto& eps = res.node_bw_episodes[static_cast<std::size_t>(nd)];
    if (eps.empty()) {
      b.addCounter(nodePid(nd), "bandwidth (GB/s)", 0.0, 0.0);
    } else {
      for (std::size_t e = 0; e < eps.size(); ++e) {
        b.addCounter(nodePid(nd), "bandwidth (GB/s)",
                     static_cast<double>(e) * opts.episode_s, eps[e]);
      }
      b.addCounter(nodePid(nd), "bandwidth (GB/s)",
                   static_cast<double>(eps.size()) * opts.episode_s, 0.0);
    }
  }

  // Per-node contention lanes: the flight recorder's retained co-residency
  // intervals, converted to a stepped counter of the instantaneous
  // attributed-deficit rate (slowdown seconds per second) of every job
  // bottlenecked on the node. Jobs iterate in ascending id and intervals
  // in time order, and the per-node sweep is a stable sort + same-instant
  // coalesce — the lane is deterministic for a deterministic recorder.
  if (opts.flight != nullptr) {
    std::vector<std::vector<std::pair<double, double>>> deltas(
        static_cast<std::size_t>(n_nodes));
    for (const flight::JobRollup& j : opts.flight->jobs()) {
      for (const flight::Interval& iv : j.intervals) {
        if (iv.node < 0 || iv.node >= n_nodes || iv.t1 <= iv.t0) continue;
        const double rate = iv.deficit / (iv.t1 - iv.t0);
        if (rate == 0.0) continue;
        auto& d = deltas[static_cast<std::size_t>(iv.node)];
        d.emplace_back(iv.t0, rate);
        d.emplace_back(iv.t1, -rate);
      }
    }
    for (int nd = 0; nd < n_nodes; ++nd) {
      auto& d = deltas[static_cast<std::size_t>(nd)];
      if (d.empty()) continue;
      std::stable_sort(d.begin(), d.end(),
                       [](const auto& a, const auto& b) { return a.first < b.first; });
      double level = 0.0;
      for (std::size_t i = 0; i < d.size();) {
        const double t = d[i].first;
        for (; i < d.size() && d[i].first == t; ++i) level += d[i].second;
        b.addCounter(nodePid(nd), "interference (slowdown s/s)", t,
                     std::max(level, 0.0));
      }
    }
  }

  // Jobs as duration slices, one lane per job inside each node it touched
  // (lanes never nest, so concurrent residents stay readable).
  for (const auto& j : res.jobs) {
    if (!j.completed()) continue;
    util::Json::Object args;
    args["program"] = j.spec.program;
    args["procs"] = j.spec.procs;
    args["nodes"] = j.placement.nodeCount();
    args["procs_per_node"] = j.placement.procs_per_node;
    args["ways"] = j.placement.ways;
    args["scale_factor"] = j.placement.scale_factor;
    args["exclusive"] = j.placement.exclusive;
    args["bw_reserved_gbps"] = j.placement.bw_gbps;
    args["submit_s"] = j.submit;
    args["wait_s"] = j.waitTime();
    const int tid = static_cast<int>(j.id) + 1;
    for (int nd : j.placement.nodes) {
      b.threadName(nodePid(nd), tid, "job " + std::to_string(j.id));
      b.addSlice(nodePid(nd), tid, j.start, j.finish, jobLabel(j), args);
    }
  }

  // Decision anatomy: the xray tracer's retained spans as nested duration
  // slices under the scheduler process, one lane per nesting depth so the
  // span tree reads as a flame. Each event step anchors at its virtual
  // time; within a step, real nanoseconds map 1:1 onto the virtual axis (a
  // 500 us decision renders as a 500 us flame at its scheduling point).
  if (opts.xray != nullptr && !opts.xray->records().empty()) {
    constexpr int kSpanLaneBase = 100;
    bool named_depths[32] = {};
    for (const xray::SpanRecord& s : opts.xray->records()) {
      const int lane = kSpanLaneBase + static_cast<int>(s.depth);
      if (s.depth < 32 && !named_depths[s.depth]) {
        named_depths[s.depth] = true;
        b.threadName(kSchedulerPid, lane,
                     "decision anatomy (depth " + std::to_string(s.depth) + ")");
      }
      util::Json::Object args;
      args["step"] = util::Json(static_cast<std::int64_t>(s.unit));
      if (s.job >= 0) args["job"] = util::Json(s.job);
      b.addSlice(kSchedulerPid, lane,
                 s.sim_time + static_cast<double>(s.t0_ns) / 1e9,
                 s.sim_time + static_cast<double>(s.t1_ns) / 1e9,
                 to_string(s.kind), std::move(args));
    }
  }

  // Decision log: instant markers grouped by event type, plus the queue
  // depth reconstructed from submit/start pairs.
  std::size_t first_instant = 0;
  if (opts.max_instants > 0 && events.size() > opts.max_instants) {
    first_instant = events.size() - opts.max_instants;
  }
  long queue_depth = 0;
  bool named_lanes[16] = {};
  for (std::size_t i = 0; i < events.size(); ++i) {
    const obs::Event& e = events[i];
    if (e.type == obs::EventType::kJobSubmitted) {
      b.addCounter(kSchedulerPid, "queue depth", e.time,
                   static_cast<double>(++queue_depth));
    } else if (e.type == obs::EventType::kJobStarted) {
      b.addCounter(kSchedulerPid, "queue depth", e.time,
                   static_cast<double>(--queue_depth));
    }
    if (i < first_instant) continue;
    const int lane = static_cast<int>(e.type) + 1;
    if (!named_lanes[static_cast<std::size_t>(e.type)]) {
      named_lanes[static_cast<std::size_t>(e.type)] = true;
      b.threadName(kSchedulerPid, lane, to_string(e.type));
    }
    b.addInstant(kSchedulerPid, lane, e.time, to_string(e.type),
                 toJson(e).asObject());
  }

  return b.build();
}

void writePerfettoFile(const std::string& path, const SimResult& res,
                       std::span<const obs::Event> events,
                       const TraceExportOptions& opts) {
  std::ofstream os(path);
  SNS_REQUIRE(os.good(), "cannot open trace output file: " + path);
  os << exportPerfetto(res, events, opts).dump() << '\n';
  SNS_REQUIRE(os.good(), "failed writing trace output file: " + path);
}

}  // namespace sns::sim
