// Simulator scalability harness: replays the Fig 20 synthetic trace on
// growing cluster sizes (4K -> 32K nodes) and reports how the simulator
// itself scales — simulated events per wall-clock second and the
// scheduler's placement-decision latency (mean / p99 of sim.decision_us).
// Cells run serially on purpose: latency numbers from runs sharing cores
// would measure the scheduler's neighbours, not the scheduler.
//
// Results are printed as a table and written to BENCH_sim_scale.json in
// the working directory (CI runs this from the repo root and checks the
// file against bench/baselines/sim_scale.json), so scalability
// regressions show up as a diffable artifact.
//
// Flags:
//   --quick       CI-sized trace (700 jobs instead of 7044)
//   --phases      attach the xray tracer (every event step timed,
//                 provenance off) and print its span table per cell (adds
//                 clock-read overhead and disables the futile-pass gate;
//                 attribution runs only). Unlike `uberun hotpath` this
//                 keeps the batched fast path engaged — no event sink is
//                 attached.
//   --nodes CSV   cluster sizes to run (default 4096,8192,16384,32768)
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/trace/replay.hpp"
#include "sns/util/json.hpp"
#include "sns/xray/span.hpp"

namespace {

double counterValue(const sns::obs::Registry& m, const char* name) {
  const sns::obs::Counter* c = m.findCounter(name);
  return c != nullptr ? c->value() : 0.0;
}

std::vector<int> parseNodes(const std::string& csv) {
  std::vector<int> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stoi(tok));
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sns;
  bool quick = false;
  bool phases = false;
  std::vector<int> cluster_sizes = {4096, 8192, 16384, 32768};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--phases") == 0) {
      phases = true;
    } else if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      cluster_sizes = parseNodes(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--phases] [--nodes CSV]\n",
                   argv[0]);
      return 2;
    }
  }

  snsbench::Env env;

  trace::TraceGenParams params;
  if (quick) {
    params.jobs = 700;
    params.horizon_hours = 190.0;
  }
  util::Rng trace_rng(0x7417177);
  const auto raw_trace = trace::generateTrace(trace_rng, params);

  const double ratio = 0.9;
  util::Rng map_rng(static_cast<std::uint64_t>(ratio * 1000));
  const auto jobs = trace::mapTraceToJobs(map_rng, raw_trace, ratio,
                                          env.est().machine().cores);
  const auto db = trace::synthesizeTraceProfiles(env.db(), 16, jobs, env.est());

  std::printf("=== simulator scalability: events/sec and placement latency ===\n");
  std::printf("trace: %zu jobs over %.0f hours, scaling ratio %.1f\n\n",
              jobs.size(), params.horizon_hours, ratio);

  const std::vector<sched::PolicyKind> policies = {sched::PolicyKind::kCE,
                                                   sched::PolicyKind::kSNS};

  util::Table t({"nodes", "policy", "wall s", "events", "events/s",
                 "event us", "decision mean us", "decision p99 us",
                 "memo hit %", "cache hit %", "select hit %", "spec skips",
                 "futile skips", "active hwm"});
  util::Json::Array results;
  for (int nodes : cluster_sizes) {
    for (sched::PolicyKind policy : policies) {
      obs::Registry metrics;
      sim::SimConfig cfg;
      cfg.nodes = nodes;
      cfg.policy = policy;
      cfg.monitor_episode_s = 0.0;  // match trace::simulateTrace
      cfg.age_limit_s = 14.0 * 86400.0;
      cfg.max_queue_scan = 256;
      cfg.metrics = &metrics;
      xray::Tracer tracer(xray::TracerConfig{.provenance = false});
      if (phases) cfg.xray = &tracer;
      sim::ClusterSimulator sim(env.est(), env.lib(), db, cfg);

      const auto t0 = std::chrono::steady_clock::now();
      const sim::SimResult res = sim.run(jobs);
      const auto t1 = std::chrono::steady_clock::now();
      const double wall_s = std::chrono::duration<double>(t1 - t0).count();
      if (phases) {
        std::printf("--- phases: %d nodes, %s ---\n%s\n", nodes,
                    res.policy.c_str(), tracer.renderTable().c_str());
      }

      // Every queue event the simulator processed: submissions, starts
      // and completions all pop the event loop.
      const double events = counterValue(metrics, "sim.jobs_submitted") +
                            counterValue(metrics, "sim.jobs_started") +
                            counterValue(metrics, "sim.jobs_finished");
      const double events_per_s = wall_s > 0.0 ? events / wall_s : 0.0;
      // Mean wall-clock cost per simulated event — the reciprocal view of
      // events_per_sec that the regression gate tracks (a flat event cost
      // across active-set sizes is the O(log n) engine's core claim).
      const double event_us_mean = events > 0.0 ? wall_s * 1e6 / events : 0.0;
      const obs::Gauge* hwm_gauge = metrics.findGauge("sim.active_jobs_hwm");
      const double active_hwm = hwm_gauge != nullptr ? hwm_gauge->value() : 0.0;
      const double futile_skips = counterValue(metrics, "sim.futile_pass_skips");
      const obs::Histogram* dec = metrics.findHistogram("sim.decision_us");
      const double dec_mean = dec != nullptr ? dec->mean() : 0.0;
      const double dec_p99 = dec != nullptr ? dec->quantile(0.99) : 0.0;
      const double solver_calls = counterValue(metrics, "sim.solver_calls");
      const double memo_hits = counterValue(metrics, "sim.solver_memo_hits");
      const double memo_pct =
          solver_calls > 0.0 ? 100.0 * memo_hits / solver_calls : 0.0;
      // SolverCache publishes its own counters through the registry
      // (solver.cache.*): unlike sim.solver_memo_hits — one per re-solved
      // node — these count individual cache lookups, including the
      // same-signature fast path, and whole-cache eviction wipes.
      const double cache_hits = counterValue(metrics, "solver.cache.hits");
      const double cache_misses = counterValue(metrics, "solver.cache.misses");
      const double cache_evictions =
          counterValue(metrics, "solver.cache.evictions");
      const double cache_hit_pct =
          cache_hits + cache_misses > 0.0
              ? 100.0 * cache_hits / (cache_hits + cache_misses)
              : 0.0;
      // Fast-decision-path attribution: ledger selection-cache reuse and
      // failed-spec skips.
      const double sel_hits = counterValue(metrics, "sim.select_cache_hits");
      const double sel_misses = counterValue(metrics, "sim.select_cache_misses");
      const double sel_hit_pct =
          sel_hits + sel_misses > 0.0
              ? 100.0 * sel_hits / (sel_hits + sel_misses)
              : 0.0;
      const double spec_skips = counterValue(metrics, "sim.spec_skips");

      const std::string policy_name = res.policy;
      t.addRow({std::to_string(nodes), policy_name, util::fmt(wall_s, 3),
                util::fmt(events, 0), util::fmt(events_per_s, 0),
                util::fmt(event_us_mean, 1), util::fmt(dec_mean, 1),
                util::fmt(dec_p99, 1), util::fmt(memo_pct, 1),
                util::fmt(cache_hit_pct, 1), util::fmt(sel_hit_pct, 1),
                util::fmt(spec_skips, 0), util::fmt(futile_skips, 0),
                util::fmt(active_hwm, 0)});

      util::Json row;
      row["nodes"] = nodes;
      row["policy"] = policy_name;
      row["wall_s"] = wall_s;
      row["events"] = events;
      row["events_per_sec"] = events_per_s;
      row["event_us_mean"] = event_us_mean;
      row["active_jobs_hwm"] = active_hwm;
      row["futile_pass_skips"] = futile_skips;
      row["decision_us_mean"] = dec_mean;
      row["decision_us_p99"] = dec_p99;
      row["solver_calls"] = solver_calls;
      row["solver_memo_hits"] = memo_hits;
      row["solver_cache_hits"] = cache_hits;
      row["solver_cache_misses"] = cache_misses;
      row["solver_cache_evictions"] = cache_evictions;
      row["select_cache_hits"] = sel_hits;
      row["select_cache_misses"] = sel_misses;
      row["spec_skips"] = spec_skips;
      row["jobs_completed"] = counterValue(metrics, "sim.jobs_finished");
      row["mean_turnaround_s"] = res.meanTurnaround();
      results.push_back(std::move(row));

      std::fprintf(stderr, "done %dK nodes, %s\n", nodes / 1024,
                   policy_name.c_str());
    }
  }
  std::printf("%s\n", t.render().c_str());

  util::Json out;
  out["bench"] = "sim_scale";
  out["quick"] = quick;
  out["trace_jobs"] = jobs.size();
  out["scaling_ratio"] = ratio;
  out["results"] = util::Json(std::move(results));
  std::ofstream f("BENCH_sim_scale.json");
  f << out.dump(2) << "\n";
  f.close();
  std::printf("wrote BENCH_sim_scale.json (%zu cells)\n",
              cluster_sizes.size() * policies.size());
  return 0;
}
