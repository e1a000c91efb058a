// Observer overhead: one harness for every observer the simulator accepts.
// Replays the 700-job Fig-20 synthetic trace on 4,096 nodes under SNS (the
// scale the paper's deployment section targets) with all observers off,
// then with each observer attached on its own:
//
//   obs           RingBufferLog sink + metrics Registry
//   telemetry     sampler + SLO watchdog at the CLI's 600 s trace period
//   xray_sampled  xray tracer timing every 32nd event step, provenance on
//                 (the `uberun report` / production mode)
//   xray_full     xray tracer timing every step, provenance on (the
//                 `uberun hotpath` debug mode)
//   flight        interference flight recorder
//
// Each rep runs the shared "all off" replay and then every variant, so
// machine drift hits all of them equally. A variant's overhead is its
// minimum over reps against the minimum "all off" run: the minimum is the
// run least disturbed by the machine, the honest basis for a relative
// gate.
//
// Results go to BENCH_observer_overhead.json; `check_perf_regression.py
// --observer-overhead` holds the gated variants (telemetry, xray_sampled,
// flight) to a 10% budget. That is wide enough that min-of-reps noise on
// shared runners never flakes, and tight enough to catch an accidental
// always-on clock read at a span site, an O(nodes) sample rebuild or a
// full re-solve in the settle path. obs and xray_full are reported, not
// gated: they pay per-event construction and per-span clock reads by
// design.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "common.hpp"
#include "sns/flight/flight.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/telemetry/sampler.hpp"
#include "sns/trace/replay.hpp"
#include "sns/util/json.hpp"
#include "sns/util/stats.hpp"
#include "sns/xray/span.hpp"

namespace {

using namespace sns;
using Clock = std::chrono::steady_clock;

struct Variant {
  const char* name;   ///< JSON key, matched by the gate
  const char* label;  ///< table row
};

constexpr Variant kVariants[] = {
    {"obs", "RingBufferLog + Registry"},
    {"telemetry", "sampler + SLO watchdog (600 s)"},
    {"xray_sampled", "xray sampled (1/32 steps, provenance)"},
    {"xray_full", "xray full (every step, provenance)"},
    {"flight", "flight recorder"},
};

/// Every observer a variant may attach, fresh for one replay.
struct Observers {
  explicit Observers(int sample_period)
      : sampler(store, telemetry::SamplerConfig{.period_s = 600.0}),
        tracer(xray::TracerConfig{.sample_period = sample_period}) {
    sampler.attachWatchdog(&watchdog);
  }

  obs::RingBufferLog log{1 << 18};
  obs::Registry metrics;
  telemetry::TimeSeriesStore store{512};
  telemetry::SloWatchdog watchdog{telemetry::SloWatchdog::defaultRules()};
  telemetry::Sampler sampler;
  xray::Tracer tracer;
  flight::FlightRecorder flight;
};

struct TraceSetup {
  std::vector<app::JobSpec> jobs;
  profile::ProfileDatabase db;
};

/// One replay with the named variant attached (null: all off). Returns
/// wall ms; `work_out` receives how much the observer recorded, so every
/// instrumented run stays observable.
double replayOnce(const snsbench::Env& env, const TraceSetup& ts,
                  const Variant* v, std::uint64_t* work_out) {
  const std::string name = v != nullptr ? v->name : "";
  Observers o(name == "xray_sampled" ? 32 : 1);

  sim::SimConfig cfg;
  cfg.nodes = 4096;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.monitor_episode_s = 0.0;
  cfg.age_limit_s = 14.0 * 86400.0;
  cfg.max_queue_scan = 256;
  if (name == "obs") {
    cfg.sink = &o.log;
    cfg.metrics = &o.metrics;
  } else if (name == "telemetry") {
    cfg.sampler = &o.sampler;
  } else if (name.starts_with("xray")) {
    cfg.xray = &o.tracer;
  } else if (name == "flight") {
    cfg.flight = &o.flight;
  }
  sim::ClusterSimulator sim(env.est(), env.lib(), ts.db, cfg);

  const auto t0 = Clock::now();
  const auto res = sim.run(ts.jobs);
  const auto t1 = Clock::now();
  if (res.jobs.empty()) std::abort();  // keep the loop observable
  if (name == "obs") *work_out = o.log.totalRecorded();
  if (name == "telemetry") *work_out = o.sampler.ticks();
  if (name.starts_with("xray")) *work_out = o.tracer.sampledSteps();
  if (name == "flight") *work_out = o.flight.census().finished;
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  snsbench::Env env;

  TraceSetup ts;
  {
    trace::TraceGenParams params;
    params.jobs = 700;
    params.horizon_hours = 1900.0 * params.jobs / 7044.0;
    util::Rng trace_rng(0x7417177);
    const auto raw = trace::generateTrace(trace_rng, params);
    const double ratio = 0.9;
    util::Rng map_rng(static_cast<std::uint64_t>(ratio * 1000));
    ts.jobs = trace::mapTraceToJobs(map_rng, raw, ratio, env.est().machine().cores);
    ts.db = trace::synthesizeTraceProfiles(env.db(), 16, ts.jobs, env.est());
  }

  constexpr int kReps = 20;
  constexpr std::size_t kN = std::size(kVariants);
  std::vector<double> off_ms;
  std::vector<std::vector<double>> on_ms(kN);
  std::vector<std::uint64_t> work(kN, 0);
  std::uint64_t unused = 0;
  for (int r = 0; r < kReps; ++r) {
    // Rotate the run order every rep so no variant always runs first.
    for (std::size_t k = 0; k <= kN; ++k) {
      const std::size_t slot = (k + static_cast<std::size_t>(r)) % (kN + 1);
      if (slot == kN) {
        off_ms.push_back(replayOnce(env, ts, nullptr, &unused));
      } else {
        on_ms[slot].push_back(replayOnce(env, ts, &kVariants[slot], &work[slot]));
      }
    }
  }

  const double off = util::minOf(off_ms);
  std::printf("=== observer overhead: Fig-20 trace, %zu jobs on 4096 nodes, "
              "SNS, %d reps ===\n\n",
              ts.jobs.size(), kReps);
  util::Table t(
      {"variant", "mean (ms)", "min (ms)", "vs all off (min)", "recorded"});
  t.addRow({"all off", util::fmt(util::mean(off_ms), 1), util::fmt(off, 1), "-",
            "-"});
  util::Json::Array variants;
  for (std::size_t i = 0; i < kN; ++i) {
    const double min_ms = util::minOf(on_ms[i]);
    const double over = min_ms / off - 1.0;
    t.addRow({kVariants[i].label, util::fmt(util::mean(on_ms[i]), 1),
              util::fmt(min_ms, 1), util::fmtPct(over), std::to_string(work[i])});
    util::Json v;
    v["name"] = util::Json(kVariants[i].name);
    v["min_ms"] = util::Json(min_ms);
    v["overhead"] = util::Json(over);
    v["recorded"] = util::Json(static_cast<std::int64_t>(work[i]));
    variants.push_back(std::move(v));
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("recorded: events (obs), sampler ticks (telemetry), traced "
              "event steps (xray), finished jobs (flight)\n");

  util::Json out;
  out["bench"] = util::Json("observer_overhead");
  out["trace_jobs"] = util::Json(static_cast<std::int64_t>(ts.jobs.size()));
  out["nodes"] = util::Json(4096);
  out["policy"] = util::Json("SNS");
  out["reps"] = util::Json(kReps);
  out["off_min_ms"] = util::Json(off);
  out["variants"] = util::Json(std::move(variants));
  std::ofstream f("BENCH_observer_overhead.json");
  f << out.dump(2) << "\n";
  f.close();
  std::printf("wrote BENCH_observer_overhead.json\n");
  return 0;
}
