// uberun — command-line front end to the Spread-n-Share reproduction.
//
//   uberun programs                           list the workload set
//   uberun profile   [--procs N] [--noise S] [--out db.json] [PROG...]
//   uberun generate  [--jobs N] [--seed S] [--alpha A] --out jobs.json
//   uberun simulate  --jobs jobs.json [--policy CE|CS|SNS] [--nodes N]
//                    [--db db.json] [--online] [--mba] [--network]
//   uberun plan      --job PROG[:PROCS[:ALPHA]] [--db db.json]
//   uberun trace     [--cluster N] [--ratio R] [--jobs N] [--policy P]
//   uberun trace     --workload quickstart|random|FILE [--policy P] [--nodes N]
//                    [--out trace.perfetto.json] [--online] [--mba] [--anatomy]
//   uberun metrics   [--workload quickstart|random|fig20|FILE] [--policy P]
//                    [--nodes N] [--period S] [--budget N] [--out FILE]
//   uberun report    [same as metrics] [--out report.html] [--enforce-slo]
//                    [--audit]
//   uberun top       [same as metrics] [--at T]
//   uberun audit     [same as metrics] [--keep-going]
//   uberun explain   [same as metrics] [--job J]
//   uberun hotpath   [same as metrics] [--sample N] [--folded FILE]
//   uberun why-slow  [same as metrics] [--job J] [--limit N]
//
// Numeric options are parsed whole: counts (--nodes, --cluster, --procs,
// --sample, --budget, --candidates, --limit, and --jobs where it is a
// number) must be integers > 0, --seed and --job integers >= 0; anything
// else is a usage error naming the option and the value. In `plan --job
// PROG[:PROCS[:ALPHA]]`, PROCS must be an integer > 0 and ALPHA a number in
// (0, 1].
//
// The telemetry subcommands (metrics / report / top) run the workload with
// the sns::telemetry stack attached — periodic cluster sampling and SLO
// watchdogs — then export the series as
// Prometheus text, a self-contained HTML dashboard, or a terminal view of
// the cluster at one instant. SLO thresholds: --slo-decision-us,
// --slo-starvation-s, --slo-collapse.
//
// `uberun explain` replays a workload with the sns::xray provenance store
// attached and answers "why did job J land where it did": the scale-factor
// walk with per-step rejection reasons, the winning nodes with their
// Co + Bo + beta x Wo score breakdown, and the contention solves credited
// to the placement. Without --job it prints a one-line-per-job index.
//
// `uberun hotpath` replays a workload with the sns::xray tracer timing
// every event-loop step (--sample N times every Nth) and prints the
// aggregated cost attribution: per-span calls / self time / p50 / p99,
// folded stacks (--folded FILE writes them for flamegraph.pl), and two
// reconciliation lines: the decision span mean against the simulator's own
// decision-latency metric, and the attributed self time against the run's
// wall time.
//
// `uberun why-slow` replays a workload with the sns::flight interference
// flight recorder attached and answers "why did job J finish slower than
// solo": stretch vs the 1/alpha degradation bound, the queue-wait / solo /
// interference split of end-to-end latency, per-resource attribution
// (LLC ways / memory bandwidth / network) and the co-runners that caused
// it. Without --job it prints the degradation-bound census plus the most
// degraded jobs.
//
// `uberun audit` replays a workload with the sns::audit invariant auditor
// attached: at every scheduling point the ledger's cached occupancy totals
// and idle-core buckets, the queue's tombstone accounting, and the solver
// cache's signature consistency are cross-validated against full
// recomputation (fail-fast by default; --keep-going accumulates). `--audit`
// on report/trace attaches the same auditor in accumulate mode and folds
// the outcome into the HTML report / trace summary.
//
// Exit status: 0 on success, 1 on usage errors, 2 on runtime errors,
// 4 when --enforce-slo is set and an SLO rule fired, 5 when the invariant
// auditor found a violation.
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sns/app/jobspec_io.hpp"
#include "sns/app/library.hpp"
#include "sns/audit/audit.hpp"
#include "sns/flight/report.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/profile/demand.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/sim/metrics.hpp"
#include "sns/sim/result_io.hpp"
#include "sns/sim/trace_export.hpp"
#include "sns/telemetry/export.hpp"
#include "sns/telemetry/sampler.hpp"
#include "sns/trace/replay.hpp"
#include "sns/trace/swf.hpp"
#include "sns/uberun/launch_plan.hpp"
#include "sns/util/stats.hpp"
#include "sns/util/table.hpp"
#include "sns/xray/explain.hpp"
#include "sns/xray/span.hpp"

namespace {

using namespace sns;

/// A malformed command line: main() prints it and exits 1.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::vector<std::string> positional;
  std::map<std::string, std::string> options;
  std::map<std::string, bool> flags;

  static Args parse(int argc, char** argv, const std::vector<std::string>& flag_names) {
    Args a;
    for (int i = 2; i < argc; ++i) {
      std::string tok = argv[i];
      if (tok.rfind("--", 0) == 0) {
        const std::string name = tok.substr(2);
        if (std::find(flag_names.begin(), flag_names.end(), name) !=
            flag_names.end()) {
          a.flags[name] = true;
        } else if (i + 1 < argc) {
          a.options[name] = argv[++i];
        } else {
          throw UsageError("option --" + name + " needs a value");
        }
      } else {
        a.positional.push_back(tok);
      }
    }
    return a;
  }

  std::string get(const std::string& key, const std::string& dflt) const {
    auto it = options.find(key);
    return it == options.end() ? dflt : it->second;
  }
  /// A finite real number; the whole value must parse.
  double num(const std::string& key, double dflt) const {
    auto it = options.find(key);
    if (it == options.end()) return dflt;
    const std::string& s = it->second;
    double v = 0.0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size() ||
        !std::isfinite(v)) {
      throw UsageError("--" + key + ": expected a number, got '" + s + "'");
    }
    return v;
  }
  /// An integer >= `min`; the whole value must parse.
  std::int64_t integer(const std::string& key, std::int64_t dflt,
                       std::int64_t min) const {
    auto it = options.find(key);
    if (it == options.end()) return dflt;
    const std::string& s = it->second;
    std::int64_t v = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (s.empty() || ec != std::errc() || end != s.data() + s.size() || v < min) {
      throw UsageError("--" + key + ": expected an integer >= " +
                       std::to_string(min) + ", got '" + s + "'");
    }
    return v;
  }
  /// A count: an integer > 0 that fits an int.
  int count(const std::string& key, int dflt) const {
    const std::int64_t v = integer(key, dflt, 1);
    if (v > std::numeric_limits<int>::max()) {
      throw UsageError("--" + key + ": " + std::to_string(v) + " is too large");
    }
    return static_cast<int>(v);
  }
  /// A seed or job id: an integer >= 0.
  std::int64_t index(const std::string& key, std::int64_t dflt) const {
    return integer(key, dflt, 0);
  }
  bool flag(const std::string& key) const {
    auto it = flags.find(key);
    return it != flags.end() && it->second;
  }
};

sched::PolicyKind parsePolicy(const std::string& s) {
  if (s == "CE" || s == "ce") return sched::PolicyKind::kCE;
  if (s == "CS" || s == "cs") return sched::PolicyKind::kCS;
  if (s == "SNS" || s == "sns") return sched::PolicyKind::kSNS;
  throw util::DataError("unknown policy: " + s + " (expected CE, CS or SNS)");
}

struct World {
  perfmodel::Estimator est;
  std::vector<app::ProgramModel> lib;

  World() : lib(app::programLibrary()) {
    for (auto& p : lib) est.calibrate(p);
  }
};

profile::ProfileDatabase loadOrBuildDb(const World& w, const Args& a) {
  const std::string path = a.get("db", "");
  if (!path.empty()) return profile::ProfileDatabase::loadFile(path);
  profile::ProfilerConfig cfg;
  cfg.pmu_noise = a.num("noise", 0.02);
  profile::Profiler prof(w.est, cfg);
  profile::ProfileDatabase db;
  for (const auto& p : w.lib) {
    db.put(prof.profileProgram(p, 16));
    if (!p.pow2_procs && p.multi_node) db.put(prof.profileProgram(p, 28));
  }
  return db;
}

int cmdPrograms(const World& w) {
  util::Table t({"program", "framework", "ref time (s)", "multi-node",
                 "pow2 procs"});
  for (const auto& p : w.lib) {
    t.addRow({p.name, to_string(p.framework), util::fmt(p.solo_time_ref, 0),
              p.multi_node ? "yes" : "no", p.pow2_procs ? "yes" : "no"});
  }
  std::printf("%s", t.render().c_str());
  return 0;
}

int cmdProfile(const World& w, const Args& a) {
  const int procs = a.count("procs", 16);
  profile::ProfilerConfig cfg;
  cfg.pmu_noise = a.num("noise", 0.02);
  profile::Profiler prof(w.est, cfg);

  std::vector<std::string> targets = a.positional;
  if (targets.empty()) targets = app::programNames();

  profile::ProfileDatabase db;
  util::Table t({"program", "class", "ideal k", "w (a=0.9)", "b (GB/s)"});
  for (const auto& name : targets) {
    const auto& p = app::findProgram(w.lib, name);
    const int use_procs = p.multi_node || procs <= p.ref_procs ? procs : p.ref_procs;
    auto pp = prof.profileProgram(p, use_procs);
    const auto d = profile::estimateDemand(*pp.at(1), 0.9, w.est.machine());
    t.addRow({name, to_string(pp.cls), std::to_string(pp.ideal_scale) + "x",
              std::to_string(d.ways), util::fmt(d.bw_gbps, 1)});
    db.put(std::move(pp));
  }
  std::printf("%s", t.render().c_str());

  const std::string out = a.get("out", "");
  if (!out.empty()) {
    db.saveFile(out);
    std::printf("\nwrote %zu profiles to %s\n", db.size(), out.c_str());
  }
  return 0;
}

int cmdGenerate(const World& w, const Args& a) {
  const std::string out = a.get("out", "");
  if (out.empty()) throw util::DataError("generate needs --out FILE");
  util::Rng rng(static_cast<std::uint64_t>(a.index("seed", 2019)));
  const auto seq =
      app::randomSequence(rng, w.lib, a.count("jobs", 20), a.num("alpha", 0.9));
  app::saveJobList(out, seq);
  std::printf("wrote %zu jobs to %s\n", seq.size(), out.c_str());
  return 0;
}

int cmdSimulate(const World& w, const Args& a) {
  const std::string jobs_path = a.get("jobs", "");
  if (jobs_path.empty()) throw util::DataError("simulate needs --jobs FILE");
  const auto jobs = app::loadJobList(jobs_path);
  const auto db = loadOrBuildDb(w, a);

  sim::SimConfig cfg;
  cfg.nodes = a.count("nodes", 8);
  cfg.policy = parsePolicy(a.get("policy", "SNS"));
  cfg.online_profiling = a.flag("online");
  cfg.enforce_bandwidth_caps = a.flag("mba");
  cfg.sns.manage_network = a.flag("network");
  sim::ClusterSimulator sim(w.est, w.lib, db, cfg);
  const auto res = sim.run(jobs);

  util::Table t({"job", "program", "procs", "nodes", "ways", "wait (s)",
                 "run (s)", "turnaround (s)"});
  for (const auto& j : res.jobs) {
    t.addRow({std::to_string(j.id), j.spec.program, std::to_string(j.spec.procs),
              std::to_string(j.placement.nodeCount()),
              std::to_string(j.placement.ways), util::fmt(j.waitTime(), 1),
              util::fmt(j.runTime(), 1), util::fmt(j.turnaround(), 1)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("policy %s: makespan %.1f s, mean turnaround %.1f s, "
              "throughput %.6f jobs/s, node-seconds %.0f\n",
              res.policy.c_str(), res.makespan, res.meanTurnaround(),
              res.throughput(), res.busy_node_seconds);
  const std::string out = a.get("out", "");
  if (!out.empty()) {
    sim::saveResult(out, res);
    std::printf("wrote schedule to %s\n", out.c_str());
  }
  return 0;
}

int cmdPlan(const World& w, const Args& a) {
  const std::string job_str = a.get("job", "");
  if (job_str.empty()) throw util::DataError("plan needs --job PROG[:PROCS[:ALPHA]]");
  std::string name = job_str;
  int procs = 16;
  double alpha = 0.9;
  if (auto c1 = job_str.find(':'); c1 != std::string::npos) {
    name = job_str.substr(0, c1);
    const std::string rest = job_str.substr(c1 + 1);
    const auto c2 = rest.find(':');
    const std::string procs_str = rest.substr(0, c2);
    const auto [pend, pec] = std::from_chars(
        procs_str.data(), procs_str.data() + procs_str.size(), procs);
    if (procs_str.empty() || pec != std::errc() ||
        pend != procs_str.data() + procs_str.size() || procs <= 0) {
      throw UsageError("--job: PROCS must be an integer > 0, got '" +
                       job_str + "'");
    }
    if (c2 != std::string::npos) {
      const std::string alpha_str = rest.substr(c2 + 1);
      const auto [aend, aec] = std::from_chars(
          alpha_str.data(), alpha_str.data() + alpha_str.size(), alpha);
      if (alpha_str.empty() || aec != std::errc() ||
          aend != alpha_str.data() + alpha_str.size() ||
          !(alpha > 0.0 && alpha <= 1.0)) {
        throw UsageError("--job: ALPHA must be a number in (0, 1], got '" +
                         job_str + "'");
      }
    }
  }

  auto db = loadOrBuildDb(w, a);
  const int nodes = a.count("nodes", 8);
  actuator::ResourceLedger ledger(nodes, w.est.machine());

  sched::Job job;
  job.id = 1;
  job.spec.program = name;
  job.spec.procs = procs;
  job.spec.alpha = alpha;
  job.program = &app::findProgram(w.lib, name);

  sched::SnsPolicy policy(w.est);
  const auto placement = policy.tryPlace(job, ledger, db);
  if (!placement.has_value()) {
    std::printf("no feasible placement\n");
    return 2;
  }

  uberun::LaunchPlanner planner(nodes, w.est.machine());
  const auto plan = planner.materialize(job, *placement);
  std::printf("placement: %d node(s) x %d procs, %d LLC ways, %.1f GB/s "
              "bandwidth reserve\n\n",
              placement->nodeCount(), placement->procs_per_node, placement->ways,
              placement->bw_gbps);
  for (const auto& nl : plan.nodes) {
    std::printf("  %s: cores %s%s\n", nl.hostname.c_str(),
                uberun::cpuList(nl.cores).c_str(),
                nl.cat_mask ? ("  CAT " + actuator::CatMasker::toHex(nl.cat_mask)).c_str()
                            : "");
  }
  std::printf("\ncommands:\n");
  for (const auto& c : plan.commands) std::printf("  %s\n", c.c_str());
  return 0;
}

// `trace --workload ...`: run a small workload with the observability stack
// attached and export a Perfetto/Chrome trace plus a metrics summary.
int cmdTraceWorkload(const World& w, const Args& a) {
  const std::string workload = a.get("workload", "quickstart");
  std::vector<app::JobSpec> jobs;
  if (workload == "quickstart") {
    jobs = {
        {"MG", 16, 0.9, 0.0, 1, 0.0},
        {"NW", 16, 0.9, 0.0, 1, 0.0},
        {"HC", 16, 0.9, 0.0, 1, 0.0},
        {"EP", 16, 0.9, 0.0, 1, 0.0},
    };
  } else if (workload == "random") {
    util::Rng rng(static_cast<std::uint64_t>(a.index("seed", 2019)));
    jobs = app::randomSequence(rng, w.lib, a.count("jobs", 20), a.num("alpha", 0.9));
  } else {
    // Anything else is a job-list file written by `uberun generate`.
    jobs = app::loadJobList(workload);
  }

  const auto db = loadOrBuildDb(w, a);
  sim::SimConfig cfg;
  cfg.nodes = a.count("nodes", 8);
  cfg.policy = parsePolicy(a.get("policy", "SNS"));
  cfg.online_profiling = a.flag("online");
  cfg.enforce_bandwidth_caps = a.flag("mba");

  // --audit: cross-validate scheduler state at every decision point, in
  // accumulate mode so the trace still gets written with the violations
  // embedded as audit_violation instants.
  audit::Auditor auditor;
  if (a.flag("audit")) cfg.auditor = &auditor;

  // --anatomy: retain per-span decision records and render them as nested
  // "decision anatomy" lanes under the scheduler process in the trace.
  xray::TracerConfig xcfg;
  xcfg.keep_records = true;
  xray::Tracer tracer(xcfg);
  if (a.flag("anatomy")) cfg.xray = &tracer;

  // The flight recorder rides every exported trace: its retained
  // co-residency intervals become per-node "interference (slowdown s/s)"
  // counter lanes (results stay bit-identical with it attached).
  flight::FlightRecorder recorder;
  cfg.flight = &recorder;

  obs::RingBufferLog log;
  obs::Registry metrics;
  cfg.sink = &log;
  cfg.metrics = &metrics;
  sim::ClusterSimulator sim(w.est, w.lib, db, cfg);
  const auto res = sim.run(jobs);

  const auto events = log.snapshot();
  const std::string out = a.get("out", "trace.perfetto.json");
  sim::TraceExportOptions topts;
  if (a.flag("anatomy")) topts.xray = &tracer;
  topts.flight = &recorder;
  sim::writePerfettoFile(out, res, events, topts);

  std::map<std::string, std::size_t> by_type;
  for (const auto& e : events) ++by_type[obs::to_string(e.type)];
  util::Table et({"event type", "count"});
  for (const auto& [name, n] : by_type) et.addRow({name, std::to_string(n)});
  std::printf("%s policy on %d nodes: %zu jobs, makespan %.1f s\n\n",
              res.policy.c_str(), cfg.nodes, res.jobs.size(), res.makespan);
  std::printf("%s\n%s\n", et.render().c_str(), metrics.renderTable().c_str());
  if (log.dropped() > 0) {
    std::printf("(ring buffer dropped %zu oldest events)\n", log.dropped());
  }
  std::printf("wrote %zu trace events to %s — open in ui.perfetto.dev\n",
              events.size(), out.c_str());
  if (a.flag("audit")) {
    std::printf("\n%s", auditor.report().c_str());
    if (!auditor.ok()) return 5;
  }
  return 0;
}

int cmdTrace(const World& w, const Args& a) {
  if (a.options.count("workload") != 0) return cmdTraceWorkload(w, a);
  const int cluster = a.count("cluster", 4096);
  const double ratio = a.num("ratio", 0.9);
  // Either replay a real SWF trace (Parallel Workloads Archive format) or
  // generate the synthetic Trinity-like one.
  std::vector<trace::TraceJob> raw;
  const std::string swf = a.get("swf", "");
  if (!swf.empty()) {
    trace::SwfOptions sopts;
    sopts.cores_per_node = w.est.machine().cores;
    raw = trace::loadSwf(swf, sopts);
    std::printf("loaded %zu parallel jobs from %s\n", raw.size(), swf.c_str());
  } else {
    trace::TraceGenParams params;
    params.jobs = a.count("jobs", 700);
    params.horizon_hours = 1900.0 * params.jobs / 7044.0;
    util::Rng rng(static_cast<std::uint64_t>(a.index("seed", 0x7417177)));
    raw = trace::generateTrace(rng, params);
  }

  util::Rng map_rng(static_cast<std::uint64_t>(ratio * 1000));
  const auto jobs =
      trace::mapTraceToJobs(map_rng, raw, ratio, w.est.machine().cores);
  profile::ProfilerConfig pcfg;
  pcfg.pmu_noise = 0.02;
  profile::Profiler prof(w.est, pcfg);
  profile::ProfileDatabase db16;
  for (const auto& p : w.lib) db16.put(prof.profileProgram(p, 16));
  const auto db = trace::synthesizeTraceProfiles(db16, 16, jobs, w.est);

  const auto policy = parsePolicy(a.get("policy", "SNS"));
  const auto res = trace::simulateTrace(w.est, w.lib, db, jobs, cluster, policy);
  std::printf("%s on %d nodes, ratio %.2f: %zu jobs, mean wait %.0f s, mean "
              "run %.0f s, mean turnaround %.0f s\n",
              res.policy.c_str(), cluster, ratio, res.jobs.size(), res.meanWait(),
              res.meanRun(), res.meanTurnaround());
  return 0;
}

// ---- telemetry subcommands (metrics / report / top) -----------------------

/// Workload + database + scale defaults for one telemetry run.
struct TelemetryWorkload {
  std::vector<app::JobSpec> jobs;
  profile::ProfileDatabase db;
  std::string name;
  int default_nodes = 8;
  double default_period_s = 1.0;
  bool trace_scale = false;  ///< fig20: replay-style simulator knobs
};

TelemetryWorkload buildTelemetryWorkload(const World& w, const Args& a) {
  TelemetryWorkload wl;
  wl.name = a.get("workload", "quickstart");
  if (wl.name == "quickstart") {
    wl.jobs = {
        {"MG", 16, 0.9, 0.0, 1, 0.0},
        {"NW", 16, 0.9, 0.0, 1, 0.0},
        {"HC", 16, 0.9, 0.0, 1, 0.0},
        {"EP", 16, 0.9, 0.0, 1, 0.0},
    };
    wl.db = loadOrBuildDb(w, a);
  } else if (wl.name == "random") {
    util::Rng rng(static_cast<std::uint64_t>(a.index("seed", 2019)));
    wl.jobs = app::randomSequence(rng, w.lib, a.count("jobs", 20),
                                  a.num("alpha", 0.9));
    wl.db = loadOrBuildDb(w, a);
  } else if (wl.name == "fig20") {
    // The paper's Fig 20 setup: the synthetic Trinity-like trace mapped
    // onto the measured program set, replayed at cluster scale.
    trace::TraceGenParams params;
    params.jobs = a.count("jobs", 700);
    params.horizon_hours = 1900.0 * params.jobs / 7044.0;
    util::Rng rng(static_cast<std::uint64_t>(a.index("seed", 0x7417177)));
    const auto raw = trace::generateTrace(rng, params);
    const double ratio = a.num("ratio", 0.9);
    util::Rng map_rng(static_cast<std::uint64_t>(ratio * 1000));
    wl.jobs = trace::mapTraceToJobs(map_rng, raw, ratio, w.est.machine().cores);
    profile::ProfilerConfig pcfg;
    pcfg.pmu_noise = 0.02;
    profile::Profiler prof(w.est, pcfg);
    profile::ProfileDatabase db16;
    for (const auto& p : w.lib) db16.put(prof.profileProgram(p, 16));
    wl.db = trace::synthesizeTraceProfiles(db16, 16, wl.jobs, w.est);
    wl.default_nodes = 4096;
    wl.default_period_s = 600.0;  // trace horizon is weeks; 10 min ticks
    wl.trace_scale = true;
  } else {
    // Anything else is a job-list file written by `uberun generate`.
    wl.jobs = app::loadJobList(wl.name);
    wl.db = loadOrBuildDb(w, a);
  }
  return wl;
}

/// One workload run with the full telemetry stack attached. The members
/// reference each other (sampler -> store, watchdog -> recorder -> log),
/// so the struct is heap-allocated and immovable.
struct TelemetryRun {
  telemetry::TimeSeriesStore store;
  telemetry::SloWatchdog watchdog;
  telemetry::Sampler sampler;
  obs::Registry metrics;
  obs::RingBufferLog log;
  obs::Recorder slo_rec;  ///< routes watchdog violations into `log`
  /// Decision tracer + provenance store, when the subcommand asked for one
  /// (explain / hotpath / report). Null on plain metrics/top runs so the
  /// scheduler hot path stays untouched.
  std::unique_ptr<xray::Tracer> xray;
  /// Interference flight recorder, when the subcommand asked for one
  /// (why-slow / report). Null otherwise — attaching it is bit-identical
  /// for the schedule but costs extra solver lookups per settle point.
  std::unique_ptr<flight::FlightRecorder> flight;
  sim::SimResult result;
  double wall_s = 0.0;  ///< wall time of sim.run(), for hotpath reconciliation
  int nodes = 0;
  std::string workload;

  TelemetryRun(std::vector<telemetry::SloRule> rules, std::size_t budget,
               telemetry::SamplerConfig scfg)
      : store(budget), watchdog(std::move(rules)), sampler(store, scfg) {}

  /// Headline facts for report tiles and the terminal summary.
  std::vector<std::pair<std::string, std::string>> summaryTiles() const {
    return {
        {"policy", result.policy},
        {"nodes", std::to_string(nodes)},
        {"jobs", std::to_string(result.jobs.size())},
        {"makespan (s)", util::fmt(result.makespan, 1)},
        {"mean turnaround (s)", util::fmt(result.meanTurnaround(), 1)},
        {"sample ticks", std::to_string(sampler.ticks())},
        {"SLO episodes", std::to_string(watchdog.totalEpisodes())},
    };
  }
};

std::unique_ptr<TelemetryRun> runTelemetry(const World& w, const Args& a,
                                           audit::Auditor* auditor = nullptr,
                                           const xray::TracerConfig* xcfg = nullptr,
                                           bool with_flight = false) {
  auto wl = buildTelemetryWorkload(w, a);

  auto rules = telemetry::SloWatchdog::defaultRules();
  for (auto& r : rules) {
    using K = telemetry::SloRule::Kind;
    if (r.kind == K::kDecisionLatencyP99) {
      r.threshold = a.num("slo-decision-us", r.threshold);
    } else if (r.kind == K::kQueueStarvation) {
      r.threshold = a.num("slo-starvation-s", r.threshold);
    } else if (r.kind == K::kUtilizationCollapse) {
      r.threshold = a.num("slo-collapse", r.threshold);
    }
  }

  telemetry::SamplerConfig scfg;
  scfg.period_s = a.num("period", wl.default_period_s);
  const auto budget = static_cast<std::size_t>(a.count("budget", 512));

  auto run = std::make_unique<TelemetryRun>(std::move(rules), budget, scfg);
  run->workload = wl.name;
  run->slo_rec.setSink(&run->log);
  run->watchdog.setRecorder(&run->slo_rec);
  run->sampler.attachWatchdog(&run->watchdog);

  sim::SimConfig cfg;
  cfg.nodes = a.count("nodes", wl.default_nodes);
  cfg.policy = parsePolicy(a.get("policy", "SNS"));
  cfg.online_profiling = a.flag("online");
  cfg.enforce_bandwidth_caps = a.flag("mba");
  if (wl.trace_scale) {
    cfg.monitor_episode_s = 0.0;  // no per-node bw sampling at 4K nodes
    cfg.age_limit_s = 14.0 * 86400.0;
    cfg.max_queue_scan = 256;
  }
  cfg.sink = &run->log;
  cfg.metrics = &run->metrics;
  cfg.sampler = &run->sampler;
  cfg.auditor = auditor;
  if (xcfg != nullptr) {
    run->xray = std::make_unique<xray::Tracer>(*xcfg);
    cfg.xray = run->xray.get();
  }
  if (with_flight) {
    run->flight = std::make_unique<flight::FlightRecorder>();
    run->flight->attachMetrics(&run->metrics);
    cfg.flight = run->flight.get();
  }
  run->nodes = cfg.nodes;

  sim::ClusterSimulator sim(w.est, w.lib, wl.db, cfg);
  const auto t0 = std::chrono::steady_clock::now();
  run->result = sim.run(wl.jobs);
  run->wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
  return run;
}

/// Shared tail: print the watchdog summary (stderr keeps `uberun metrics`
/// stdout machine-clean) and map violations to exit 4 under --enforce-slo.
int finishTelemetry(const TelemetryRun& run, const Args& a) {
  std::fprintf(stderr, "%s", run.watchdog.renderSummary().c_str());
  if (run.watchdog.anyViolation()) {
    std::fprintf(stderr, "SLO: %llu violation episode(s)%s\n",
                 static_cast<unsigned long long>(run.watchdog.totalEpisodes()),
                 a.flag("enforce-slo") ? " — failing (--enforce-slo)" : "");
    if (a.flag("enforce-slo")) return 4;
  }
  return 0;
}

void writeOrPrint(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::printf("%s", text.c_str());
    return;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::DataError("cannot write " + path);
  out << text;
}

int cmdMetrics(const World& w, const Args& a) {
  // The flight recorder rides along so the sns_degradation_* gauges land in
  // the Prometheus exposition (schedule stays bit-identical with it on).
  auto run = runTelemetry(w, a, nullptr, nullptr, /*with_flight=*/true);
  writeOrPrint(a.get("out", ""),
               telemetry::renderPrometheus(&run->store, &run->metrics));
  return finishTelemetry(*run, a);
}

int cmdReport(const World& w, const Args& a) {
  // --audit: accumulate violations (never abort the run — the report is the
  // point) and surface them as a dedicated section + an extra tile.
  audit::Auditor auditor;
  const bool with_audit = a.flag("audit");
  // Ride a sampled decision tracer along every report run so the HTML gets
  // a "Decision anatomy" section without measurably perturbing the run
  // (provenance off — the report aggregates, it doesn't explain jobs).
  xray::TracerConfig xcfg;
  xcfg.sample_period = a.count("sample", 32);
  xcfg.provenance = false;
  auto run = runTelemetry(w, a, with_audit ? &auditor : nullptr, &xcfg,
                          /*with_flight=*/true);
  telemetry::ReportContext ctx;
  ctx.title = "uberun — " + run->result.policy + " on " +
              std::to_string(run->nodes) + " nodes (" + run->workload + ")";
  ctx.store = &run->store;
  ctx.metrics = &run->metrics;
  ctx.watchdog = &run->watchdog;
  ctx.summary = run->summaryTiles();
  ctx.events_dropped = run->log.dropped();
  if (run->xray != nullptr && run->xray->sampledPasses() > 0) {
    const obs::Histogram* dh = run->metrics.findHistogram("sim.decision_us");
    ctx.xray_text = xray::renderHotpath(
        *run->xray, dh != nullptr ? dh->mean() : 0.0, run->wall_s);
  }
  if (run->flight != nullptr && run->flight->runComplete()) {
    ctx.flight_text = flight::renderDegradationReport(*run->flight);
    ctx.flight_violations = run->flight->census().violations;
    ctx.summary.emplace_back("bound violations",
                             std::to_string(run->flight->census().violations));
  }
  if (with_audit) {
    auditor.auditTimeSeries(run->store);
    ctx.summary.emplace_back("audit violations",
                             std::to_string(auditor.totalViolations()));
    ctx.audit_text = auditor.report();
    ctx.audit_violations = auditor.totalViolations();
  }
  const std::string out = a.get("out", "uberun_report.html");
  writeOrPrint(out, telemetry::renderHtmlReport(ctx));
  std::printf("%s policy on %d nodes: %zu jobs, makespan %.1f s, %llu sample "
              "ticks across %zu series\nwrote report to %s\n",
              run->result.policy.c_str(), run->nodes, run->result.jobs.size(),
              run->result.makespan,
              static_cast<unsigned long long>(run->sampler.ticks()),
              run->store.size(), out.c_str());
  const int rc = finishTelemetry(*run, a);
  if (with_audit && !auditor.ok()) {
    std::fprintf(stderr, "%s", auditor.report().c_str());
    return 5;
  }
  return rc;
}

// `uberun audit`: the invariant auditor as a first-class gate. Runs the
// workload with per-scheduling-point audits of the ledger / queue / solver
// cache, then the post-run time-series audit. Fail-fast by default so CI
// stops at the first divergence; --keep-going accumulates everything.
int cmdAudit(const World& w, const Args& a) {
  audit::AuditorConfig acfg;
  acfg.fail_fast = !a.flag("keep-going");
  audit::Auditor auditor(acfg);
#if !SNS_AUDIT_ENABLED
  std::fprintf(stderr,
               "uberun audit: warning: this build compiled the scheduler "
               "audit hooks out (SNS_AUDIT=OFF); only the post-run "
               "time-series audit will run\n");
#endif
  try {
    // The flight recorder rides along so the run also exercises the
    // reconciliation audit (auditFlightLedger replays every finished
    // job's slowdown ledger post-run, even in SNS_AUDIT=OFF builds).
    auto run = runTelemetry(w, a, &auditor, nullptr, /*with_flight=*/true);
    auditor.auditTimeSeries(run->store);
    std::printf("%s policy on %d nodes (%s): %zu jobs, makespan %.1f s\n\n",
                run->result.policy.c_str(), run->nodes, run->workload.c_str(),
                run->result.jobs.size(), run->result.makespan);
    std::printf("%s", auditor.report().c_str());
    return auditor.ok() ? 0 : 5;
  } catch (const audit::AuditError& e) {
    std::fprintf(stderr, "uberun audit: %s\n%s", e.what(),
                 auditor.report().c_str());
    return 5;
  }
}

int cmdTop(const World& w, const Args& a) {
  auto run = runTelemetry(w, a);
  const double at = a.num("at", run->result.makespan);
  std::printf("%s policy on %d nodes (%s), makespan %.1f s\n\n%s",
              run->result.policy.c_str(), run->nodes, run->workload.c_str(),
              run->result.makespan, telemetry::renderTop(run->store, at).c_str());
  // End-of-run solver-cache effectiveness, derived from the raw counters
  // (the renderTop row shows the *sampled* series; this is the exact total).
  const obs::Counter* sc_hits = run->metrics.findCounter("solver.cache.hits");
  const obs::Counter* sc_miss = run->metrics.findCounter("solver.cache.misses");
  if (sc_hits != nullptr && sc_miss != nullptr) {
    const double lookups = sc_hits->value() + sc_miss->value();
    std::printf("\nsolver cache: %.0f lookups, %.1f%% hit rate\n",
                lookups,
                lookups > 0.0 ? 100.0 * sc_hits->value() / lookups : 0.0);
  }
  return finishTelemetry(*run, a);
}

// `uberun explain`: replay the workload with the provenance store attached
// (timing effectively off — a huge sample period — since explanation needs
// no clocks) and answer "why did job J land where it did".
int cmdExplain(const World& w, const Args& a) {
  xray::TracerConfig xcfg;
  xcfg.sample_period = 1 << 30;  // provenance is sampling-independent
  xcfg.provenance = true;
  xcfg.max_candidates = static_cast<std::size_t>(a.count("candidates", 8));
  auto run = runTelemetry(w, a, nullptr, &xcfg);
  const xray::ProvenanceStore* prov = run->xray->provenance();
  std::printf("%s policy on %d nodes (%s): %zu jobs, makespan %.1f s\n\n",
              run->result.policy.c_str(), run->nodes, run->workload.c_str(),
              run->result.jobs.size(), run->result.makespan);
  if (a.options.count("job") != 0) {
    const std::int64_t job = a.index("job", 0);
    if (!prov->has(job)) {
      std::fprintf(stderr, "uberun explain: no decision recorded for job %lld\n",
                   static_cast<long long>(job));
      return 2;
    }
    std::printf("%s", xray::renderExplain(*prov, job).c_str());
  } else {
    std::printf("%s", xray::renderExplainIndex(*prov).c_str());
  }
  return 0;
}

// `uberun hotpath`: replay the workload with the event-loop tracer timing
// every (or every --sample'th) event step and print the aggregated cost
// attribution plus two reconciliations: the decision span against
// sim.decision_us, and the attributed self time against the run's wall time.
int cmdHotpath(const World& w, const Args& a) {
  xray::TracerConfig xcfg;
  xcfg.sample_period = a.count("sample", 1);
  xcfg.provenance = false;
  auto run = runTelemetry(w, a, nullptr, &xcfg);
  const obs::Histogram* dh = run->metrics.findHistogram("sim.decision_us");
  std::printf("%s policy on %d nodes (%s): %zu jobs, makespan %.1f s\n\n",
              run->result.policy.c_str(), run->nodes, run->workload.c_str(),
              run->result.jobs.size(), run->result.makespan);
  std::printf("%s", xray::renderHotpath(*run->xray,
                                        dh != nullptr ? dh->mean() : 0.0,
                                        run->wall_s)
                        .c_str());
  const std::string folded = a.get("folded", "");
  if (!folded.empty()) {
    writeOrPrint(folded, run->xray->foldedStacks());
    std::printf("\nwrote folded stacks to %s (flamegraph.pl / speedscope)\n",
                folded.c_str());
  }
  return 0;
}

// `uberun why-slow`: replay the workload with the interference flight
// recorder attached and answer "why did job J finish slower than solo":
// stretch vs the 1/alpha degradation bound, the queue-wait / interference
// split, per-resource attribution and the co-runner shares. Without --job
// it prints the degradation census plus the most degraded jobs.
int cmdWhySlow(const World& w, const Args& a) {
  auto run = runTelemetry(w, a, nullptr, nullptr, /*with_flight=*/true);
  std::printf("%s policy on %d nodes (%s): %zu jobs, makespan %.1f s\n\n",
              run->result.policy.c_str(), run->nodes, run->workload.c_str(),
              run->result.jobs.size(), run->result.makespan);
  if (a.options.count("job") != 0) {
    const std::int64_t job = a.index("job", 0);
    const flight::JobRollup* jr = run->flight->find(job);
    if (jr == nullptr || jr->start < 0.0) {
      std::fprintf(stderr, "uberun why-slow: no lifetime recorded for job %lld\n",
                   static_cast<long long>(job));
      return 2;
    }
    std::printf("%s", flight::renderWhySlow(*run->flight, job).c_str());
  } else {
    const auto limit = static_cast<std::size_t>(a.count("limit", 15));
    std::printf("%s", flight::renderWhySlowIndex(*run->flight, limit).c_str());
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: uberun <programs|profile|generate|simulate|plan|trace|"
               "metrics|report|top|audit|explain|hotpath|why-slow> "
               "[options]\n(see the header of tools/uberun_cli.cpp)\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    World w;
    const Args a = Args::parse(
        argc, argv,
        {"online", "mba", "network", "enforce-slo", "audit", "keep-going",
         "anatomy"});
    if (cmd == "programs") return cmdPrograms(w);
    if (cmd == "profile") return cmdProfile(w, a);
    if (cmd == "generate") return cmdGenerate(w, a);
    if (cmd == "simulate") return cmdSimulate(w, a);
    if (cmd == "plan") return cmdPlan(w, a);
    if (cmd == "trace") return cmdTrace(w, a);
    if (cmd == "metrics") return cmdMetrics(w, a);
    if (cmd == "report") return cmdReport(w, a);
    if (cmd == "top") return cmdTop(w, a);
    if (cmd == "audit") return cmdAudit(w, a);
    if (cmd == "explain") return cmdExplain(w, a);
    if (cmd == "hotpath") return cmdHotpath(w, a);
    if (cmd == "why-slow") return cmdWhySlow(w, a);
    return usage();
  } catch (const UsageError& e) {
    std::fprintf(stderr, "uberun: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "uberun: %s\n", e.what());
    return 2;
  }
}
