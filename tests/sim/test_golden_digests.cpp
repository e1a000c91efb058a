// Golden SimResult digests: the simulator's behaviour pinned to checked-in
// 64-bit hashes of every result bit (tests/sim/golden_digests.inc). Each
// cell hashes the policy, the makespan and busy-node-seconds bits, every
// job's id, program, submit/start/finish bits and full Placement, and the
// per-node bandwidth episodes — plus, when a flight recorder is attached,
// its byte-exact JSON dump. Any change to a scheduling decision, a solver
// round-off or the event order moves a digest.
//
// The matrix: CE/CS/SNS x five small input sets (random sequences with
// seeds 1-3 and trace-style ce_time_override jobs on 8 nodes, a contended
// duplicate-spec burst on 4) x six config variants (default, no way
// donation, MBA caps, online profiling, SNS network management,
// dot-product packing) x observers off and all observers on; plus CE and
// SNS on the 700-job Fig-20 quick trace at 4,096 and 32,768 nodes, with
// and without the flight recorder; last, SNS under online profiling from a
// partial profile database, where exploration trials move the database
// generation.
//
// On a mismatch the test prints the complete replacement table. Replace
// golden_digests.inc with it only when the behaviour change is intended
// and explained.
//
// The deterministic work counters of the eight quick-trace cells (CE and
// SNS at 4,096 to 32,768 nodes) are pinned next to the digests, and this
// pin is their record: events, completions, the active-job high-water
// mark, solver calls and memo/cache traffic, spec and futile-pass skips.
// They are a pure function of the simulated schedule, so they are held
// exactly, in every build mode, with or without observers attached.
//
// Last, what the observers are shown — the event log and the provenance
// store — is pinned on the small sets and one quick-trace cell
// (observer_digests.inc), and the provenance store's per-placement solver
// credit on two cells.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/app/workload_gen.hpp"
#include "sns/audit/audit.hpp"
#include "sns/flight/flight.hpp"
#include "sns/obs/metrics.hpp"
#include "sns/obs/sink.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/telemetry/sampler.hpp"
#include "sns/trace/replay.hpp"
#include "sns/xray/span.hpp"
#include "tests/support/digest.hpp"

namespace sns::sim {
namespace {

struct Golden {
  const char* cell;
  std::uint64_t digest;
};

constexpr Golden kGolden[] = {
#include "golden_digests.inc"
};

using sns::testing::Digest;
using sns::testing::provenanceDigest;

std::uint64_t digestOf(const SimResult& res, const flight::FlightRecorder* fr) {
  Digest d;
  d.mix(res.policy);
  d.mix(res.makespan);
  d.mix(res.busy_node_seconds);
  d.mix(static_cast<std::uint64_t>(res.jobs.size()));
  for (const JobRecord& j : res.jobs) {
    d.mix(static_cast<std::uint64_t>(j.id));
    d.mix(j.spec.program);
    d.mix(j.submit);
    d.mix(j.start);
    d.mix(j.finish);
    const sched::Placement& p = j.placement;
    d.mix(static_cast<std::uint64_t>(p.nodes.size()));
    for (int nd : p.nodes) d.mix(nd);
    d.mix(p.procs_per_node);
    d.mix(p.scale_factor);
    d.mix(p.ways);
    d.mix(p.bw_gbps);
    d.mix(p.net_gbps);
    d.mix(p.exclusive);
  }
  d.mix(static_cast<std::uint64_t>(res.node_bw_episodes.size()));
  for (const auto& node : res.node_bw_episodes) {
    d.mix(static_cast<std::uint64_t>(node.size()));
    for (double bw : node) d.mix(bw);
  }
  if (fr != nullptr) d.mix(fr->toJson().dump());
  return d.value();
}

xray::TracerConfig keepRecords() {
  xray::TracerConfig c;
  c.keep_records = true;
  return c;
}

audit::AuditorConfig failFast() {
  audit::AuditorConfig c;
  c.fail_fast = true;
  return c;
}

/// Every observer the simulator accepts, fresh for one run.
struct AllObservers {
  void attach(SimConfig& cfg) {
    cfg.sink = &log;
    cfg.metrics = &metrics;
    cfg.sampler = &sampler;
    cfg.xray = &tracer;
    cfg.auditor = &auditor;
    cfg.flight = &flight;
  }

  obs::RingBufferLog log;
  obs::Registry metrics;
  telemetry::TimeSeriesStore store{256};
  telemetry::Sampler sampler{store};
  xray::Tracer tracer{keepRecords()};
  audit::Auditor auditor{failFast()};
  flight::FlightRecorder flight;
};

// ---- small-cluster cells ----------------------------------------------------

struct SmallEnv {
  SmallEnv() : lib(app::programLibrary()) {
    for (auto& p : lib) est.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.02;
    profile::Profiler prof(est, cfg, 7);
    for (const auto& p : lib) {
      db.put(prof.profileProgram(p, 16));
      if (!p.pow2_procs && p.multi_node) db.put(prof.profileProgram(p, 28));
    }
  }
  perfmodel::Estimator est;
  std::vector<app::ProgramModel> lib;
  profile::ProfileDatabase db;
};

struct InputSet {
  std::string name;
  std::vector<app::JobSpec> jobs;
  int nodes = 8;
  double age_limit_s = 900.0;
  int max_queue_scan = 1 << 20;
};

std::vector<InputSet> inputSets(const SmallEnv& env) {
  std::vector<InputSet> sets;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    util::Rng rng(seed);
    sets.push_back({"seed" + std::to_string(seed),
                    app::randomSequence(rng, env.lib, 16, 0.9)});
  }
  // Trace-style jobs: ce_time_override supplies the run time (the Fig 20
  // replay path); a short age limit and a 4-entry scan window force
  // backfilling decisions.
  InputSet trace{"trace", {}, 8, 120.0, 4};
  const char* trace_progs[] = {"MG", "LU", "WC", "EP", "CG", "TS"};
  for (int i = 0; i < 18; ++i) {
    app::JobSpec j;
    j.program = trace_progs[i % 6];
    j.procs = (i % 6 == 2 || i % 6 == 5) ? 28 : 16;
    j.alpha = 0.9;
    j.submit_time = 40.0 * i;
    j.ce_time_override = 300.0 + 60.0 * (i % 5);
    trace.jobs.push_back(j);
  }
  sets.push_back(std::move(trace));
  // Contended duplicate specs: waves of eight jobs sharing three specs on a
  // 4-node cluster, so most dispatch attempts fail and repeat.
  InputSet contended{"contended", {}, 4};
  const char* dup_progs[] = {"MG", "LU", "EP"};
  for (int i = 0; i < 24; ++i) {
    app::JobSpec j;
    j.program = dup_progs[i % 3];
    j.procs = 16;
    j.alpha = 0.9;
    j.submit_time = 500.0 * (i / 8);
    contended.jobs.push_back(j);
  }
  sets.push_back(std::move(contended));
  return sets;
}

struct Variant {
  const char* name;
  void (*apply)(SimConfig&);
};

constexpr Variant kVariants[] = {
    {"default", [](SimConfig&) {}},
    {"no-donation", [](SimConfig& c) { c.donate_unused_ways = false; }},
    {"mba", [](SimConfig& c) { c.enforce_bandwidth_caps = true; }},
    {"online", [](SimConfig& c) { c.online_profiling = true; }},
    {"network", [](SimConfig& c) { c.sns.manage_network = true; }},
    {"dot-product",
     [](SimConfig& c) { c.sns.packing = sched::SnsPolicy::Packing::kDotProduct; }},
};

// ---- Fig-20 quick-trace cells -----------------------------------------------

/// The figure benches' profile database and the 700-job quick trace
/// (`bench_fig20_trace_sim --quick`) mapped at scaling ratio 0.9.
struct TraceEnv {
  TraceEnv() : lib(app::programLibrary()) {
    for (auto& p : lib) est.calibrate(p);
    profile::ProfilerConfig cfg;
    cfg.pmu_noise = 0.02;
    profile::Profiler prof(est, cfg, 0xBE7C4);
    profile::ProfileDatabase ref;
    for (const auto& p : lib) {
      ref.put(prof.profileProgram(p, 16));
      if (!p.pow2_procs && p.multi_node) ref.put(prof.profileProgram(p, 28));
    }
    for (const char* n : {"HC", "BW"}) {
      ref.put(prof.profileProgram(app::findProgram(lib, n), 28));
    }
    trace::TraceGenParams params;
    params.jobs = 700;
    params.horizon_hours = 190.0;
    util::Rng trace_rng(0x7417177);
    const auto raw = trace::generateTrace(trace_rng, params);
    util::Rng map_rng(900);
    jobs = trace::mapTraceToJobs(map_rng, raw, 0.9, est.machine().cores);
    db = trace::synthesizeTraceProfiles(ref, 16, jobs, est);
  }
  perfmodel::Estimator est;
  std::vector<app::ProgramModel> lib;
  profile::ProfileDatabase db;
  std::vector<app::JobSpec> jobs;
};

struct Computed {
  std::string cell;
  std::uint64_t digest;
};

std::vector<Computed> computeAll() {
  std::vector<Computed> out;
  const SmallEnv small;
  for (const InputSet& set : inputSets(small)) {
    for (sched::PolicyKind policy :
         {sched::PolicyKind::kCE, sched::PolicyKind::kCS, sched::PolicyKind::kSNS}) {
      for (const Variant& v : kVariants) {
        for (bool observed : {false, true}) {
          SimConfig cfg;
          cfg.nodes = set.nodes;
          cfg.policy = policy;
          cfg.age_limit_s = set.age_limit_s;
          cfg.max_queue_scan = set.max_queue_scan;
          v.apply(cfg);
          AllObservers obs;
          if (observed) obs.attach(cfg);
          ClusterSimulator sim(small.est, small.lib, small.db, cfg);
          const SimResult res = sim.run(set.jobs);
          EXPECT_TRUE(obs.auditor.ok()) << obs.auditor.report();
          out.push_back({set.name + "/" + sched::to_string(policy) + "/" + v.name +
                             (observed ? "/observed" : "/plain"),
                         digestOf(res, observed ? &obs.flight : nullptr)});
        }
      }
    }
  }

  const TraceEnv big;
  for (int nodes : {4096, 32768}) {
    for (sched::PolicyKind policy : {sched::PolicyKind::kCE, sched::PolicyKind::kSNS}) {
      for (bool recorded : {false, true}) {
        SimConfig cfg;
        cfg.nodes = nodes;
        cfg.policy = policy;
        cfg.monitor_episode_s = 0.0;
        cfg.age_limit_s = 14.0 * 86400.0;
        cfg.max_queue_scan = 256;
        flight::FlightRecorder fr;
        if (recorded) cfg.flight = &fr;
        ClusterSimulator sim(big.est, big.lib, big.db, cfg);
        const SimResult res = sim.run(big.jobs);
        out.push_back({"quick700/" + std::to_string(nodes) + "/" +
                           sched::to_string(policy) + (recorded ? "/flight" : "/plain"),
                       digestOf(res, recorded ? &fr : nullptr)});
      }
    }
  }

  // Online profiling from a partial database: half the programs start
  // unprofiled, so SNS places them as exploration trials whose merged
  // profiles move db.generation(), which must drop SnsPolicy's plans.
  profile::ProfileDatabase partial;
  for (std::size_t i = 0; i < small.lib.size(); i += 2) {
    if (const auto* prof = small.db.find(small.lib[i].name, 16)) partial.put(*prof);
  }
  util::Rng rng(41);
  SimConfig cfg;
  cfg.nodes = 8;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.online_profiling = true;
  ClusterSimulator sim(small.est, small.lib, partial, cfg);
  out.push_back({"partial-db/SNS/online/plain",
                 digestOf(sim.run(app::randomSequence(rng, small.lib, 24, 0.9)), nullptr)});
  return out;
}

/// Compare `got` against a checked-in table; on any mismatch print the
/// complete replacement table for `file`.
template <std::size_t N>
void expectTable(const std::vector<Computed>& got, const Golden (&want)[N],
                 const char* file) {
  bool match = got.size() == N;
  for (std::size_t i = 0; i < got.size() && i < N; ++i) {
    EXPECT_EQ(got[i].cell, want[i].cell);
    EXPECT_EQ(got[i].digest, want[i].digest) << got[i].cell;
    match = match && got[i].cell == want[i].cell && got[i].digest == want[i].digest;
  }
  EXPECT_EQ(got.size(), N);
  if (!match) {
    std::string table;
    char line[160];
    for (const Computed& c : got) {
      std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxull},\n", c.cell.c_str(),
                    static_cast<unsigned long long>(c.digest));
      table += line;
    }
    ADD_FAILURE() << "replacement " << file << ":\n" << table;
  }
}

TEST(GoldenDigests, EveryCellMatchesTheCheckedInTable) {
  expectTable(computeAll(), kGolden, "tests/sim/golden_digests.inc");
}

// ---- observer outputs ---------------------------------------------------------

// What the observers were shown, pinned to hashes of their outputs: the
// event log, with bandwidth_throttled events split out into their own
// (time, job, node, cap) sequence and way-donation events into an
// order-free, node-weighted multiset, and the provenance dump without its
// solver_lookups / solver_hits fields (the solver attribution is credited
// from the end-of-pass refresh, so it is checked against the refresh by
// XrayEquivalence.SolverAttributionSumsToEachPassRefresh instead). Every
// observer is a pure reader, so these outputs may not depend on which
// engine shortcut answered a decision: a failed-spec memo hit and a
// skipped futile pass replay exactly what a full tryPlace() walk shows.
//
// The table was captured from an engine that turned the memo, the futile
// gate and the end-of-pass refresh off under these observers. One entry
// differs from that capture: contended/SNS/mba/throttled. The refresh now
// runs once per pass, so three caps that held for zero virtual seconds —
// jobs 0, 9 and 18, each capped while alone between two placements of one
// pass and uncapped when the pass ended — are no longer reported.
//
// The /donations entries were split out of /events on the engine that
// reported way donation once per node, each event counted once; every
// other entry kept its value. The engine now reports one event per ledger
// transition, weighted by its node count, and reproduces every entry.
constexpr Golden kObserverGolden[] = {
#include "observer_digests.inc"
};

/// Streams every event into one digest and every bandwidth_throttled
/// event's (time, job, node, cap) into another. Way-donation events are
/// counted instead, as a multiset of (type, time, value bits, value2 bits)
/// in which each event counts once per node it covers: the digest pins
/// what every node was donated or had reclaimed, and when, but not the
/// order or the grouping the engine reports it in.
class EventDigestSink final : public obs::EventSink {
 public:
  void record(const obs::Event& e) override {
    if (e.type == obs::EventType::kBandwidthThrottled) {
      throttled.mix(e.time);
      throttled.mix(static_cast<std::uint64_t>(e.job));
      throttled.mix(e.node);
      throttled.mix(e.value);
      return;
    }
    if (e.type == obs::EventType::kWaysDonated ||
        e.type == obs::EventType::kWaysReclaimed) {
      const DonationKey key{static_cast<std::uint64_t>(e.type),
                            std::bit_cast<std::uint64_t>(e.time),
                            std::bit_cast<std::uint64_t>(e.value),
                            std::bit_cast<std::uint64_t>(e.value2)};
      donations_[key] += static_cast<std::uint64_t>(e.scale);  // node count
      return;
    }
    log.mix(static_cast<std::uint64_t>(e.type));
    log.mix(e.time);
    log.mix(static_cast<std::uint64_t>(e.job));
    log.mix(e.node);
    log.mix(e.ways);
    log.mix(e.scale);
    log.mix(e.value);
    log.mix(e.value2);
    log.mix(e.what);
    log.mix(e.detail);
    log.mix(static_cast<std::uint64_t>(e.candidates.size()));
    for (const obs::NodeScore& c : e.candidates) {
      log.mix(c.node);
      log.mix(c.score);
    }
  }
  /// The donation multiset, in key order.
  std::uint64_t donations() const {
    Digest d;
    for (const auto& [key, nodes] : donations_) {
      for (const std::uint64_t field : key) d.mix(field);
      d.mix(nodes);
    }
    return d.value();
  }
  Digest log;
  Digest throttled;

 private:
  using DonationKey = std::array<std::uint64_t, 4>;
  std::map<DonationKey, std::uint64_t> donations_;
};

/// One observed cell: a run with only an event sink attached, and one
/// with only a tracer (provenance on), so each observer alone decides
/// what the engine must replay to it.
void observeCell(const std::string& cell, const perfmodel::Estimator& est,
                 const std::vector<app::ProgramModel>& lib,
                 const profile::ProfileDatabase& db, const SimConfig& cfg,
                 const std::vector<app::JobSpec>& jobs, std::vector<Computed>& out) {
  EventDigestSink sink;
  SimConfig logged = cfg;
  logged.sink = &sink;
  ClusterSimulator(est, lib, db, logged).run(jobs);
  out.push_back({cell + "/events", sink.log.value()});
  out.push_back({cell + "/donations", sink.donations()});
  out.push_back({cell + "/throttled", sink.throttled.value()});

  xray::Tracer tracer;
  SimConfig traced = cfg;
  traced.xray = &tracer;
  ClusterSimulator(est, lib, db, traced).run(jobs);
  out.push_back({cell + "/provenance", provenanceDigest(*tracer.provenance())});
}

TEST(GoldenDigests, ObserverOutputsMatchTheBaseline) {
  std::vector<Computed> got;
  const SmallEnv small;
  for (const InputSet& set : inputSets(small)) {
    for (sched::PolicyKind policy :
         {sched::PolicyKind::kCE, sched::PolicyKind::kCS, sched::PolicyKind::kSNS}) {
      for (const bool mba : {false, true}) {
        SimConfig cfg;
        cfg.nodes = set.nodes;
        cfg.policy = policy;
        cfg.age_limit_s = set.age_limit_s;
        cfg.max_queue_scan = set.max_queue_scan;
        cfg.enforce_bandwidth_caps = mba;
        observeCell(set.name + "/" + sched::to_string(policy) +
                        (mba ? "/mba" : "/default"),
                    small.est, small.lib, small.db, cfg, set.jobs, got);
      }
    }
  }
  const TraceEnv big;
  SimConfig cfg;
  cfg.nodes = 4096;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.monitor_episode_s = 0.0;
  cfg.age_limit_s = 14.0 * 86400.0;
  cfg.max_queue_scan = 256;
  observeCell("quick700/4096/SNS", big.est, big.lib, big.db, cfg, big.jobs, got);
  expectTable(got, kObserverGolden, "tests/sim/observer_digests.inc");
}

// The solver credit the provenance digests leave out: each placement's
// solver_lookups, in job order. An end-of-pass solve is credited to the
// earliest placement of the pass among its group's residents, whatever
// order the refresh solves in; the hits are not pinned, since which
// lookup of a pass hits follows the solve order. Captured from the engine
// whose refresh walked the placements' nodes in first-dirty order.
std::uint64_t creditDigest(const xray::ProvenanceStore& prov) {
  Digest d;
  for (const xray::DecisionRecord& r : prov.records()) {
    if (!r.placed) continue;
    d.mix(static_cast<std::uint64_t>(r.job));
    d.mix(r.solver_lookups);
  }
  return d.value();
}

TEST(GoldenDigests, SolverCreditPerPlacementMatchesTheBaseline) {
  const SmallEnv small;
  const InputSet contended = inputSets(small).back();
  ASSERT_EQ(contended.name, "contended");
  xray::Tracer small_tracer;
  SimConfig cfg;
  cfg.nodes = contended.nodes;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.xray = &small_tracer;
  (void)ClusterSimulator(small.est, small.lib, small.db, cfg).run(contended.jobs);
  EXPECT_EQ(creditDigest(*small_tracer.provenance()), 0x43e8ca1f1e610620ull) << "contended/SNS";

  const TraceEnv big;
  xray::Tracer big_tracer;
  cfg = SimConfig{};
  cfg.nodes = 4096;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.monitor_episode_s = 0.0;
  cfg.age_limit_s = 14.0 * 86400.0;
  cfg.max_queue_scan = 256;
  cfg.xray = &big_tracer;
  (void)ClusterSimulator(big.est, big.lib, big.db, cfg).run(big.jobs);
  EXPECT_EQ(creditDigest(*big_tracer.provenance()), 0x0a97686c7d1b66b1ull) << "quick700/4096/SNS";
}

// ---- deterministic work counters --------------------------------------------

struct CounterCell {
  int nodes;
  sched::PolicyKind policy;
  double events;
  double jobs_completed;
  double active_jobs_hwm;
  double solver_calls;
  double solver_memo_hits;
  double solver_cache_hits;
  double solver_cache_misses;
  double solver_cache_evictions;
  double spec_skips;
  double futile_pass_skips;
};

constexpr sched::PolicyKind kCE = sched::PolicyKind::kCE;
constexpr sched::PolicyKind kSNS = sched::PolicyKind::kSNS;

// The record of the quick cells' work counters, captured when the engine's
// fast decision path landed; a change needs a reasoned re-capture. The
// solver memo/cache columns were re-captured once when the memo became
// per-share: a solve is a miss exactly when it derives some share fresh,
// so SNS sets that reuse known shares (in any order) turned into hits.
// Solver calls, and every CE column, did not move. The selection-cache
// hit/miss columns were dropped with the ledger's selection cache; every
// remaining column kept its value.
constexpr CounterCell kCounterCells[] = {
    {4096, kCE, 2100, 700, 58, 700, 639, 639, 61, 0, 995, 149},
    {4096, kSNS, 2100, 700, 43, 5052, 4652, 4652, 400, 0, 1966, 151},
    {8192, kCE, 2100, 700, 59, 700, 639, 639, 61, 0, 4, 693},
    {8192, kSNS, 2100, 700, 42, 3146, 2852, 2852, 294, 0, 92, 606},
    {16384, kCE, 2100, 700, 60, 700, 639, 639, 61, 0, 0, 701},
    {16384, kSNS, 2100, 700, 42, 3638, 3413, 3413, 225, 0, 0, 701},
    {32768, kCE, 2100, 700, 60, 700, 639, 639, 61, 0, 0, 701},
    {32768, kSNS, 2100, 700, 42, 3771, 3563, 3563, 208, 0, 0, 701},
};

double counterValue(const obs::Registry& m, const char* name) {
  const obs::Counter* c = m.findCounter(name);
  return c != nullptr ? c->value() : 0.0;
}

// Observers are pure readers, so each cell is run twice against the same
// row: with a metrics registry alone, and with an event sink, a tracer
// with provenance and a flight recorder attached as well.
TEST(GoldenDigests, WorkCountersMatchTheBaseline) {
  const TraceEnv big;
  for (const CounterCell& want : kCounterCells) {
    for (const bool observed : {false, true}) {
      obs::Registry m;
      obs::NullSink sink;
      xray::Tracer tracer;
      flight::FlightRecorder flight;
      SimConfig cfg;
      cfg.nodes = want.nodes;
      cfg.policy = want.policy;
      cfg.monitor_episode_s = 0.0;
      cfg.age_limit_s = 14.0 * 86400.0;
      cfg.max_queue_scan = 256;
      cfg.metrics = &m;
      if (observed) {
        cfg.sink = &sink;
        cfg.xray = &tracer;
        cfg.flight = &flight;
      }
      ClusterSimulator sim(big.est, big.lib, big.db, cfg);
      (void)sim.run(big.jobs);
      const std::string cell = std::to_string(want.nodes) + "/" +
                               sched::to_string(want.policy) +
                               (observed ? "/observed" : "/metrics-only");
      const obs::Gauge* hwm = m.findGauge("sim.active_jobs_hwm");
      EXPECT_EQ(counterValue(m, "sim.jobs_submitted") +
                    counterValue(m, "sim.jobs_started") +
                    counterValue(m, "sim.jobs_finished"),
                want.events)
          << cell;
      EXPECT_EQ(counterValue(m, "sim.jobs_finished"), want.jobs_completed) << cell;
      EXPECT_EQ(hwm != nullptr ? hwm->value() : 0.0, want.active_jobs_hwm) << cell;
      EXPECT_EQ(counterValue(m, "sim.solver_calls"), want.solver_calls) << cell;
      EXPECT_EQ(counterValue(m, "sim.solver_memo_hits"), want.solver_memo_hits) << cell;
      EXPECT_EQ(counterValue(m, "solver.cache.hits"), want.solver_cache_hits) << cell;
      EXPECT_EQ(counterValue(m, "solver.cache.misses"), want.solver_cache_misses)
          << cell;
      EXPECT_EQ(counterValue(m, "solver.cache.evictions"), want.solver_cache_evictions)
          << cell;
      EXPECT_EQ(counterValue(m, "sim.spec_skips"), want.spec_skips) << cell;
      EXPECT_EQ(counterValue(m, "sim.futile_pass_skips"), want.futile_pass_skips)
          << cell;
    }
  }
}

}  // namespace
}  // namespace sns::sim
