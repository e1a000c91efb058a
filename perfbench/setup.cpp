#include "setup.hpp"

#include <algorithm>
#include <chrono>

#include "sns/profile/profiler.hpp"
#include "sns/trace/generator.hpp"
#include "sns/trace/replay.hpp"
#include "sns/util/rng.hpp"

namespace perfbench {

using namespace sns;

namespace {
using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// The paper's §6.4 mapping biases sampling toward scaling-class programs.
constexpr double kScalingRatio = 0.9;
// Trace profiles are transplanted from the 16-process reference profiles.
constexpr int kReferenceProcs = 16;
// Job sizes and durations come from one fixed generated trace: drawn
// afresh per seed, their heavy tails swing the offered load, and with it
// the replay's cost, by up to a factor of two between seeds. A trace seed
// instead jitters each submission by up to this many seconds and picks
// each job's program.
constexpr std::uint64_t kBaseTraceSeed = 0x7417177;
constexpr double kSubmitJitterS = 600.0;
}  // namespace

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::vector<std::uint64_t> traceSeeds(std::uint64_t run_seed) {
  util::Rng rng(run_seed);
  std::vector<std::uint64_t> out;
  for (int k = 0; k < kTracesPerRun; ++k) out.push_back(rng());
  return out;
}

std::unique_ptr<Setup> buildSetup(std::uint64_t trace_seed) {
  auto out = std::make_unique<Setup>();
  Setup& s = *out;
  // Calibrated library and reference profiles with 2% PMU noise, as the
  // figure benches build them: profiles accumulated from earlier runs.
  s.lib = app::programLibrary();
  for (auto& p : s.lib) s.est.calibrate(p);
  profile::ProfilerConfig pcfg;
  pcfg.pmu_noise = 0.02;
  profile::Profiler prof(s.est, pcfg, 0xBE7C4);
  for (const auto& p : s.lib) {
    s.reference_db.put(prof.profileProgram(p, kReferenceProcs));
    if (!p.pow2_procs && p.multi_node) s.reference_db.put(prof.profileProgram(p, 28));
  }
  for (const char* n : {"HC", "BW"}) {
    s.reference_db.put(prof.profileProgram(app::findProgram(s.lib, n), 28));
  }

  util::Rng trace_rng(kBaseTraceSeed);
  auto t0 = Clock::now();
  auto raw = trace::generateTrace(trace_rng, trace::TraceGenParams{});
  s.generate_ms = msSince(t0);

  util::Rng rng(trace_seed);
  for (auto& j : raw) {
    j.submit_s = std::max(0.0, j.submit_s + rng.uniform(-kSubmitJitterS, kSubmitJitterS));
  }

  t0 = Clock::now();
  s.jobs = trace::mapTraceToJobs(rng, raw, kScalingRatio, s.est.machine().cores);
  s.map_ms = msSince(t0);

  t0 = Clock::now();
  s.db = trace::synthesizeTraceProfiles(s.reference_db, kReferenceProcs, s.jobs, s.est);
  s.profiles_ms = msSince(t0);
  return out;
}

}  // namespace perfbench
