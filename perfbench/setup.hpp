#pragma once

// Workload definitions and the replay's set-up phase: the calibrated
// estimator, program library and reference profile database, then the
// seeded Fig-20 trace mapped onto the program set with synthesized
// profiles.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/app/workload_gen.hpp"
#include "sns/perfmodel/estimator.hpp"
#include "sns/profile/database.hpp"
#include "sns/sched/policy.hpp"

namespace perfbench {

struct Workload {
  const char* name;
  int nodes;
  sns::sched::PolicyKind policy;
};

/// The three Fig-20 cells; README.md gives the reason for each.
inline constexpr Workload kWorkloads[] = {
    {"fig20-4k-sns", 4096, sns::sched::PolicyKind::kSNS},
    {"fig20-32k-sns", 32768, sns::sched::PolicyKind::kSNS},
    {"fig20-4k-ce", 4096, sns::sched::PolicyKind::kCE},
};

/// Returns nullptr for an unknown name.
const Workload* findWorkload(const std::string& name);

/// Everything a replay needs, built from one seed.
struct Setup {
  sns::perfmodel::Estimator est;
  std::vector<sns::app::ProgramModel> lib;
  sns::profile::ProfileDatabase reference_db;
  std::vector<sns::app::JobSpec> jobs;
  sns::profile::ProfileDatabase db;  ///< synthesized trace profiles
  // Wall time of each trace-layer call, milliseconds.
  double generate_ms = 0.0;
  double map_ms = 0.0;
  double profiles_ms = 0.0;
};

/// Traces per run. An end-to-end run cycles through this many traces
/// derived from its seed, so its cost averages over several schedules of
/// the congested queue instead of resting on one; the traced run replays
/// the first.
inline constexpr int kTracesPerRun = 4;

/// The trace seeds of one run: the first kTracesPerRun draws of an Rng
/// seeded with `run_seed`.
std::vector<std::uint64_t> traceSeeds(std::uint64_t run_seed);

/// Build the environment and one trace. The job sizes, durations and
/// nominal submit times are fixed; an Rng seeded with `trace_seed` jitters
/// the submit times and then maps each job to a program.
std::unique_ptr<Setup> buildSetup(std::uint64_t trace_seed);

}  // namespace perfbench
