#pragma once

#include <cstdint>
#include <string>

#include "sns/xray/provenance.hpp"
#include "sns/xray/span.hpp"

namespace sns::xray {

/// Human-readable "why did job J land where it did" report: the scale
/// walk with per-step rejection reasons, the winning placement shape, the
/// chosen nodes with their Co + Bo + beta x Wo score breakdown, and the
/// solver-cache provenance of the deciding dispatch.
std::string renderExplain(const ProvenanceStore& store, std::int64_t job);

/// One-line-per-job index of all recorded decisions (what `uberun explain`
/// prints without --job).
std::string renderExplainIndex(const ProvenanceStore& store);

/// Aggregated hot-path report: flat per-span profile (calls, self time,
/// p50/p99), folded stacks, the dropped-span ledger, and two
/// reconciliations: the decision span mean against the simulator's
/// measured decision-latency mean (microseconds, when supplied), and the
/// total attributed self time against the run's wall time (seconds, when
/// supplied and event steps were traced).
std::string renderHotpath(const Tracer& tracer, double decision_us_mean = 0.0,
                          double run_wall_s = 0.0);

}  // namespace sns::xray
