#include "sns/sim/metrics.hpp"

#include "sns/flight/flight.hpp"
#include "sns/util/error.hpp"
#include "sns/util/stats.hpp"

namespace sns::sim {

namespace {
// Mean of `get` over completed jobs; 0.0 when none completed. Guarding
// here (instead of SNS_REQUIREing non-emptiness) keeps partial results —
// e.g. a result assembled from an aborted or still-loading run — from
// dividing by zero and silently spreading NaN through derived metrics.
template <typename Fn>
double meanOverCompleted(const std::vector<JobRecord>& jobs, Fn get) {
  double s = 0.0;
  std::size_t n = 0;
  for (const auto& j : jobs) {
    if (!j.completed()) continue;
    s += get(j);
    ++n;
  }
  return n > 0 ? s / static_cast<double>(n) : 0.0;
}
}  // namespace

double SimResult::meanTurnaround() const {
  return meanOverCompleted(jobs, [](const JobRecord& j) { return j.turnaround(); });
}

double SimResult::meanWait() const {
  return meanOverCompleted(jobs, [](const JobRecord& j) { return j.waitTime(); });
}

double SimResult::meanRun() const {
  return meanOverCompleted(jobs, [](const JobRecord& j) { return j.runTime(); });
}

std::vector<double> runTimeRatios(const SimResult& test, const SimResult& base) {
  SNS_REQUIRE(test.jobs.size() == base.jobs.size(),
              "results are not from the same sequence");
  std::vector<double> out;
  out.reserve(test.jobs.size());
  for (std::size_t i = 0; i < test.jobs.size(); ++i) {
    SNS_REQUIRE(test.jobs[i].id == base.jobs[i].id, "job id mismatch");
    // A zero / near-zero base runtime (zero-work job, trace glitch) would
    // turn one ratio into inf and poison every geomean built on top;
    // degenerate pairs count as "no slowdown" instead.
    const double b = base.jobs[i].runTime();
    out.push_back(b > 1e-12 ? test.jobs[i].runTime() / b : 1.0);
  }
  return out;
}

double geomeanRunTimeRatio(const SimResult& test, const SimResult& base) {
  const auto ratios = runTimeRatios(test, base);
  return util::geomean(ratios);
}

int thresholdViolations(const SimResult& test, const SimResult& base, double alpha) {
  SNS_REQUIRE(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
  const auto ratios = runTimeRatios(test, base);
  int n = 0;
  for (double r : ratios) {
    if (r > 1.0 / alpha + flight::kBoundSlack) ++n;
  }
  return n;
}

double bandwidthVariance(const SimResult& r, double peak_bw) {
  SNS_REQUIRE(peak_bw > 0.0, "peak bandwidth must be positive");
  util::RunningStats stats;
  for (const auto& node : r.node_bw_episodes) {
    for (double bw : node) stats.add(bw);
  }
  SNS_REQUIRE(stats.count() > 0, "result has no monitoring episodes");
  return stats.stddev() / peak_bw;
}

}  // namespace sns::sim
