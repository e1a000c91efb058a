#pragma once

#include <string>
#include <utility>
#include <vector>

#include "sns/obs/metrics.hpp"
#include "sns/telemetry/slo.hpp"
#include "sns/telemetry/timeseries.hpp"

namespace sns::telemetry {

/// Prometheus text exposition (format 0.0.4): every registry counter
/// (`sns_<name>_total`), gauge and histogram (cumulative `_bucket` rows,
/// `_sum`, `_count`) plus the last value of every store series as a gauge
/// with its labels. Names are sanitized (`.` -> `_`, `sns_` prefix); each
/// metric carries `# HELP` and `# TYPE` lines. `uberun metrics` prints
/// this verbatim, ready for a file-based scrape.
std::string renderPrometheus(const TimeSeriesStore* store,
                             const obs::Registry* registry);

/// Everything the HTML report can show; null members are omitted.
struct ReportContext {
  std::string title;
  const TimeSeriesStore* store = nullptr;
  const obs::Registry* metrics = nullptr;
  const SloWatchdog* watchdog = nullptr;
  /// Headline facts ((label, value) pairs) rendered as stat tiles.
  std::vector<std::pair<std::string, std::string>> summary;
  std::uint64_t events_dropped = 0;  ///< ring-buffer drops, flagged if > 0
  /// sns::audit outcome when an invariant auditor ran alongside the
  /// workload (`uberun report --audit`): the auditor's report() text plus
  /// its violation count, rendered as a dedicated section. Passed as plain
  /// data so sns_telemetry does not depend on sns_audit (the audit library
  /// links telemetry for the time-series checks, not vice versa). Empty
  /// text omits the section.
  std::string audit_text;
  std::uint64_t audit_violations = 0;
  /// sns::xray outcome when a decision tracer rode along the workload
  /// (`uberun report`): the rendered hot-path attribution report, shown as
  /// a "Decision anatomy" section. Plain data for the same reason as
  /// audit_text — sns_telemetry must not depend on sns_xray. Empty text
  /// omits the section.
  std::string xray_text;
  /// sns::flight outcome when an interference flight recorder rode along
  /// the workload (`uberun report`): the rendered degradation-accounting
  /// report (bound-violation census, resource attribution, contention
  /// heatmap), shown as a "Degradation accounting" section. Plain data for
  /// the same reason as audit_text — sns_telemetry must not depend on
  /// sns_flight. Empty text omits the section.
  std::string flight_text;
  /// Degradation-bound violations counted by the recorder's census;
  /// flagged in the section header when > 0.
  std::uint64_t flight_violations = 0;
};

/// Self-contained single-file HTML dashboard: stat tiles, one inline-SVG
/// sparkline card per series (min/max band + mean line, native <title>
/// hover tooltips, no external assets or scripts), the SLO watchdog table,
/// the xray hot-path attribution, and the raw metrics dump.
std::string renderHtmlReport(const ReportContext& ctx);

/// Terminal cluster-state view at time `at` (clamped to the sampled
/// range): headline series values with occupancy bars, plus per-node bars
/// when per-node series were recorded. Backs `uberun top --at T`.
std::string renderTop(const TimeSeriesStore& store, double at,
                      int bar_width = 32);

}  // namespace sns::telemetry
