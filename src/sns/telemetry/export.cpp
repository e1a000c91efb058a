#include "sns/telemetry/export.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

#include "sns/util/error.hpp"
#include "sns/util/table.hpp"

namespace sns::telemetry {

namespace {

/// Prometheus metric-name charset: [a-zA-Z_:][a-zA-Z0-9_:]*.
std::string promName(const std::string& raw) {
  std::string out = "sns_";
  for (char c : raw) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

std::string promEscape(const std::string& v) {
  std::string out;
  out.reserve(v.size());
  for (char c : v) {
    if (c == '\\' || c == '"') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

std::string promLabels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first + "=\"" + promEscape(labels[i].second) + "\"";
  }
  out += '}';
  return out;
}

/// %g-style shortest faithful double (Prometheus values are free-form).
std::string promValue(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the short form when it round-trips.
  char short_buf[64];
  std::snprintf(short_buf, sizeof short_buf, "%g", v);
  double back = 0.0;
  std::sscanf(short_buf, "%lf", &back);
  return back == v ? short_buf : buf;
}

}  // namespace

std::string renderPrometheus(const TimeSeriesStore* store,
                             const obs::Registry* registry) {
  std::string out;
  auto header = [&](const std::string& name, const char* type,
                    const std::string& help) {
    out += "# HELP " + name + " " + help + "\n";
    out += "# TYPE " + name + " " + std::string(type) + "\n";
  };

  if (registry != nullptr) {
    for (const auto& [name, c] : registry->counters()) {
      const std::string n = promName(name) + "_total";
      header(n, "counter", "counter " + name);
      out += n + " " + promValue(c.value()) + "\n";
    }
    for (const auto& [name, g] : registry->gauges()) {
      const std::string n = promName(name);
      header(n, "gauge", "gauge " + name);
      out += n + " " + promValue(g.value()) + "\n";
    }
    // Derived gauge: solver cache hit rate, emitted directly so scrape
    // consumers don't have to compute it from the two raw counters.
    const obs::Counter* sc_hits = registry->findCounter("solver.cache.hits");
    const obs::Counter* sc_miss = registry->findCounter("solver.cache.misses");
    if (sc_hits != nullptr && sc_miss != nullptr) {
      const double lookups = sc_hits->value() + sc_miss->value();
      const std::string n = promName("solver.cache.hit_rate");
      header(n, "gauge",
             "derived gauge solver.cache.hit_rate (hits / lookups)");
      out += n + " " +
             promValue(lookups > 0.0 ? sc_hits->value() / lookups : 0.0) + "\n";
    }
    for (const auto& [name, h] : registry->histograms()) {
      const std::string n = promName(name);
      header(n, "histogram", "histogram " + name);
      std::uint64_t cum = 0;
      for (std::size_t i = 0; i < h.bucketCount(); ++i) {
        cum += h.bucketValue(i);
        const double ub = h.upperBound(i);
        const std::string le =
            std::isinf(ub) ? std::string("+Inf") : promValue(ub);
        out += n + "_bucket{le=\"" + le + "\"} " + std::to_string(cum) + "\n";
      }
      out += n + "_sum " + promValue(h.sum()) + "\n";
      out += n + "_count " + std::to_string(h.count()) + "\n";
    }
  }

  if (store != nullptr) {
    // Series export: last sampled value as a gauge. HELP/TYPE once per
    // metric name; label-differentiated instances share them.
    const std::string* prev_name = nullptr;
    for (const auto& [key, series] : store->all()) {
      if (series.empty()) continue;
      const std::string n = promName(key.name);
      if (prev_name == nullptr || key.name != *prev_name) {
        header(n, "gauge", "time series " + key.name + " (last sample)");
        prev_name = &key.name;
      }
      out += n + promLabels(key.labels) + " " + promValue(series.last()) + "\n";
    }
  }
  return out;
}

std::string renderTop(const TimeSeriesStore& store, double at, int bar_width) {
  auto bar = [bar_width](double frac) {
    frac = std::clamp(frac, 0.0, 1.0);
    const int on = static_cast<int>(std::lround(frac * bar_width));
    std::string s(static_cast<std::size_t>(on), '#');
    s += std::string(static_cast<std::size_t>(bar_width - on), '.');
    return s;
  };

  // Clamp `at` into the sampled range of the first non-empty series.
  double t0 = 0.0, t1 = 0.0;
  bool have_range = false;
  for (const auto& [key, s] : store.all()) {
    if (s.empty()) continue;
    const auto& pts = s.points();
    t0 = have_range ? std::min(t0, pts.front().t_first) : pts.front().t_first;
    t1 = have_range ? std::max(t1, pts.back().t_last) : pts.back().t_last;
    have_range = true;
  }
  if (!have_range) return "no telemetry samples recorded\n";
  const double t = std::clamp(at, t0, t1);

  std::string out = "cluster state at t=" + util::fmt(t, 1) + " s (sampled " +
                    util::fmt(t0, 1) + " .. " + util::fmt(t1, 1) + " s)\n\n";

  struct Row {
    const char* series;
    const char* label;
    bool fraction;  ///< render an occupancy bar
  };
  const Row rows[] = {
      {"cluster.core_util", "core utilization", true},
      {"cluster.way_util", "LLC-way utilization", true},
      {"cluster.bw_util", "bandwidth utilization", true},
      {"cluster.busy_nodes", "busy nodes", false},
      {"jobs.running", "running jobs", false},
      {"queue.depth", "queue depth", false},
      {"queue.head_age_s", "queue head age (s)", false},
      {"solver.hit_rate", "solver cache hit rate", true},
      {"sched.decision_us_p99", "decision p99 (us)", false},
  };
  util::Table table({"signal", "value", "", "min", "mean", "max"});
  for (const Row& r : rows) {
    const Series* s = store.find(r.series);
    if (s == nullptr || s->empty()) continue;
    const SeriesPoint* p = s->at(t);
    const double v = p != nullptr ? p->last : 0.0;
    table.addRow({r.label, util::fmt(v, r.fraction ? 3 : 1),
                  r.fraction ? bar(v) : "", util::fmt(s->minSeen(), 2),
                  util::fmt(s->mean(), 2), util::fmt(s->maxSeen(), 2)});
  }
  out += table.render();

  // Per-node occupancy bars, when the run recorded them (numeric order —
  // the store iterates label strings lexicographically).
  std::vector<std::pair<int, double>> per_node;
  for (const auto& [key, s] : store.all()) {
    if (key.name != "node.core_occ" || key.labels.empty() || s.empty()) continue;
    // The whole label value must be a node id.
    const auto& [label, v] = key.labels.front();
    int nd = 0;
    const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(), nd);
    if (ec != std::errc() || end != v.data() + v.size()) {
      throw util::DataError(key.name + ": label " + label + "=\"" + v + "\" is not a node id");
    }
    const SeriesPoint* p = s.at(t);
    per_node.emplace_back(nd, p != nullptr ? p->last : 0.0);
  }
  if (!per_node.empty()) {
    std::sort(per_node.begin(), per_node.end());
    out += "\nper-node core occupancy:\n";
    for (const auto& [nd, v] : per_node) {
      out += "  node " + std::to_string(nd) + "  " + bar(v) + "  " +
             util::fmt(v, 2) + "\n";
    }
  }
  return out;
}

}  // namespace sns::telemetry
