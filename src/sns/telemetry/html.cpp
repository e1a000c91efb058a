// Self-contained HTML dashboard renderer for `uberun report`. No external
// assets, fonts, or scripts: styling is one inline <style> block and every
// chart is inline SVG, so the file opens anywhere (including air-gapped
// cluster head nodes) and archives as a single artifact.
//
// Chart conventions: each sparkline is a single series — a 2px line over
// the per-point means with a translucent min/max band, one accent hue for
// data, neutral ink for all text, recessive axes. Hover uses native SVG
// <title> tooltips on invisible per-point hit rects (wider than the mark).
// The status red is reserved for SLO violations and always accompanied by
// text, never color alone.
#include <algorithm>
#include <cmath>

#include "sns/telemetry/export.hpp"
#include "sns/util/table.hpp"

namespace sns::telemetry {

namespace {

constexpr const char* kCss = R"css(
:root {
  --ink: #1a1f27; --ink-2: #5b6572; --ink-3: #9aa3ae;
  --surface: #ffffff; --surface-2: #f5f6f8; --border: #e3e6ea;
  --accent: #3566a6; --accent-soft: rgba(53,102,166,0.13);
  --bad: #b3261e; --bad-soft: #fbeae9; --ok: #2e6b43;
}
* { box-sizing: border-box; }
body { margin: 0; padding: 24px; background: var(--surface-2); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; color: var(--ink); }
.sub { color: var(--ink-2); margin-bottom: 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 14px 0 6px; }
.tile { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 14px; min-width: 130px; }
.tile .k { font-size: 11px; color: var(--ink-2); text-transform: uppercase;
  letter-spacing: 0.04em; }
.tile .v { font-size: 20px; font-variant-numeric: tabular-nums; margin-top: 2px; }
.cards { display: grid; grid-template-columns: repeat(auto-fill, minmax(340px, 1fr));
  gap: 12px; }
.card { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px 14px; }
.card h3 { margin: 0 0 2px; font-size: 13px; font-weight: 600; }
.card .stats { font-size: 11px; color: var(--ink-2);
  font-variant-numeric: tabular-nums; margin-bottom: 6px; }
.small .card { padding: 8px 10px; }
.small { grid-template-columns: repeat(auto-fill, minmax(180px, 1fr)); }
table { border-collapse: collapse; background: var(--surface);
  border: 1px solid var(--border); border-radius: 8px; width: 100%; }
th, td { text-align: left; padding: 6px 12px; font-size: 13px;
  border-bottom: 1px solid var(--border); font-variant-numeric: tabular-nums; }
th { font-size: 11px; color: var(--ink-2); text-transform: uppercase;
  letter-spacing: 0.04em; }
tr:last-child td { border-bottom: none; }
.badge { display: inline-block; border-radius: 999px; padding: 1px 10px;
  font-size: 12px; }
.badge.bad { background: var(--bad-soft); color: var(--bad); }
.badge.ok { background: #e8f1ec; color: var(--ok); }
pre { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 12px; overflow-x: auto; font-size: 12px; }
details > summary { cursor: pointer; color: var(--ink-2); margin: 10px 0; }
svg text { fill: var(--ink-3); font-size: 10px;
  font-family: system-ui, sans-serif; }
)css";

std::string esc(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string num(double v, int digits = 2) { return util::fmt(v, digits); }

/// One sparkline: min/max band + 2px mean line + invisible hover targets.
std::string sparkline(const Series& s, int width, int height) {
  const auto& pts = s.points();
  if (pts.empty()) return "";
  const double t0 = pts.front().t_first;
  const double t1 = std::max(pts.back().t_last, t0 + 1e-9);
  double vmin = s.minSeen(), vmax = s.maxSeen();
  if (vmax - vmin < 1e-12) {  // flat series: pad so the line sits mid-chart
    vmin -= 0.5;
    vmax += 0.5;
  }
  const double pad = 4.0;
  const double w = width, h = height;
  auto X = [&](double t) { return pad + (t - t0) / (t1 - t0) * (w - 2 * pad); };
  auto Y = [&](double v) {
    return h - pad - (v - vmin) / (vmax - vmin) * (h - 2 * pad);
  };
  auto xy = [&](double t, double v) {
    return num(X(t), 1) + "," + num(Y(v), 1);
  };

  std::string svg = "<svg viewBox=\"0 0 " + std::to_string(width) + " " +
                    std::to_string(height) +
                    "\" width=\"100%\" height=\"" + std::to_string(height) +
                    "\" role=\"img\" preserveAspectRatio=\"none\">";
  // Recessive baseline grid: just the bottom edge.
  svg += "<line x1=\"" + num(pad, 1) + "\" y1=\"" + num(h - pad, 1) +
         "\" x2=\"" + num(w - pad, 1) + "\" y2=\"" + num(h - pad, 1) +
         "\" stroke=\"var(--border)\" stroke-width=\"1\"/>";

  // min/max band (skip when it would be a sliver).
  bool band = false;
  for (const auto& p : pts) {
    if (p.max - p.min > 1e-12) band = true;
  }
  if (band) {
    std::string path = "M" + xy(pts.front().t_first, pts.front().max);
    for (const auto& p : pts) path += " L" + xy(p.t_first, p.max);
    for (auto it = pts.rbegin(); it != pts.rend(); ++it) {
      path += " L" + xy(it->t_first, it->min);
    }
    path += " Z";
    svg += "<path d=\"" + path + "\" fill=\"var(--accent-soft)\"/>";
  }

  std::string line;
  for (const auto& p : pts) {
    if (!line.empty()) line += ' ';
    line += xy(p.t_first, p.mean());
  }
  svg += "<polyline points=\"" + line +
         "\" fill=\"none\" stroke=\"var(--accent)\" stroke-width=\"2\" "
         "stroke-linejoin=\"round\" stroke-linecap=\"round\" "
         "vector-effect=\"non-scaling-stroke\"/>";

  // Native-tooltip hover targets: one transparent rect per retained point.
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double x_lo = i == 0 ? 0.0 : X(pts[i].t_first);
    const double x_hi = i + 1 < pts.size() ? X(pts[i + 1].t_first) : w;
    svg += "<rect x=\"" + num(x_lo, 1) + "\" y=\"0\" width=\"" +
           num(std::max(x_hi - x_lo, 1.0), 1) + "\" height=\"" +
           std::to_string(height) + "\" fill=\"transparent\"><title>t=" +
           num(pts[i].t_first, 1) + " s  mean=" + num(pts[i].mean(), 3) +
           "  min=" + num(pts[i].min, 3) + "  max=" + num(pts[i].max, 3) +
           "</title></rect>";
  }
  svg += "</svg>";
  return svg;
}

std::string seriesCard(const TimeSeriesStore::Key& key, const Series& s,
                       int width, int height) {
  std::string title = key.name;
  for (const auto& [k, v] : key.labels) title += " " + k + "=" + v;
  std::string card = "<div class=\"card\"><h3>" + esc(title) + "</h3>";
  card += "<div class=\"stats\">last " + num(s.last(), 3) + " · min " +
          num(s.minSeen(), 3) + " · mean " + num(s.mean(), 3) + " · max " +
          num(s.maxSeen(), 3) + " · " + std::to_string(s.sampleCount()) +
          " samples</div>";
  card += sparkline(s, width, height);
  card += "</div>";
  return card;
}

}  // namespace

std::string renderHtmlReport(const ReportContext& ctx) {
  std::string html = "<!doctype html><html lang=\"en\"><head><meta charset=\"utf-8\">";
  html += "<meta name=\"viewport\" content=\"width=device-width, initial-scale=1\">";
  html += "<title>" + esc(ctx.title) + "</title><style>" + kCss +
          "</style></head><body>";
  html += "<h1>" + esc(ctx.title) + "</h1>";
  html += "<div class=\"sub\">sns::telemetry report — Spread-n-Share "
          "reproduction</div>";

  if (!ctx.summary.empty()) {
    html += "<div class=\"tiles\">";
    for (const auto& [k, v] : ctx.summary) {
      html += "<div class=\"tile\"><div class=\"k\">" + esc(k) +
              "</div><div class=\"v\">" + esc(v) + "</div></div>";
    }
    html += "</div>";
  }

  if (ctx.watchdog != nullptr) {
    const auto& rules = ctx.watchdog->rules();
    const auto& status = ctx.watchdog->status();
    html += "<h2>SLO watchdog</h2><table><tr><th>rule</th><th>threshold</th>"
            "<th>status</th><th>episodes</th><th>ticks violated</th>"
            "<th>worst</th><th>first t (s)</th><th>last t (s)</th></tr>";
    for (std::size_t i = 0; i < rules.size(); ++i) {
      const auto& r = rules[i];
      const auto& st = status[i];
      const bool bad = st.episodes > 0;
      html += "<tr><td>" + esc(r.name) + "</td><td>" + num(r.threshold, 2) +
              "</td><td><span class=\"badge " + (bad ? "bad" : "ok") + "\">" +
              (bad ? "violated" : "met") + "</span></td><td>" +
              std::to_string(st.episodes) + "</td><td>" +
              std::to_string(st.ticks_violated) + "/" +
              std::to_string(st.ticks_evaluated) + "</td><td>" +
              (bad ? num(st.worst_observed, 2) : "–") + "</td><td>" +
              (bad ? num(st.first_violation_t, 1) : "–") + "</td><td>" +
              (bad ? num(st.last_violation_t, 1) : "–") + "</td></tr>";
    }
    html += "</table>";
  }

  if (!ctx.audit_text.empty()) {
    const bool bad = ctx.audit_violations > 0;
    html += "<h2>Invariant audit <span class=\"badge " +
            std::string(bad ? "bad" : "ok") + "\">" +
            (bad ? "violations" : "clean") + "</span></h2><pre>" +
            esc(ctx.audit_text) + "</pre>";
  }

  if (ctx.store != nullptr) {
    // Full-width cards for the cluster-level series, small multiples for
    // label-differentiated (per-node) instances.
    std::string big, small;
    for (const auto& [key, s] : ctx.store->all()) {
      if (s.empty()) continue;
      if (key.labels.empty()) {
        big += seriesCard(key, s, 620, 84);
      } else {
        small += seriesCard(key, s, 240, 44);
      }
    }
    if (!big.empty()) {
      html += "<h2>Cluster time series</h2><div class=\"cards\">" + big +
              "</div>";
    }
    if (!small.empty()) {
      html += "<h2>Per-node series</h2><div class=\"cards small\">" + small +
              "</div>";
    }
  }

  if (!ctx.xray_text.empty()) {
    html += "<h2>Decision anatomy</h2><pre>" + esc(ctx.xray_text) + "</pre>";
  }

  if (!ctx.flight_text.empty()) {
    const bool bad = ctx.flight_violations > 0;
    html += "<h2>Degradation accounting <span class=\"badge " +
            std::string(bad ? "bad" : "ok") + "\">" +
            (bad ? std::to_string(ctx.flight_violations) + " bound violations"
                 : "bounds held") +
            "</span></h2><pre>" + esc(ctx.flight_text) + "</pre>";
  }

  if (ctx.metrics != nullptr) {
    html += "<details><summary>metrics registry</summary><pre>" +
            esc(ctx.metrics->renderTable()) + "</pre></details>";
  }

  if (ctx.events_dropped > 0) {
    html += "<div class=\"sub\">⚠ event ring buffer dropped " +
            std::to_string(ctx.events_dropped) +
            " oldest events; the decision log is truncated.</div>";
  }

  html += "</body></html>";
  return html;
}

}  // namespace sns::telemetry
