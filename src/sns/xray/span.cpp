#include "sns/xray/span.hpp"

#include <algorithm>

#include "sns/util/error.hpp"
#include "sns/util/table.hpp"

namespace sns::xray {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kDecision: return "decision";
    case SpanKind::kCandidatePrune: return "candidate_prune";
    case SpanKind::kCurveScore: return "curve_score";
    case SpanKind::kSolverCall: return "solver_call";
    case SpanKind::kCommit: return "commit";
    case SpanKind::kRateRefresh: return "rate_refresh";
    case SpanKind::kBatchRefresh: return "batch_refresh";
    case SpanKind::kEvent: return "event";
    case SpanKind::kAccounting: return "accounting";
    case SpanKind::kFinish: return "finish";
    case SpanKind::kObserve: return "observe";
    case SpanKind::kCount_: break;
  }
  return "unknown";
}

Tracer::Tracer(TracerConfig cfg) : cfg_(cfg) {
  SNS_REQUIRE(cfg_.sample_period >= 1, "sample period must be >= 1");
  SNS_REQUIRE(cfg_.span_budget >= 1, "span budget must be >= 1");
  if (cfg_.provenance) {
    provenance_ = std::make_unique<ProvenanceStore>(cfg_.max_candidates);
  }
  // Microsecond buckets sized for the decision path: CE sits around the
  // bottom bucket, the contended SNS p99 around 5 ms.
  const std::vector<double> us_bounds = {0.5,  1,    2,    5,    10,   20,  50,
                                         100,  200,  500,  1000, 2000, 5000,
                                         10000};
  kind_us_.reserve(kSpanKindCount);
  for (std::size_t i = 0; i < kSpanKindCount; ++i) {
    kind_us_.emplace_back(us_bounds);
  }
}

void Tracer::openUnit(double sim_time, SpanKind root) {
  unit_sim_time_ = sim_time;
  unit_spans_ = 0;
  sampled_ = (units_ % static_cast<std::uint64_t>(cfg_.sample_period)) == 0;
  ++units_;
  if (!sampled_) return;
  unit_start_ = Clock::now();
  enter(root);
}

void Tracer::closeUnit() {
  if (sampled_) {
    exit();  // the unit's root
    SNS_REQUIRE(stack_.empty(), "unbalanced spans at the end of a unit");
  }
  sampled_ = false;
}

void Tracer::beginStep(double sim_time) {
  SNS_REQUIRE(!in_step_ && !in_pass_,
              "beginStep while a step or pass is open");
  in_step_ = true;
  ++steps_;
  openUnit(sim_time, SpanKind::kEvent);
  if (sampled_) ++sampled_steps_;
}

void Tracer::endStep() {
  SNS_REQUIRE(in_step_ && !in_pass_,
              "endStep without an open step, or inside a pass");
  closeUnit();
  in_step_ = false;
}

void Tracer::beginPass(double sim_time) {
  SNS_REQUIRE(!in_pass_, "beginPass while a pass is open");
  in_pass_ = true;
  pass_sim_time_ = sim_time;
  ++passes_;
  if (!in_step_) {
    openUnit(sim_time, SpanKind::kDecision);
  } else if (sampled_) {
    enter(SpanKind::kDecision);
  }
  if (sampled_) ++sampled_passes_;
}

void Tracer::endPass() {
  SNS_REQUIRE(in_pass_, "endPass without a pass open");
  if (!in_step_) {
    closeUnit();
  } else if (sampled_) {
    SNS_REQUIRE(stack_.back().kind == SpanKind::kDecision,
                "unbalanced spans at endPass");
    exit();
  }
  in_pass_ = false;
}

void Tracer::enter(SpanKind k, std::int64_t job) {
  Frame f;
  f.kind = k;
  f.job = job;
  if (unit_spans_ >= cfg_.span_budget) {
    // Over budget: keep the stack balanced so exit() pairing survives, but
    // read no clock and account nothing for this frame.
    f.dropped = true;
    f.path = stack_.empty() ? 0 : stack_.back().path;
    stack_.push_back(f);
    return;
  }
  ++unit_spans_;
  const std::uint64_t parent_path = stack_.empty() ? 0 : stack_.back().path;
  f.path = (parent_path << 5) | (static_cast<std::uint64_t>(k) + 1);
  f.start = Clock::now();
  stack_.push_back(f);
}

void Tracer::exit() {
  SNS_REQUIRE(!stack_.empty(), "span exit without matching enter");
  const Frame f = stack_.back();
  stack_.pop_back();
  if (f.dropped) {
    ++dropped_spans_;
    return;
  }
  const auto end = Clock::now();
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - f.start)
          .count());
  Stat& st = stats_[static_cast<std::size_t>(f.kind)];
  ++st.calls;
  st.total_ns += ns;
  const std::uint64_t self = ns >= f.child_ns ? ns - f.child_ns : 0;
  st.self_ns += self;
  if (ns > st.max_ns) st.max_ns = ns;
  folded_[f.path] += self;
  kind_us_[static_cast<std::size_t>(f.kind)].observe(static_cast<double>(ns) /
                                                     1e3);
  if (!stack_.empty()) stack_.back().child_ns += ns;
  if (cfg_.keep_records) {
    if (records_.size() < cfg_.max_records) {
      SpanRecord r;
      r.sim_time = unit_sim_time_;
      r.unit = units_ - 1;  // openUnit already advanced the ordinal
      r.kind = f.kind;
      r.depth = static_cast<std::uint8_t>(stack_.size());
      r.job = f.job;
      r.t0_ns = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(f.start -
                                                               unit_start_)
              .count());
      r.t1_ns = r.t0_ns + ns;
      records_.push_back(r);
    } else {
      ++dropped_records_;
    }
  }
}

std::uint64_t Tracer::totalSelfNs() const {
  std::uint64_t total = 0;
  for (const Stat& s : stats_) total += s.self_ns;
  return total;
}

std::string Tracer::foldedStacks() const {
  std::vector<std::pair<std::string, std::uint64_t>> lines;
  lines.reserve(folded_.size());
  // Walk order doesn't matter: each signature renders independently and
  // the lines are sorted before joining.
  // snslint: allow(unordered-iteration)
  for (const auto& [path, ns] : folded_) {
    std::vector<SpanKind> frames;
    for (std::uint64_t rest = path; rest != 0; rest >>= 5) {
      frames.push_back(static_cast<SpanKind>((rest & 31) - 1));
    }
    std::string sig;
    for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
      if (!sig.empty()) sig += ';';
      sig += to_string(*it);
    }
    lines.emplace_back(std::move(sig), ns);
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& [sig, ns] : lines) {
    out += sig;
    out += ' ';
    out += std::to_string(ns);
    out += '\n';
  }
  return out;
}

std::string Tracer::renderTable() const {
  const double total_ms = static_cast<double>(totalSelfNs()) / 1e6;
  util::Table t({"span", "calls", "incl ms", "self ms", "self %", "p50 us",
                 "p99 us", "max us"});
  for (std::size_t i = 0; i < kSpanKindCount; ++i) {
    const Stat& s = stats_[i];
    if (s.calls == 0) continue;
    const obs::Histogram& h = kind_us_[i];
    const double self_ms = static_cast<double>(s.self_ns) / 1e6;
    t.addRow({to_string(static_cast<SpanKind>(i)), std::to_string(s.calls),
              util::fmt(static_cast<double>(s.total_ns) / 1e6, 2),
              util::fmt(self_ms, 2),
              total_ms > 0.0 ? util::fmt(100.0 * self_ms / total_ms, 1) : "0.0",
              util::fmt(h.quantile(0.5), 1), util::fmt(h.quantile(0.99), 1),
              util::fmt(static_cast<double>(s.max_ns) / 1e3, 1)});
  }
  return t.render();
}

void Tracer::reset() {
  in_step_ = false;
  in_pass_ = false;
  sampled_ = false;
  unit_spans_ = 0;
  units_ = 0;
  steps_ = 0;
  sampled_steps_ = 0;
  passes_ = 0;
  sampled_passes_ = 0;
  dropped_spans_ = 0;
  dropped_records_ = 0;
  stats_.fill(Stat{});
  for (auto& h : kind_us_) {
    h = obs::Histogram({0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000,
                        5000, 10000});
  }
  stack_.clear();
  folded_.clear();
  records_.clear();
  if (provenance_ != nullptr) provenance_->reset();
}

}  // namespace sns::xray
