#include "sns/flight/flight.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sns/util/error.hpp"
#include "sns/util/hot_path.hpp"

namespace sns::flight {

namespace {

/// Below this solo runtime (seconds) a job's stretch is pinned to 1.0:
/// dividing by a zero/near-zero baseline would report inf/garbage stretch
/// for degenerate zero-duration jobs instead of "no meaningful slowdown".
constexpr double kMinSoloRuntime = 1e-12;

/// Per-job co-runner capacity reserved at onStart so steady-state settles
/// and reopens stay heap-silent: a job meeting its 65th *distinct*
/// co-runner would re-grow, which the alloc contract test would flag —
/// acceptable, since such a job's rollup is dominated by merge noise
/// anyway and the growth is one doubling, not a leak.
constexpr std::size_t kCorunnerReserve = 64;

Interval mergePair(const Interval& a, const Interval& b) {
  Interval m = a;  // keeps a.node (first raw's bottleneck)
  m.t1 = b.t1;
  m.work += b.work;
  m.deficit += b.deficit;
  m.llc_s += b.llc_s;
  m.membw_s += b.membw_s;
  m.net_s += b.net_s;
  m.other_s += b.other_s;
  m.corunners = std::max(a.corunners, b.corunners);
  m.raws += b.raws;
  return m;
}

}  // namespace

FlightRecorder::FlightRecorder(FlightConfig cfg) : cfg_(cfg) {
  if (cfg_.interval_budget < 4) cfg_.interval_budget = 4;
  if (cfg_.interval_budget % 2 != 0) ++cfg_.interval_budget;
}

void FlightRecorder::beginRun(std::size_t n_jobs, int nodes) {
  jobs_.assign(n_jobs, JobRollup{});
  open_.assign(n_jobs, OpenState{});
  node_slowdown_.assign(nodes > 0 ? static_cast<std::size_t>(nodes) : 0, 0.0);
  census_ = Census{};
  run_complete_ = false;
}

JobRollup& FlightRecorder::rollup(JobId id) {
  SNS_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < jobs_.size(),
              "flight: job id outside the range announced by beginRun()");
  return jobs_[static_cast<std::size_t>(id)];
}

void FlightRecorder::onStart(JobId id, const std::string& program,
                             double submit, double now, double solo_comp,
                             double solo_comm, double solo_wait,
                             double solo_rate, double alpha) {
  JobRollup& jr = rollup(id);
  jr.id = id;
  jr.program = program;
  jr.alpha = alpha;
  jr.submit = submit;
  jr.start = now;
  jr.solo_comp = solo_comp;
  jr.solo_comm = solo_comm;
  jr.solo_wait = solo_wait;
  jr.t_solo = solo_comp + solo_comm + solo_wait;
  jr.solo_rate = solo_rate;
  jr.first_open = now;
  jr.queue_wait = now - submit;
  // Open a placeholder interval at the start instant; the rate refresh
  // that follows the placement (same `now`) settles it at zero length and
  // reopens with the first real co-run context, so coverage starts
  // bit-exactly at `start`.
  OpenState& st = open_[static_cast<std::size_t>(id)];
  st.open = true;
  st.t0 = now;
  st.rate = 0.0;
  st.node = -1;
  st.corunners = 0;
  st.f_llc = st.f_membw = st.f_net = 0.0;
  st.weights.clear();
  // Job start is a rate boundary: pre-size everything the per-boundary
  // paths (settle/reopen) append to, so they never grow a vector mid-run.
  // The interval store's size is hard-capped at the budget (compaction
  // halves it in place), so this reserve is exact, not a guess.
  jr.intervals.reserve(cfg_.interval_budget);
  jr.corunners.reserve(kCorunnerReserve);
  st.weights.reserve(kCorunnerReserve);
}

void FlightRecorder::settle(JobId id, double now) {
  SNS_HOT_PATH("flight.settle");
  JobRollup& jr = rollup(id);
  OpenState& st = open_[static_cast<std::size_t>(id)];
  if (!st.open) return;
  st.open = false;
  const double dt = now - st.t0;
  if (dt <= 0.0) return;  // same-instant re-settle: structural no-op
  jr.last_close = now;

  const double work = dt * st.rate;
  // Canonical per-interval deficit: the auditor replays this expression
  // verbatim. Sum(dt) telescopes to actual runtime, Sum(work) to ~1, so
  // Sum(D) reconciles with actual - t_solo up to one closure residual.
  const double deficit = dt - jr.t_solo * work;
  jr.attributed += deficit;
  jr.work += work;
  ++jr.raw_intervals;

  // Resource axis: fractions frozen at open; residual construction makes
  // llc + membw + net + other == deficit exactly, interval by interval.
  const double llc = deficit * st.f_llc;
  const double membw = deficit * st.f_membw;
  const double net = deficit * st.f_net;
  const double other = deficit - llc - membw - net;
  jr.llc_s += llc;
  jr.membw_s += membw;
  jr.net_s += net;
  jr.other_s += other;

  if (st.node >= 0 && static_cast<std::size_t>(st.node) < node_slowdown_.size())
    node_slowdown_[static_cast<std::size_t>(st.node)] += deficit;

  // Co-runner axis: same residual construction into self_s.
  double assigned = 0.0;
  for (const auto& [other_id, w] : st.weights) {
    const double s = deficit * w;
    addCorunnerSeconds(jr, other_id, s);
    assigned += s;
  }
  jr.self_s += deficit - assigned;

  Interval iv;
  iv.t0 = st.t0;
  iv.t1 = now;
  iv.work = work;
  iv.deficit = deficit;
  iv.llc_s = llc;
  iv.membw_s = membw;
  iv.net_s = net;
  iv.other_s = other;
  iv.node = st.node;
  iv.corunners = st.corunners;
  iv.raws = 1;
  appendInterval(jr, iv);
}

void FlightRecorder::reopen(JobId id, const OpenContext& ctx) {
  SNS_HOT_PATH("flight.reopen");
  JobRollup& jr = rollup(id);
  OpenState& st = open_[static_cast<std::size_t>(id)];
  SNS_REQUIRE(!st.open, "flight: reopen() without a preceding settle()");
  st.open = true;
  st.t0 = ctx.now;
  st.rate = ctx.rate;
  st.node = ctx.bottleneck_node;
  st.corunners = static_cast<int>(ctx.comp_deltas.size());

  // Decompose the deficit fraction-wise while the solver context is hot.
  // t_inst - t_solo == comp*(stretch-1) + comm*(net_over-1) identically,
  // so f_llc + f_membw + f_net == 1 up to rounding whenever denom != 0;
  // the uncontended case (stretch == net_over == 1 exactly, multiplication
  // by 1.0 is exact) yields denom == 0 and zero fractions.
  const double denom = ctx.t_inst - jr.t_solo;
  if (denom != 0.0) {
    // stretch_llc: slowdown from LLC-way sharing alone (the solver's
    // bandwidth-unconstrained rate). Under way donation raw_rate_pp can
    // exceed solo_rate — negative LLC share records a speedup.
    const double stretch_llc =
        ctx.raw_rate_pp > 0.0 ? jr.solo_rate / ctx.raw_rate_pp : ctx.stretch;
    st.f_llc = jr.solo_comp * (stretch_llc - 1.0) / denom;
    st.f_membw = jr.solo_comp * (ctx.stretch - stretch_llc) / denom;
    st.f_net = jr.solo_comm * (ctx.net_over - 1.0) / denom;
  } else {
    st.f_llc = st.f_membw = st.f_net = 0.0;
  }

  // Co-runner weights: compute share split by leave-one-out rate deltas on
  // the bottleneck node, network share by NIC-demand shares on the
  // most-oversubscribed node. Unattributable mass (no measurable delta)
  // stays in the job's self bucket.
  st.weights.clear();
  const double comp_frac = st.f_llc + st.f_membw;
  if (comp_frac != 0.0 && !ctx.comp_deltas.empty()) {
    double sum = 0.0;
    for (const auto& [k, d] : ctx.comp_deltas) sum += std::max(d, 0.0);
    if (sum > 0.0)
      for (const auto& [k, d] : ctx.comp_deltas)
        st.weights.emplace_back(k, comp_frac * std::max(d, 0.0) / sum);
  }
  if (st.f_net != 0.0 && !ctx.net_shares.empty()) {
    double sum = 0.0;
    for (const auto& [k, d] : ctx.net_shares) sum += std::max(d, 0.0);
    if (sum > 0.0)
      for (const auto& [k, d] : ctx.net_shares)
        st.weights.emplace_back(k, st.f_net * std::max(d, 0.0) / sum);
  }
  if (st.weights.size() > 1) {
    std::sort(st.weights.begin(), st.weights.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t i = 1; i < st.weights.size(); ++i) {
      if (st.weights[i].first == st.weights[out].first)
        st.weights[out].second += st.weights[i].second;
      else
        st.weights[++out] = st.weights[i];
    }
    st.weights.resize(out + 1);
  }
}

void FlightRecorder::onFinish(JobId id, double now) {
  settle(id, now);
  JobRollup& jr = rollup(id);
  jr.finish = now;
  jr.finished = true;
  jr.actual = now - jr.start;
  jr.target = jr.actual - jr.t_solo;
  // One fixed expression order for the closure residual; the auditor
  // recomputes it bit-exactly from the same stored fields.
  jr.closure = jr.target - jr.attributed;
  jr.stretch = jr.t_solo > kMinSoloRuntime ? jr.actual / jr.t_solo : 1.0;
  jr.bound = jr.alpha > 0.0 ? 1.0 / jr.alpha
                            : std::numeric_limits<double>::infinity();
  jr.bound_violated = jr.stretch > jr.bound + kBoundSlack;
}

void FlightRecorder::endRun(double makespan) {
  census_ = Census{};
  census_.makespan = makespan;
  census_.jobs = jobs_.size();
  for (const JobRollup& jr : jobs_) {  // ascending id: jobs_ is id-indexed
    if (jr.start < 0.0) continue;
    if (!jr.finished) continue;
    ++census_.finished;
    if (jr.bound_violated) ++census_.violations;
    census_.total_attributed += jr.attributed;
    census_.total_llc += jr.llc_s;
    census_.total_membw += jr.membw_s;
    census_.total_net += jr.net_s;
    census_.total_other += jr.other_s;
    census_.total_queue_wait += jr.queue_wait;
    if (jr.stretch > census_.worst_stretch) {
      census_.worst_stretch = jr.stretch;
      census_.worst_job = jr.id;
    }
    census_.max_abs_closure =
        std::max(census_.max_abs_closure, std::abs(jr.closure));
  }
  if (metrics_ != nullptr) {
    metrics_->gauge("degradation.attributed_slowdown_s")
        .set(census_.total_attributed);
    metrics_->gauge("degradation.llc_slowdown_s").set(census_.total_llc);
    metrics_->gauge("degradation.membw_slowdown_s").set(census_.total_membw);
    metrics_->gauge("degradation.net_slowdown_s").set(census_.total_net);
    metrics_->gauge("degradation.bound_violations")
        .set(static_cast<double>(census_.violations));
    metrics_->gauge("degradation.worst_stretch").set(census_.worst_stretch);
    metrics_->gauge("degradation.queue_wait_s").set(census_.total_queue_wait);
    metrics_->gauge("degradation.jobs_accounted")
        .set(static_cast<double>(census_.finished));
  }
  run_complete_ = true;
}

const JobRollup* FlightRecorder::find(JobId id) const {
  if (id < 0 || static_cast<std::size_t>(id) >= jobs_.size()) return nullptr;
  return &jobs_[static_cast<std::size_t>(id)];
}

void FlightRecorder::appendInterval(JobRollup& jr, const Interval& raw) {
  const std::uint32_t tail_cap = 1u << jr.compaction_level;
  if (!jr.intervals.empty() && jr.intervals.back().raws < tail_cap) {
    jr.intervals.back() = mergePair(jr.intervals.back(), raw);
    return;
  }
  jr.intervals.push_back(raw);
  if (jr.intervals.size() >= cfg_.interval_budget) {
    // Index-aligned 2:1 pair merge (telemetry::Series discipline): the
    // retained store is a pure function of the append sequence, so runs
    // with identical settle streams keep byte-identical stores.
    std::size_t out = 0;
    for (std::size_t i = 0; i + 1 < jr.intervals.size(); i += 2)
      jr.intervals[out++] = mergePair(jr.intervals[i], jr.intervals[i + 1]);
    if (jr.intervals.size() % 2 != 0)
      jr.intervals[out++] = jr.intervals.back();
    jr.intervals.resize(out);
    ++jr.compaction_level;
  }
}

void FlightRecorder::addCorunnerSeconds(JobRollup& jr, JobId other,
                                        double seconds) {
  auto it = std::lower_bound(
      jr.corunners.begin(), jr.corunners.end(), other,
      [](const CorunnerShare& c, JobId id) { return c.other < id; });
  if (it != jr.corunners.end() && it->other == other) {
    it->seconds += seconds;
  } else {
    jr.corunners.insert(it, CorunnerShare{other, seconds});
  }
}

util::Json FlightRecorder::toJson() const {
  util::Json::Array jobs;
  jobs.reserve(jobs_.size());
  for (const JobRollup& jr : jobs_) {
    util::Json::Object o;
    o["id"] = jr.id;
    o["program"] = jr.program;
    o["alpha"] = jr.alpha;
    o["submit"] = jr.submit;
    o["start"] = jr.start;
    o["finish"] = jr.finish;
    o["t_solo"] = jr.t_solo;
    o["solo_rate"] = jr.solo_rate;
    o["queue_wait"] = jr.queue_wait;
    o["actual"] = jr.actual;
    o["target"] = jr.target;
    o["attributed"] = jr.attributed;
    o["closure"] = jr.closure;
    o["work"] = jr.work;
    o["stretch"] = jr.stretch;
    o["bound"] = jr.bound;
    o["bound_violated"] = jr.bound_violated;
    o["llc_s"] = jr.llc_s;
    o["membw_s"] = jr.membw_s;
    o["net_s"] = jr.net_s;
    o["other_s"] = jr.other_s;
    o["self_s"] = jr.self_s;
    o["raw_intervals"] = static_cast<std::int64_t>(jr.raw_intervals);
    o["first_open"] = jr.first_open;
    o["last_close"] = jr.last_close;
    util::Json::Array cr;
    cr.reserve(jr.corunners.size());
    for (const CorunnerShare& c : jr.corunners) {
      util::Json::Object co;
      co["job"] = c.other;
      co["seconds"] = c.seconds;
      cr.push_back(std::move(co));
    }
    o["corunners"] = std::move(cr);
    util::Json::Array iv;
    iv.reserve(jr.intervals.size());
    for (const Interval& in : jr.intervals) {
      util::Json::Object io;
      io["t0"] = in.t0;
      io["t1"] = in.t1;
      io["work"] = in.work;
      io["deficit"] = in.deficit;
      io["llc_s"] = in.llc_s;
      io["membw_s"] = in.membw_s;
      io["net_s"] = in.net_s;
      io["other_s"] = in.other_s;
      io["node"] = in.node;
      io["corunners"] = in.corunners;
      io["raws"] = static_cast<std::int64_t>(in.raws);
      iv.push_back(std::move(io));
    }
    o["intervals"] = std::move(iv);
    jobs.push_back(std::move(o));
  }

  util::Json::Object census;
  census["jobs"] = census_.jobs;
  census["finished"] = census_.finished;
  census["violations"] = census_.violations;
  census["total_attributed"] = census_.total_attributed;
  census["total_llc"] = census_.total_llc;
  census["total_membw"] = census_.total_membw;
  census["total_net"] = census_.total_net;
  census["total_other"] = census_.total_other;
  census["total_queue_wait"] = census_.total_queue_wait;
  census["worst_stretch"] = census_.worst_stretch;
  census["worst_job"] = census_.worst_job;
  census["max_abs_closure"] = census_.max_abs_closure;
  census["makespan"] = census_.makespan;

  util::Json::Array nodes;
  nodes.reserve(node_slowdown_.size());
  for (double v : node_slowdown_) nodes.push_back(v);

  util::Json::Object root;
  root["jobs"] = std::move(jobs);
  root["census"] = std::move(census);
  root["node_slowdown"] = std::move(nodes);
  root["run_complete"] = run_complete_;
  return root;
}

void FlightRecorder::debugCorruptJob(JobId id) {
  JobRollup& jr = rollup(id);
  jr.attributed += 1.0;
}

}  // namespace sns::flight
