#include "layer_replay.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sns/actuator/resource_ledger.hpp"
#include "sns/app/comm.hpp"
#include "sns/perfmodel/contention.hpp"
#include "sns/perfmodel/solver_cache.hpp"
#include "sns/sched/finish_calendar.hpp"
#include "sns/sched/policy.hpp"
#include "sns/sched/queue.hpp"

namespace perfbench {

using namespace sns;
using sched::JobId;

namespace {

// trace::simulateTrace's queue scan window and backfill age limit: the
// mirrored walk visits the jobs the simulator's walk visits.
constexpr int kMaxQueueScan = 256;
constexpr double kAgeLimitS = 14.0 * 86400.0;

// Order at equal times: finishes free capacity and submissions join the
// queue before the scheduling pass places anything.
enum class Kind : std::uint8_t { kFinish, kSubmit, kStart };

struct TimelineEvent {
  double t;
  Kind kind;
  JobId id;
  double submit;  ///< tie-break for starts: queue priority is (submit, id)
};

std::vector<TimelineEvent> buildTimeline(const sim::SimResult& res) {
  std::vector<TimelineEvent> tl;
  tl.reserve(3 * res.jobs.size());
  for (const sim::JobRecord& j : res.jobs) {
    tl.push_back({j.submit, Kind::kSubmit, j.id, j.submit});
    tl.push_back({j.start, Kind::kStart, j.id, j.submit});
    tl.push_back({j.finish, Kind::kFinish, j.id, j.submit});
  }
  std::sort(tl.begin(), tl.end(), [](const TimelineEvent& a, const TimelineEvent& b) {
    const double sa = a.kind == Kind::kStart ? a.submit : 0.0;
    const double sb = b.kind == Kind::kStart ? b.submit : 0.0;
    return std::tie(a.t, a.kind, sa, a.id) < std::tie(b.t, b.kind, sb, b.id);
  });
  return tl;
}

bool samePlacement(const sched::Placement& a, const sched::Placement& b) {
  return a.nodes == b.nodes && a.procs_per_node == b.procs_per_node &&
         a.scale_factor == b.scale_factor && a.ways == b.ways &&
         std::bit_cast<std::uint64_t>(a.bw_gbps) ==
             std::bit_cast<std::uint64_t>(b.bw_gbps) &&
         std::bit_cast<std::uint64_t>(a.net_gbps) ==
             std::bit_cast<std::uint64_t>(b.net_gbps) &&
         a.exclusive == b.exclusive;
}

std::uint64_t hashResidents(const std::vector<JobId>& r) {
  std::uint64_t h = 1469598103934665603ull;
  for (JobId id : r) {
    h ^= static_cast<std::uint64_t>(id);
    h *= 1099511628211ull;
  }
  return h;
}

class Replayer {
 public:
  Replayer(const Setup& s, const Workload& w, const sim::SimResult& res,
           SpanRecorder* rec)
      : s_(s),
        res_(res),
        rec_(rec),
        policy_(sched::makePolicy(w.policy, s.est)),
        ledger_(w.nodes, s.est.machine()),
        cache_(s.est.solver()),
        residents_(static_cast<std::size_t>(w.nodes)) {
    const std::size_t n = res.jobs.size();
    jobs_.reserve(n);
    for (const sim::JobRecord& r : res.jobs) {
      sched::Job j;
      j.id = r.id;
      j.spec = r.spec;
      j.program = &app::findProgram(s.lib, r.spec.program);
      j.submit_time = r.submit;
      jobs_.push_back(std::move(j));
    }
    remote_frac_.assign(n, 0.0);
    job_stamp_.assign(n, 0);
    queued_.assign(n, 0);
    calendar_.reset(n);
  }

  LayerCounts run() {
    const std::vector<TimelineEvent> tl = buildTimeline(res_);
    std::size_t i = 0;
    while (i < tl.size()) {
      const double t = tl[i].t;
      for (; i < tl.size() && tl[i].t == t && tl[i].kind != Kind::kStart; ++i) {
        if (tl[i].kind == Kind::kFinish) {
          finish(tl[i].id);
        } else {
          submit(tl[i].id);
        }
      }
      pass(t);
      for (; i < tl.size() && tl[i].t == t; ++i) start(tl[i].id);
      if (busy_nodes_ > 0) {
        c_.residents_per_busy_sum +=
            static_cast<double>(residencies_) / static_cast<double>(busy_nodes_);
        ++c_.residents_samples;
      }
    }
    return c_;
  }

 private:
  const sim::JobRecord& record(JobId id) const {
    return res_.jobs[static_cast<std::size_t>(id)];
  }

  void submit(JobId id) {
    EventSpan ev(rec_, SpanName::kEventSubmit);
    queued_[static_cast<std::size_t>(id)] = 1;
    ScopedSpan sp(rec_, SpanName::kQueuePush);
    queue_.push(jobs_[static_cast<std::size_t>(id)]);
  }

  /// The scheduling point at time t, before its starts: walk the queue as
  /// the simulator's pass does (removing this point's starters), then ask
  /// the policy to place the head if the head does not start here.
  void pass(double t) {
    const std::size_t depth = queue_.size();
    ++c_.points;
    c_.depth_sum += static_cast<double>(depth);
    c_.depth_max = std::max<std::uint64_t>(c_.depth_max, depth);
    if (depth == 0) return;
    EventSpan ev(rec_, SpanName::kEventPass);
    ++c_.passes;
    JobId head = -1;
    bool head_starts = false;
    {
      ScopedSpan sp(rec_, SpanName::kQueueWalk);
      int scanned = 0;
      queue_.walk([&](const sched::Job& job) {
        using W = sched::JobQueue::Walk;
        if (++scanned > kMaxQueueScan) return W::kStop;
        const bool starts_here = record(job.id).start == t;
        if (head < 0) {
          head = job.id;
          head_starts = starts_here;
        }
        if (starts_here) {
          --scanned;
          queued_[static_cast<std::size_t>(job.id)] = 0;
          return W::kRemove;
        }
        if (scanned == 1 && job.age(t) > kAgeLimitS) return W::kStop;
        return W::kContinue;
      });
    }
    if (head >= 0 && !head_starts) {
      ++c_.reject_calls;
      std::optional<sched::Placement> p;
      {
        ScopedSpan sp(rec_, SpanName::kPolicyReject);
        p = policy_->tryPlace(jobs_[static_cast<std::size_t>(head)], ledger_, s_.db);
      }
      if (!p.has_value()) ++c_.reject_matches;
    }
  }

  void start(JobId id) {
    EventSpan ev(rec_, SpanName::kEventStart);
    ++c_.starts;
    const sim::JobRecord& r = record(id);
    const sched::Job& job = jobs_[static_cast<std::size_t>(id)];
    if (queued_[static_cast<std::size_t>(id)]) {
      // The mirrored walk should have reached every starter.
      queued_[static_cast<std::size_t>(id)] = 0;
      ++c_.walk_misses;
      ScopedSpan sp(rec_, SpanName::kQueueRemove);
      queue_.remove(id);
    }

    ++c_.place_calls;
    std::optional<sched::Placement> p;
    {
      ScopedSpan sp(rec_, SpanName::kPolicyPlace);
      p = policy_->tryPlace(job, ledger_, s_.db);
    }
    if (p.has_value() && samePlacement(*p, r.placement)) ++c_.place_matches;

    // The recorded placement is what gets committed, so the replay stays on
    // the recorded trajectory even if the policy disagreed.
    const sched::Placement& rp = r.placement;
    const actuator::NodeAllocation alloc = rp.nodeAllocation();
    {
      std::vector<int> nodes;
      {
        ScopedSpan sp(rec_, SpanName::kLedgerSelect);
        nodes = ledger_.selectNodes(rp.nodeCount(), alloc);
      }
      if (nodes == rp.nodes) ++c_.select_matches;
    }
    {
      ScopedSpan sp(rec_, SpanName::kLedgerAllocate,
                    static_cast<std::uint32_t>(rp.nodes.size()));
      for (int nd : rp.nodes) ledger_.allocate(nd, id, alloc);
    }
    c_.alloc_nodes += rp.nodes.size();

    remote_frac_[static_cast<std::size_t>(id)] = app::remoteFraction(
        job.program->comm.pattern, job.spec.procs, rp.procs_per_node, rp.nodeCount());
    for (int nd : rp.nodes) {
      auto& on = residents_[static_cast<std::size_t>(nd)];
      if (on.empty()) ++busy_nodes_;
      on.push_back(id);
    }
    residencies_ += rp.nodes.size();
    ++active_;
    c_.active_max = std::max(c_.active_max, active_);

    refreshSolves(rp.nodes);
    ScopedSpan sp(rec_, SpanName::kCalendar);
    calendar_.insert(id, r.finish);
    std::uint32_t ops = 1;
    for (JobId other : affected_) {
      if (other == id) continue;
      calendar_.upsert(other, record(other).finish);
      ++ops;
    }
    sp.setOps(ops);
    c_.calendar_ops += ops;
  }

  void finish(JobId id) {
    EventSpan ev(rec_, SpanName::kEventFinish);
    ++c_.finishes;
    JobId popped = -1;
    if (!calendar_.empty()) {
      ScopedSpan sp(rec_, SpanName::kCalendar);
      popped = calendar_.pop();
      ++c_.calendar_ops;
    }
    if (popped != id) ++c_.calendar_misorders;

    const sched::Placement& rp = record(id).placement;
    {
      ScopedSpan sp(rec_, SpanName::kLedgerRelease,
                    static_cast<std::uint32_t>(rp.nodes.size()));
      for (int nd : rp.nodes) ledger_.release(nd, id);
    }
    c_.release_nodes += rp.nodes.size();
    for (int nd : rp.nodes) {
      auto& on = residents_[static_cast<std::size_t>(nd)];
      on.erase(std::find(on.begin(), on.end(), id));
      if (on.empty()) --busy_nodes_;
    }
    residencies_ -= rp.nodes.size();
    --active_;

    refreshSolves(rp.nodes);
    if (affected_.empty()) return;
    ScopedSpan sp(rec_, SpanName::kCalendar,
                  static_cast<std::uint32_t>(affected_.size()));
    for (JobId other : affected_) calendar_.upsert(other, record(other).finish);
    c_.calendar_ops += affected_.size();
  }

  /// Re-solve the nodes an event touched, once per group of nodes with an
  /// identical resident list (every node of a uniform placement shares
  /// one), and collect the jobs resident on them into affected_. Grouping
  /// is bookkeeping and stays outside the spans.
  void refreshSolves(const std::vector<int>& dirty) {
    reps_.clear();
    rep_of_hash_.clear();
    affected_.clear();
    ++stamp_epoch_;
    for (int nd : dirty) {
      const auto& on = residents_[static_cast<std::size_t>(nd)];
      if (on.empty()) continue;
      ++c_.group_nodes;
      std::uint64_t h = hashResidents(on);
      while (true) {
        auto [it, fresh] = rep_of_hash_.try_emplace(h, reps_.size());
        if (fresh) {
          reps_.push_back(nd);
          break;
        }
        if (residents_[static_cast<std::size_t>(reps_[it->second])] == on) break;
        ++h;  // hash collision between different resident lists
      }
    }
    c_.groups += reps_.size();
    for (int nd : reps_) {
      const auto& on = residents_[static_cast<std::size_t>(nd)];
      const actuator::NodeLedger& node = ledger_.node(nd);
      shares_.clear();
      for (JobId id : on) {
        const sched::Job& job = jobs_[static_cast<std::size_t>(id)];
        const actuator::NodeAllocation& a = node.allocation(id);
        shares_.push_back({job.program, record(id).placement.procs_per_node,
                           node.effectiveWays(a),
                           remote_frac_[static_cast<std::size_t>(id)], 1.0, 0.0});
        auto& stamp = job_stamp_[static_cast<std::size_t>(id)];
        if (stamp != stamp_epoch_) {
          stamp = stamp_epoch_;
          affected_.push_back(id);
        }
      }
      const std::uint64_t misses0 = cache_.misses();
      {
        ScopedSpan sp(rec_, SpanName::kSolverLookup);
        (void)cache_.solve(shares_);
      }
      ++c_.lookups;
      if (cache_.misses() == misses0) {
        ++c_.hits;
      } else {
        // The cost of a miss on its own: the flat solve the simulator
        // fills misses with.
        ScopedSpan sp(rec_, SpanName::kSolverMiss);
        s_.est.solver().solveInto(shares_, scratch_, outcomes_);
      }
    }
    std::sort(affected_.begin(), affected_.end());
  }

  const Setup& s_;
  const sim::SimResult& res_;
  SpanRecorder* rec_;
  std::unique_ptr<sched::SchedulingPolicy> policy_;
  actuator::ResourceLedger ledger_;
  sched::JobQueue queue_;
  sched::FinishCalendar calendar_;
  perfmodel::SolverCache cache_;
  perfmodel::SolveScratch scratch_;
  std::vector<perfmodel::ShareOutcome> outcomes_;

  std::vector<sched::Job> jobs_;
  std::vector<double> remote_frac_;
  std::vector<std::vector<JobId>> residents_;  ///< per node, arrival order
  std::size_t busy_nodes_ = 0;
  std::size_t residencies_ = 0;
  std::uint64_t active_ = 0;
  std::vector<char> queued_;  ///< job is in queue_

  std::vector<int> reps_;
  std::unordered_map<std::uint64_t, std::size_t> rep_of_hash_;
  std::vector<perfmodel::NodeShare> shares_;
  std::vector<JobId> affected_;
  std::vector<std::uint32_t> job_stamp_;
  std::uint32_t stamp_epoch_ = 0;

  LayerCounts c_;
};

}  // namespace

LayerCounts replayLayers(const Setup& s, const Workload& w, const sim::SimResult& res,
                         SpanRecorder* rec) {
  Replayer r(s, w, res, rec);
  return r.run();
}

}  // namespace perfbench
