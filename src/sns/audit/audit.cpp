#include "sns/audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sns::audit {

namespace {
/// |a - b| within `rel` of max(1, |b|): the comparison used for the two
/// cached floating-point aggregates that legitimately drift by ulps
/// (incremental += / -= vs a fresh left-to-right resummation).
bool near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max(1.0, std::abs(b));
}

/// Relative tolerance for a node's bandwidth occupancy: its reservation
/// sum is a running +=/-= total, which drifts from a fresh left-to-right
/// resummation by at most one ulp per allocate/release.
constexpr double kBwTotalRelEps = 1e-9;

/// Relative tolerance for the flight ledger's accumulated sums (closure
/// residual, work conservation, axis totals): thousands of interval
/// closes accumulate FP dust proportional to the job's runtime scale. A
/// dropped or double-counted interval exceeds this by many orders of
/// magnitude.
constexpr double kFlightRelEps = 1e-6;
}  // namespace

void Auditor::check(bool ok_cond, std::string_view check_name, double observed,
                    double expected, const std::string& detail) {
  ++checks_run_;
  if (ok_cond) return;
  ++total_violations_;
  if (violations_.size() < cfg_.max_recorded) {
    violations_.push_back(
        {std::string(check_name), detail, observed, expected});
  }
  if (rec_ != nullptr) {
    rec_->auditViolation(check_name, observed, expected, detail);
  }
  if (cfg_.fail_fast) {
    throw AuditError(std::string(check_name) + ": " + detail);
  }
}

std::size_t Auditor::auditLedger(const actuator::ResourceLedger& ledger) {
  const std::uint64_t before = total_violations_;
  const hw::MachineConfig& mach = ledger.machine();
  const int n = ledger.nodeCount();
  const int buckets = ledger.bucketCount();

  std::int64_t sum_cores = 0;
  std::int64_t sum_ways = 0;
  std::int64_t sum_bw_units = 0;
  int idle_nodes = 0;
  std::vector<std::int64_t> members(static_cast<std::size_t>(buckets), 0);

  for (int id = 0; id < n; ++id) {
    const actuator::NodeLedger& node = ledger.node(id);
    std::int64_t cores = 0;
    std::int64_t ways = 0;
    double bw = 0.0;
    bool exclusive = false;
    for (const auto& [job, alloc] : node.allocations()) {
      cores += alloc.cores;
      ways += alloc.ways;
      bw += alloc.bw_gbps;
      sum_bw_units += actuator::ResourceLedger::bwUnits(alloc.bw_gbps);
      exclusive = exclusive || alloc.exclusive;
    }
    const auto tag = [id](const char* what) {
      return "node " + std::to_string(id) + ": " + what;
    };
    // Per-node counters vs a re-sum of the resident allocations. Cores and
    // ways are integers, so the cached values must match exactly; the
    // cached occupancy fractions must reproduce bit-for-bit when the same
    // division is re-run on the re-summed numerators.
    check(node.idleCores() == mach.cores - cores, "ledger.node_cores",
          node.idleCores(), static_cast<double>(mach.cores - cores),
          tag("cached idle-core count disagrees with resident allocations"));
    check(node.freeWays() == mach.llc_ways - ways, "ledger.node_ways",
          node.freeWays(), static_cast<double>(mach.llc_ways - ways),
          tag("cached free-way count disagrees with resident allocations"));
    check(node.coreOccupancy() ==
              static_cast<double>(cores) / mach.cores,
          "ledger.node_core_occ", node.coreOccupancy(),
          static_cast<double>(cores) / mach.cores,
          tag("cached core occupancy is not the recomputed fraction"));
    check(node.wayOccupancy() ==
              static_cast<double>(ways) / mach.llc_ways,
          "ledger.node_way_occ", node.wayOccupancy(),
          static_cast<double>(ways) / mach.llc_ways,
          tag("cached way occupancy is not the recomputed fraction"));
    check(near(node.bwOccupancy(), bw / mach.peakBandwidth(),
               kBwTotalRelEps),
          "ledger.node_bw_occ", node.bwOccupancy(), bw / mach.peakBandwidth(),
          tag("cached bandwidth occupancy drifted beyond ulp tolerance"));
    check(node.hasExclusiveJob() == exclusive, "ledger.node_exclusive",
          node.hasExclusiveJob() ? 1.0 : 0.0, exclusive ? 1.0 : 0.0,
          tag("cached exclusive flag disagrees with resident allocations"));

    sum_cores += cores;
    sum_ways += ways;
    if (node.idle()) ++idle_nodes;

    // Idle-core index: the node must be in exactly the bucket keyed by its
    // recomputed idle-core count, and in no other.
    const int idle = mach.cores - static_cast<int>(cores);
    for (int c = 0; c < buckets; ++c) {
      if (!ledger.bucket(c).contains(id)) continue;
      ++members[static_cast<std::size_t>(c)];
      check(c == idle, "ledger.bucket_membership", c, idle,
            tag("indexed in the wrong idle-core bucket"));
    }
    check(idle >= 0 && idle < buckets && ledger.bucket(idle).contains(id),
          "ledger.bucket_missing", 0.0, idle,
          tag("missing from its idle-core bucket"));
  }

  for (int c = 0; c < buckets; ++c) {
    check(ledger.bucket(c).size() == members[static_cast<std::size_t>(c)],
          "ledger.bucket_count", ledger.bucket(c).size(),
          static_cast<double>(members[static_cast<std::size_t>(c)]),
          "bucket " + std::to_string(c) +
              ": cached population disagrees with enumeration");
  }

  // Cluster-wide cached totals (the O(1) occupancy means and free list).
  check(ledger.cachedTotalCoresUsed() == sum_cores, "ledger.core_total",
        static_cast<double>(ledger.cachedTotalCoresUsed()),
        static_cast<double>(sum_cores),
        "cached cluster core total disagrees with per-node resummation");
  check(ledger.cachedTotalWaysReserved() == sum_ways, "ledger.way_total",
        static_cast<double>(ledger.cachedTotalWaysReserved()),
        static_cast<double>(sum_ways),
        "cached cluster way total disagrees with per-node resummation");
  // The bandwidth total is an integer sum of per-allocation units, so it
  // must match the resummation exactly.
  check(ledger.cachedTotalBwUnits() == sum_bw_units, "ledger.bw_total",
        static_cast<double>(ledger.cachedTotalBwUnits()),
        static_cast<double>(sum_bw_units),
        "cached cluster bandwidth total disagrees with per-node resummation");
  check(ledger.idleNodeCount() == idle_nodes, "ledger.idle_nodes",
        ledger.idleNodeCount(), idle_nodes,
        "idle-node count (free-list bucket) disagrees with a full recount");

  // Class table: every node names a live class, each class's member count
  // is the number of nodes naming it, each live class names a live group,
  // and its nodes sit in the idle-core bucket of that group.
  using ClassId = actuator::ResourceLedger::ClassId;
  const auto class_slots = static_cast<ClassId>(ledger.classSlots());
  const auto group_slots = ledger.groupSlots();
  std::vector<std::uint32_t> class_recount(class_slots, 0u);
  for (int id = 0; id < n; ++id) {
    const ClassId k = ledger.classOf(id);
    if (k >= class_slots || !ledger.nodeClass(k).live) {
      check(false, "ledger.class_dangling", static_cast<double>(k), 0.0,
            "node " + std::to_string(id) + " names a pooled or unknown class");
      continue;
    }
    ++class_recount[k];
    const actuator::ResourceLedger::GroupId g = ledger.nodeClass(k).group;
    if (g >= group_slots || !ledger.group(g).live) continue;  // reported below
    const int idle = mach.cores - ledger.group(g).cores_used;
    check(idle >= 0 && idle < buckets && ledger.bucket(idle).contains(id),
          "ledger.class_bucket", 0.0, idle,
          "node " + std::to_string(id) +
              ": not in the idle-core bucket of its class's group");
  }
  for (ClassId k = 0; k < class_slots; ++k) {
    const auto& cls = ledger.nodeClass(k);
    const std::uint32_t expected = cls.live ? class_recount[k] : 0u;
    check(cls.members == expected, "ledger.class_members", cls.members, expected,
          "class " + std::to_string(k) +
              ": member count disagrees with the number of nodes naming it");
    if (!cls.live) continue;
    const bool linked = cls.group < group_slots && ledger.group(cls.group).live;
    check(linked, "ledger.class_group", static_cast<double>(cls.group), 0.0,
          "class " + std::to_string(k) + ": names a pooled or unknown group");
  }

  return static_cast<std::size_t>(total_violations_ - before);
}

std::size_t Auditor::auditQueue(const sched::JobQueue& queue) {
  const std::uint64_t before = total_violations_;
  for (const std::string& why : queue.auditInvariants()) {
    check(false, "queue.invariant", 0.0, 0.0, why);
  }
  const std::size_t live = queue.pending().size();
  check(queue.size() == live, "queue.size", static_cast<double>(queue.size()),
        static_cast<double>(live),
        "size() disagrees with the live-job snapshot");
  return static_cast<std::size_t>(total_violations_ - before);
}

std::size_t Auditor::auditSolverCache(const perfmodel::SolverCache& cache) {
  const std::uint64_t before = total_violations_;
  for (const std::string& why : cache.auditInvariants()) {
    check(false, "solver_cache.invariant", 0.0, 0.0, why);
  }
  return static_cast<std::size_t>(total_violations_ - before);
}

std::size_t Auditor::auditTimeSeries(const telemetry::TimeSeriesStore& store) {
  const std::uint64_t before = total_violations_;
  for (const auto& [key, s] : store.all()) {
    const auto tag = [&key](const char* what) {
      return "series " + key.name + ": " + what;
    };
    std::uint64_t count_sum = 0;
    double prev_end = -std::numeric_limits<double>::infinity();
    for (const telemetry::SeriesPoint& pt : s.points()) {
      check(pt.t_first <= pt.t_last, "telemetry.point_span", pt.t_first,
            pt.t_last, tag("point spans backwards in time"));
      check(pt.t_first >= prev_end, "telemetry.monotonic", pt.t_first,
            prev_end, tag("points are not in nondecreasing time order"));
      check(pt.count > 0, "telemetry.point_count",
            static_cast<double>(pt.count), 1.0, tag("retained point holds no samples"));
      check(pt.min <= pt.max && pt.min <= pt.last && pt.last <= pt.max,
            "telemetry.point_bounds", pt.last, pt.min,
            tag("last value escapes the point's min/max envelope"));
      check(near(pt.mean(), std::clamp(pt.mean(), pt.min, pt.max), 1e-9),
            "telemetry.point_mean", pt.mean(), pt.min,
            tag("mean escapes the point's min/max envelope"));
      count_sum += pt.count;
      prev_end = pt.t_last;
    }
    check(count_sum == s.sampleCount(), "telemetry.sample_conservation",
          static_cast<double>(count_sum),
          static_cast<double>(s.sampleCount()),
          tag("downsampling lost or invented raw samples"));
  }
  return static_cast<std::size_t>(total_violations_ - before);
}

std::size_t Auditor::auditFinishCalendar(
    const sched::FinishCalendar& cal,
    const std::vector<std::pair<sched::JobId, double>>& expected) {
  const std::uint64_t before = total_violations_;

  // Structural self-check: heap order on every edge, position/key table
  // consistency. The calendar reports each violated invariant in prose;
  // a broken structure makes the key/top checks below meaningless.
  const std::vector<std::string> structural = cal.auditInvariants();
  check(structural.empty(), "calendar.structure",
        static_cast<double>(structural.size()), 0.0,
        structural.empty() ? std::string("heap structure consistent")
                           : structural.front());
  if (!structural.empty()) {
    return static_cast<std::size_t>(total_violations_ - before);
  }

  // Membership and keys: exactly the expected jobs, each keyed by the
  // recomputed finish projection bit-for-bit (the calendar key is set
  // from the same double at the same rate boundary — any drift means a
  // missed or spurious re-key).
  check(cal.size() == expected.size(), "calendar.size",
        static_cast<double>(cal.size()), static_cast<double>(expected.size()),
        "calendar population disagrees with the active-job count");
  sched::JobId min_id = -1;
  double min_key = std::numeric_limits<double>::infinity();
  for (const auto& [id, key] : expected) {
    if (!cal.contains(id)) {
      check(false, "calendar.membership", 0.0, static_cast<double>(id),
            "active job " + std::to_string(id) + " missing from the calendar");
      continue;
    }
    check(cal.key(id) == key, "calendar.key", cal.key(id), key,
          "job " + std::to_string(id) +
              ": calendar key disagrees with the recomputed finish projection");
    if (key < min_key || (key == min_key && id < min_id)) {
      min_key = key;
      min_id = id;
    }
  }
  if (!expected.empty() && cal.size() == expected.size()) {
    check(cal.topId() == min_id && cal.topKey() == min_key, "calendar.top",
          static_cast<double>(cal.topId()), static_cast<double>(min_id),
          "calendar top entry is not the (key, id) minimum of the expected set");
  }
  return static_cast<std::size_t>(total_violations_ - before);
}

std::size_t Auditor::auditCorunGroups(
    const actuator::ResourceLedger& ledger, const sched::CorunGroups& groups,
    const std::vector<std::pair<sched::JobId, int>>& widths) {
  const std::uint64_t before = total_violations_;
  using GroupId = actuator::ResourceLedger::GroupId;
  const hw::MachineConfig& mach = ledger.machine();
  const auto slots = static_cast<GroupId>(ledger.groupSlots());

  std::vector<std::uint32_t> recount(slots, 0u);
  for (int nd = 0; nd < ledger.nodeCount(); ++nd) {
    const GroupId g = ledger.groupOf(nd);
    if (g >= slots || !ledger.group(g).live) {
      check(false, "groups.dangling", static_cast<double>(g), 0.0,
            "node " + std::to_string(nd) + " names a pooled or unknown group");
      continue;
    }
    ++recount[g];
    const int idle = mach.cores - ledger.group(g).cores_used;
    check(idle >= 0 && idle < ledger.bucketCount() && ledger.bucket(idle).contains(nd),
          "groups.bucket", 0.0, idle,
          "node " + std::to_string(nd) +
              ": not in the idle-core bucket of its group's idle cores");
  }
  for (GroupId g = 0; g < slots; ++g) {
    const auto& grp = ledger.group(g);
    const std::uint32_t expected = grp.live ? recount[g] : 0u;
    const auto tag = [g](const char* what) {
      return "group " + std::to_string(g) + ": " + what;
    };
    check(grp.members == expected, "groups.members", grp.members, expected,
          tag("member count disagrees with the number of nodes naming it"));
    if (!grp.live) continue;
    int cores = 0;
    int ways = 0;
    int partitioned = 0;
    bool exclusive = false;
    bool distinct = true;
    for (std::size_t i = 0; i < grp.residents.size(); ++i) {
      const auto& [job, a] = grp.residents[i];
      cores += a.cores;
      ways += a.ways;
      exclusive = exclusive || a.exclusive;
      if (!a.exclusive && a.ways > 0) ++partitioned;
      for (std::size_t j = 0; j < i; ++j) {
        distinct = distinct && grp.residents[j].first != job;
      }
    }
    check(distinct, "groups.residents", distinct ? 1.0 : 0.0, 1.0,
          tag("a job appears twice in the resident list"));
    check(grp.cores_used == cores && grp.ways_reserved == ways, "groups.totals",
          grp.cores_used, cores,
          tag("cached core/way totals disagree with the allocation list"));
    check(grp.exclusive == exclusive, "groups.exclusive", grp.exclusive ? 1.0 : 0.0,
          exclusive ? 1.0 : 0.0,
          tag("cached exclusive flag disagrees with the allocation list"));
    check(grp.partitioned == partitioned, "groups.partitioned", grp.partitioned,
          partitioned,
          tag("cached partitioned-resident count disagrees with the allocation list"));
    const double occ_cores = static_cast<double>(cores) / mach.cores;
    const double occ_ways = static_cast<double>(ways) / mach.llc_ways;
    check(grp.occ_cores == occ_cores && grp.occ_ways == occ_ways, "groups.occupancy",
          grp.occ_cores, occ_cores,
          tag("cached occupancy is not the recomputed fraction"));
  }

  for (const auto& [id, width] : widths) {
    std::uint64_t sum = 0;
    bool entries_ok = true;
    for (const auto& e : groups.histogram(id)) {
      sum += e.count;
      entries_ok = entries_ok && e.group < slots && ledger.group(e.group).live &&
                   e.index < ledger.group(e.group).residents.size() &&
                   ledger.group(e.group).residents[e.index].first == id &&
                   ledger.group(e.group).members == e.count;
    }
    check(entries_ok, "groups.histogram_entry", entries_ok ? 1.0 : 0.0, 1.0,
          "job " + std::to_string(id) +
              ": histogram entry disagrees with its group");
    check(sum == static_cast<std::uint64_t>(width), "groups.histogram",
          static_cast<double>(sum), static_cast<double>(width),
          "job " + std::to_string(id) +
              ": histogram counts do not sum to the placement width");
  }
  return static_cast<std::size_t>(total_violations_ - before);
}

std::size_t Auditor::auditFlightLedger(const flight::FlightRecorder& fr) {
  const std::uint64_t before = total_violations_;

  for (const flight::JobRollup& jr : fr.jobs()) {
    if (jr.start < 0.0) continue;  // never started: nothing to account
    const auto tag = [&jr](const char* what) {
      return "job " + std::to_string(jr.id) + ": " + what;
    };
    check(jr.finished, "flight.finished", jr.finished ? 1.0 : 0.0, 1.0,
          tag("run completed but the rollup was never finalized"));
    if (!jr.finished) continue;

    // Dust tolerance scales with the job's own time magnitudes: the
    // accumulators sum one term per interval close, each O(runtime).
    const double scale =
        std::max({1.0, jr.actual, jr.t_solo, std::abs(jr.attributed)});
    const double tol = kFlightRelEps * scale;

    // Coverage chain, bit-exact: the first interval opens at the start
    // instant and (when any interval closed at all) the last closes at the
    // finish instant — both are the same doubles the simulator stamped
    // into the JobRecord.
    check(jr.first_open == jr.start, "flight.first_open", jr.first_open,
          jr.start, tag("first interval does not open at the start instant"));
    if (jr.raw_intervals > 0) {
      check(jr.last_close == jr.finish, "flight.last_close", jr.last_close,
            jr.finish, tag("last interval does not close at the finish instant"));
    }

    // The reconciliation invariant. Exact arm: replay the recorder's
    // closure expression verbatim — same fields, same operation order —
    // so any post-hoc tampering with attributed/target/closure breaks
    // bit-equality. Bounded arm: |closure| itself is FP dust; a dropped
    // or double-counted interval shows up as O(interval length), many
    // orders of magnitude above the tolerance.
    const double replay = (jr.actual - jr.t_solo) - jr.attributed;
    check(jr.closure == replay, "flight.closure_replay", jr.closure, replay,
          tag("stored closure is not the replayed (actual - solo) - attributed"));
    check(std::abs(jr.closure) <= tol, "flight.reconciliation",
          jr.attributed, jr.actual - jr.t_solo,
          tag("attributed slowdown-seconds do not sum to actual - solo runtime"));

    // Work conservation: interval work fractions telescope to exactly the
    // job's one unit of work.
    check(std::abs(jr.work - 1.0) <= kFlightRelEps, "flight.work",
          jr.work, 1.0, tag("interval work fractions do not sum to 1"));

    // Axis decompositions: both the resource split and the co-runner
    // split carry their own residual buckets, so each must re-sum to the
    // attributed total.
    const double res_sum = jr.llc_s + jr.membw_s + jr.net_s + jr.other_s;
    check(std::abs(res_sum - jr.attributed) <= tol, "flight.resource_axis",
          res_sum, jr.attributed,
          tag("resource shares do not sum to the attributed total"));
    double cor_sum = jr.self_s;
    for (const flight::CorunnerShare& c : jr.corunners) cor_sum += c.seconds;
    check(std::abs(cor_sum - jr.attributed) <= tol, "flight.corunner_axis",
          cor_sum, jr.attributed,
          tag("co-runner shares do not sum to the attributed total"));

    // Interval-store conservation: compaction merges spans, never drops
    // them, and the retained deficits must re-sum to the attributed total.
    std::uint32_t raws = 0;
    double iv_deficit = 0.0;
    for (const flight::Interval& iv : jr.intervals) {
      raws += iv.raws;
      iv_deficit += iv.deficit;
    }
    check(raws == jr.raw_intervals, "flight.interval_raws",
          static_cast<double>(raws), static_cast<double>(jr.raw_intervals),
          tag("compacted interval store lost or invented raw intervals"));
    check(std::abs(iv_deficit - jr.attributed) <= tol, "flight.interval_sum",
          iv_deficit, jr.attributed,
          tag("retained interval deficits do not sum to the attributed total"));
  }

  return static_cast<std::size_t>(total_violations_ - before);
}

std::size_t Auditor::auditSchedulerState(
    const actuator::ResourceLedger& ledger, const sched::JobQueue& queue,
    const perfmodel::SolverCache& cache) {
  ++passes_run_;
  std::size_t found = auditLedger(ledger);
  found += auditQueue(queue);
  found += auditSolverCache(cache);
  return found;
}

std::string Auditor::report() const {
  std::string out = "audit: " + std::to_string(checks_run_) +
                    " invariant checks across " + std::to_string(passes_run_) +
                    " scheduler pass(es): ";
  if (ok()) {
    out += "all clean\n";
    return out;
  }
  out += std::to_string(total_violations_) + " violation(s)\n";
  for (const Violation& v : violations_) {
    out += "  [" + v.check + "] " + v.detail + " (observed " +
           std::to_string(v.observed) + ", expected " +
           std::to_string(v.expected) + ")\n";
  }
  if (total_violations_ > violations_.size()) {
    out += "  ... and " +
           std::to_string(total_violations_ - violations_.size()) +
           " more (recording capped)\n";
  }
  return out;
}

}  // namespace sns::audit
