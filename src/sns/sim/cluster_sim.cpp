#include "sns/sim/cluster_sim.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "sns/app/comm.hpp"
#include "sns/audit/audit.hpp"
#include "sns/flight/flight.hpp"
#include "sns/profile/exploration.hpp"
#include "sns/util/error.hpp"
#include "sns/util/hot_path.hpp"

namespace sns::sim {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ClusterSimulator::ClusterSimulator(const perfmodel::Estimator& est,
                                   const std::vector<app::ProgramModel>& library,
                                   const profile::ProfileDatabase& db, SimConfig cfg)
    : est_(&est),
      library_(&library),
      db_(&db),
      cfg_(cfg),
      ledger_(cfg.nodes, est.machine()),
      solve_cache_(est.solver()) {
  SNS_REQUIRE(cfg.nodes >= 1, "simulator needs at least one node");
  if (cfg_.policy == sched::PolicyKind::kSNS) {
    policy_ = std::make_unique<sched::SnsPolicy>(est, cfg_.sns);
  } else {
    policy_ = sched::makePolicy(cfg_.policy, est);
  }
  busy_pos_.assign(static_cast<std::size_t>(cfg.nodes), -1);
  episode_accum_.assign(static_cast<std::size_t>(cfg.nodes), 0.0);
  node_donated_.assign(static_cast<std::size_t>(cfg.nodes), 0.0);
  if (cfg_.online_profiling) {
    monitor_ = std::make_unique<profile::Profiler>(est, cfg_.monitor);
    monitor_->attachRecorder(&rec_);  // piggybacked episodes become events
  }
  // The policy explains its decisions through the same recorder; the
  // recorder's sink is wired per run(). The xray tracer rides along the
  // same hook so tryPlace() cost lands in candidate-prune / curve-score
  // spans and provenance captures the scale walks.
  policy_->attachRecorder(&rec_);
  policy_->attachXray(cfg_.xray);
  if (cfg_.metrics != nullptr) {
    solve_cache_.attachMetrics(*cfg_.metrics);
    // Fetch instrument pointers once; hot-loop updates are then a null
    // check plus an add — no map lookups, no allocations.
    auto& m = *cfg_.metrics;
    const std::vector<double> time_buckets = {1,   10,   30,   60,   120,  300,
                                              600, 1200, 3600, 7200, 14400};
    m_solver_calls_ = &m.counter("sim.solver_calls");
    m_solver_memo_hits_ = &m.counter("sim.solver_memo_hits");
    m_submitted_ = &m.counter("sim.jobs_submitted");
    m_started_ = &m.counter("sim.jobs_started");
    m_finished_ = &m.counter("sim.jobs_finished");
    m_backfill_skips_ = &m.counter("sim.backfill_skips");
    m_sched_passes_ = &m.counter("sim.schedule_passes");
    m_ways_donated_ = &m.counter("sim.ways_donated");
    m_spec_skips_ = &m.counter("sim.spec_skips");
    m_futile_skips_ = &m.counter("sim.futile_pass_skips");
    m_active_hwm_ = &m.gauge("sim.active_jobs_hwm");
    m_queue_depth_ = &m.gauge("sim.queue_depth");
    m_busy_nodes_ = &m.gauge("sim.busy_nodes");
    m_wait_s_ = &m.histogram("sim.wait_s", time_buckets);
    m_run_s_ = &m.histogram("sim.run_s", time_buckets);
    m_decision_us_ = &m.histogram(
        "sim.decision_us",
        {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000});
    m_stretch_ = &m.histogram(
        "sim.stretch", {1.0, 1.02, 1.05, 1.1, 1.2, 1.5, 2.0, 3.0, 5.0, 10.0});
  }
}

std::size_t ClusterSimulator::SpecKeyHash::operator()(const SpecKey& k) const {
  std::uint64_t x = reinterpret_cast<std::uintptr_t>(k.prog) ^
                    (k.alpha_bits * 0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.procs))
                     << 17);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

std::size_t ClusterSimulator::SoloKeyHash::operator()(const SoloKey& k) const {
  std::uint64_t x = reinterpret_cast<std::uintptr_t>(k.prog) ^
                    (k.ways_bits * 0x9e3779b97f4a7c15ull) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.procs))
                     << 17) ^
                    (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.nodes))
                     << 41);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(x ^ (x >> 31));
}

std::size_t ClusterSimulator::FlightSigHash::operator()(
    const FlightSig& sig) const {
  // FNV-1a over the key fields, finished with a splitmix-style mixer —
  // the same recipe as the solver cache's signature hash.
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (const FlightSigKey& k : sig) {
    mix(reinterpret_cast<std::uintptr_t>(k.prog));
    mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.procs)));
    mix(k.ways_bits);
    mix(k.remote_bits);
    mix(k.cap_bits);
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return static_cast<std::size_t>(h ^ (h >> 31));
}

void ClusterSimulator::collectDirty(
    std::span<const actuator::ResourceLedger::Transition> moves,
    std::vector<DirtyGroup>& set) const {
  for (const auto& t : moves) {
    if (t.dst != sched::CorunGroups::kIdle) {
      set.push_back({t.dst, ledger_.group(t.dst).serial});
    }
  }
}

const perfmodel::SoloRun& ClusterSimulator::soloMemo(
    const app::ProgramModel& prog, int procs, int nodes, double ways) {
  const SoloKey key{&prog, procs, nodes, std::bit_cast<std::uint64_t>(ways)};
  auto [it, fresh] = solo_memo_.try_emplace(key);
  if (fresh) it->second = est_->solo(prog, procs, nodes, ways);
  return it->second;
}

void ClusterSimulator::activate(sched::JobId id) {
  auto& pos = active_pos_[static_cast<std::size_t>(id)];
  SNS_REQUIRE(pos < 0, "job already active");
  pos = static_cast<std::int32_t>(active_.size());
  active_.push_back(id);
  if (active_.size() > active_hwm_) {
    active_hwm_ = active_.size();
    if (m_active_hwm_) m_active_hwm_->set(static_cast<double>(active_hwm_));
  }
}

void ClusterSimulator::deactivate(sched::JobId id) {
  auto& pos = active_pos_[static_cast<std::size_t>(id)];
  SNS_REQUIRE(pos >= 0, "job not active");
  const sched::JobId last = active_.back();
  active_[static_cast<std::size_t>(pos)] = last;
  active_pos_[static_cast<std::size_t>(last)] = pos;
  active_.pop_back();
  pos = -1;
}

void ClusterSimulator::updateBusyNodes(const std::vector<int>& nodes,
                                       bool joined) {
  if (cfg_.monitor_episode_s <= 0.0) return;  // busy list unread
  // A node turned busy on a join exactly when it now hosts only the
  // joiner; it turned idle on a leave exactly when it is back in group 0.
  for (int nd : nodes) {
    const auto g = ledger_.groupOf(nd);
    if (joined && ledger_.group(g).residents.size() == 1) {
      busy_pos_[static_cast<std::size_t>(nd)] =
          static_cast<std::int32_t>(busy_nodes_.size());
      busy_nodes_.push_back(nd);
    } else if (!joined && g == actuator::ResourceLedger::kIdleGroup) {
      auto& pos = busy_pos_[static_cast<std::size_t>(nd)];
      const int last = busy_nodes_.back();
      busy_nodes_[static_cast<std::size_t>(pos)] = last;
      busy_pos_[static_cast<std::size_t>(last)] = pos;
      busy_nodes_.pop_back();
      pos = -1;
    }
  }
}

bool ClusterSimulator::donationsObserved() const {
  return cfg_.donate_unused_ways &&
         (rec_.enabled() || m_ways_donated_ != nullptr);
}

void ClusterSimulator::noteDonations(int nd) {
  const actuator::NodeLedger node = ledger_.node(nd);
  double& prev_donated = node_donated_[static_cast<std::size_t>(nd)];
  // O(1) fast-out: only partitioned, non-exclusive residents receive
  // donated ways. With none on the node and nothing previously observed,
  // the total below is 0.0 and nothing changes — and wide spread
  // placements make this the dominant case (every node of an exclusive or
  // unpartitioned placement takes it on start and finish).
  const int partitioned = node.partitionedResidents();
  if (partitioned == 0 && prev_donated == 0.0) return;
  // Each partitioned resident receives the same donated share
  // freeWays / jobCount (effectiveWays(alloc) - alloc.ways cancels the
  // partition term exactly), so the node total is just count x share —
  // no walk over the resident allocations. This runs on every node of
  // every placement at start and finish, so the closed form is what keeps
  // wide spread placements from paying O(residents) here.
  double total = 0.0;
  if (partitioned > 0) {
    total = static_cast<double>(partitioned) *
            (static_cast<double>(node.freeWays()) /
             static_cast<double>(node.jobCount()));
  }
  const double delta = total - prev_donated;
  if (delta > 1e-9) {
    rec_.waysDonated(nd, delta, total);
    if (m_ways_donated_) m_ways_donated_->inc(delta);
  } else if (delta < -1e-9) {
    rec_.waysReclaimed(nd, -delta, total);
  }
  prev_donated = total;
}

void ClusterSimulator::admit(sched::Job job) {
  rec_.jobSubmitted(job.id, job.spec.program, job.spec.procs);
  if (m_submitted_) m_submitted_->inc();
  futile_ready_ = false;  // a fresh arrival may well place
  queue_.push(std::move(job));
  if (m_queue_depth_) m_queue_depth_->set(static_cast<double>(queue_.size()));
}

bool ClusterSimulator::solveGroup(sched::CorunGroups::GroupId g) {
  const actuator::ResourceLedger::Group& state = ledger_.group(g);
  const auto& residents = state.residents;
  auto& grp = groups_.slot(g);
  if (m_solver_calls_) m_solver_calls_->inc();
  for (std::size_t i = 0; i < residents.size(); ++i) {
    const auto& [id, alloc] = residents[i];
    const Running& r = running(id);
    const double rf = r.remote_frac;  // placement-fixed, hoisted to startJob
    const double ways = cfg_.donate_unused_ways
                            ? actuator::effectiveWays(state, est_->machine(), alloc)
                            : static_cast<double>(alloc.ways);
    const double cap = cfg_.enforce_bandwidth_caps && !alloc.exclusive
                           ? alloc.bw_gbps
                           : 0.0;
    grp.in[i] = {r.prog, record(id).placement.procs_per_node, ways, rf, 1.0, cap};
  }

  std::span<const perfmodel::ShareOutcome> outcomes;
  bool hit = false;
  {
    xray::ScopedSpan xs(cfg_.xray, xray::SpanKind::kSolverCall);
    const std::uint64_t hits_before = solve_cache_.hits();
    outcomes = solve_cache_.solve(grp.in);
    hit = solve_cache_.hits() > hits_before;
    if (m_solver_memo_hits_ && hit) m_solver_memo_hits_->inc();
  }
  grp.out.assign(outcomes.begin(), outcomes.end());
  return hit;
}

double ClusterSimulator::placementBandwidth(sched::JobId id) const {
  double sum = 0.0;
  for (int nd : record(id).placement.nodes) {
    const sched::CorunGroups::GroupId g = ledger_.groupOf(nd);
    const auto& residents = ledger_.group(g).residents;
    std::size_t i = 0;
    while (residents[i].first != id) ++i;
    sum += groups_.slot(g).out[i].bw_gbps;
  }
  return sum;
}

void ClusterSimulator::refreshRates(double now, const std::vector<DirtyGroup>& dirty,
                                    xray::ProvenanceStore* credit) {
  SNS_HOT_PATH("engine.refresh");
  // Jobs resident in a dirty group need their progress rate re-derived.
  // Deduplicate with epoch stamps (collected in the same pass that
  // re-solves each group) and sort, so the per-job refresh runs in
  // ascending id order, exactly like the old std::set-based collection.
  if (++stamp_epoch_ == 0) {
    std::fill(job_stamp_.begin(), job_stamp_.end(), 0u);
    stamp_epoch_ = 1;
  }
  affected_scratch_.clear();
  // Every member node of a co-run group presents the same co-run
  // signature, so each dirty group is solved once; members no event moved
  // keep the values of their last solve. An entry whose incarnation has
  // been emptied since names no node (a reused id has its own entry).
  ++group_epoch_;
  for (const DirtyGroup& d : dirty) {
    const actuator::ResourceLedger::Group& state = ledger_.group(d.group);
    if (!state.live || state.serial != d.serial) continue;
    auto& grp = groups_.slot(d.group);
    if (grp.stamp == group_epoch_) continue;
    grp.stamp = group_epoch_;
    const bool hit = solveGroup(d.group);
    if (credit != nullptr) credit->noteSolverDelta(group_owner_[d.group], 1, hit ? 1 : 0);
    for (const auto& [id, alloc] : state.residents) {
      auto& stamp = job_stamp_[static_cast<std::size_t>(id)];
      if (stamp != stamp_epoch_) {
        stamp = stamp_epoch_;
        affected_scratch_.push_back(id);
      }
    }
  }
  std::sort(affected_scratch_.begin(), affected_scratch_.end());

  const double nic_cap = est_->machine().net_bw_gbps;
  const bool flight_on = cfg_.flight != nullptr;
  for (sched::JobId id : affected_scratch_) {
    Running& r = running(id);
    const sched::Placement& placement = record(id).placement;
    // Settle the job at this rate boundary under its outgoing rate. This
    // is the canonical progress arithmetic (DESIGN.md section 11): the
    // anchor moves only here, and the settlement is exactly zero when the
    // job was already settled at `now`, as a job placed this pass is.
    // (The flight settle happens below, once the fresh values show the
    // open interval actually ends here: the recorder carries its own copy
    // of the outgoing rate.)
    r.anchor_remaining -= (now - r.anchor_time) * r.rate;
    r.anchor_time = now;
    // The co-run rate is the slowest node's: the min over the job's
    // groups, since every node of a group carries the group's rate. min
    // is exact and order-free, so this equals the per-node scan.
    const auto& hist = groups_.histogram(id);
    double corun_rate = kInf;
    for (const auto& e : hist) {
      corun_rate = std::min(corun_rate,
                            groups_.slot(e.group).out[e.index].rate_per_proc);
    }
    // NIC oversubscription on any node stretches everyone's comm. While no
    // node's demand exceeds the link rate, every demand / nic_cap rounds
    // to at most 1.0, so the max over the placement is exactly 1.0 and the
    // groups are not read. The flight arm also needs the argmax-demand
    // node (first in placement order), which only matters when
    // net_over > 1.
    double net_over = 1.0;
    int net_node = -1;
    if (groups_.nicOverNodes() > 0) {
      const auto peak = groups_.nicPeak(id, placement.nodes, ledger_);
      net_over = std::max(net_over, peak.demand / nic_cap);
      net_node = placement.nodes[peak.first];
    }
    // Flight attribution replays the bottleneck node: the first node in
    // placement order whose rate equals the min.
    const int bottleneck =
        flight_on ? firstMinRateNode(id, corun_rate, placement.nodes) : -1;
    SNS_REQUIRE(corun_rate > 0.0, "co-run rate must be positive");
    const double stretch = r.solo_rate / corun_rate;
    r.net_stretch = net_over;
    const double t_inst = r.comp_time_solo * stretch +
                          r.comm_data_time * net_over + r.wait_time;
    SNS_REQUIRE(t_inst > 0.0, "instantaneous job time must be positive");
    r.rate = 1.0 / t_inst;
    // Project the completion off the fresh settlement; the projection is
    // the calendar key and the done criterion (finish_time <= now,
    // exactly).
    r.finish_time = r.anchor_time + r.anchor_remaining / r.rate;
    calendar_.upsert(id, r.finish_time);
    if (cfg_.enforce_bandwidth_caps && rec_.enabled()) {
      // Report each transition into the MBA-capped regime exactly once.
      // The per-node bandwidth is this event's only input, so it is summed
      // (in placement order) only here.
      const double bw_per_node =
          placementBandwidth(id) / placement.nodeCount();
      const double cap = placement.bw_gbps;
      const bool capped = !placement.exclusive && cap > 0.0 &&
                          bw_per_node >= cap * (1.0 - 1e-6);
      if (capped && !r.throttled) {
        rec_.bandwidthThrottled(id, placement.nodes.front(), cap);
      }
      r.throttled = capped;
    }
    if (flight_on) {
      // Close-and-reopen only when the reopened state would differ: every
      // input the attribution depends on is either compared bit-for-bit
      // here or covered by the co-run group serial of the node it is read
      // from, so on equality the open interval simply extends — the common
      // case for wide spread placements, whose residents get refreshed
      // whenever any of their many nodes goes dirty.
      FlightOpenKey& key = flight_open_key_[static_cast<std::size_t>(id)];
      const std::uint64_t bs = bottleneck >= 0 ? nodeSerial(bottleneck) : 0;
      const std::uint64_t ns = net_node >= 0 ? nodeSerial(net_node) : 0;
      const bool unchanged =
          key.valid && key.rate == r.rate && key.t_inst == t_inst &&
          key.stretch == stretch && key.net_over == net_over &&
          key.bottleneck == bottleneck && key.bneck_serial == bs &&
          (!(net_over > 1.0) ||
           (key.net_node == net_node && key.net_serial == ns));
      if (!unchanged) {
        cfg_.flight->settle(id, now);
        flightReopen(id, r, now, t_inst, stretch, net_over, bottleneck,
                     net_node);
        key.rate = r.rate;
        key.t_inst = t_inst;
        key.stretch = stretch;
        key.net_over = net_over;
        key.bottleneck = bottleneck;
        key.net_node = net_node;
        key.bneck_serial = bs;
        key.net_serial = ns;
        key.valid = true;
      }
    }
  }
}

int ClusterSimulator::firstMinRateNode(sched::JobId id, double corun_rate,
                                       const std::vector<int>& nodes) {
  // The earliest first node among the job's min-rate groups.
  const auto& hist = groups_.histogram(id);
  std::size_t first = nodes.size();
  for (std::size_t k = 0; k < hist.size(); ++k) {
    const auto& e = hist[k];
    if (groups_.slot(e.group).out[e.index].rate_per_proc != corun_rate) continue;
    first = std::min(first, groups_.firstOf(id, k, nodes, ledger_));
  }
  return first < nodes.size() ? nodes[first] : -1;
}

void ClusterSimulator::flightReopen(sched::JobId id, const Running& r,
                                    double now, double t_inst, double stretch,
                                    double net_over, int bottleneck,
                                    int net_node) {
  flight::OpenContext ctx;
  ctx.now = now;
  ctx.rate = r.rate;
  ctx.t_inst = t_inst;
  ctx.stretch = stretch;
  ctx.net_over = net_over;
  // The bottleneck (argmin achieved rate) and argmax-NIC-demand nodes
  // arrive from refreshRates' derivation — first-wins picks in placement
  // order.
  ctx.bottleneck_node = bottleneck;

  // Replay the bottleneck node's co-run signature: its group's solve
  // gives the job's rate and bandwidth-unconstrained rate, the group's
  // leave-one-out rows the per-co-runner deltas.
  const sched::CorunGroups::GroupId g = ledger_.groupOf(bottleneck);
  const auto& grp = groups_.slot(g);
  const auto& resident = ledger_.group(g).residents;
  const std::size_t nres = resident.size();
  std::size_t self_idx = 0;
  for (std::size_t i = 0; i < nres; ++i)
    if (resident[i].first == id) self_idx = i;
  if (flight_group_memo_.size() < ledger_.groupSlots()) {
    // Grows with the group pool's high-water mark only.
    util::hotpath::markInnermostBoundary();
    flight_group_memo_.resize(ledger_.groupSlots());
  }
  FlightGroupMemo& memo = flight_group_memo_[g];
  if (memo.serial != ledger_.group(g).serial) flightLeaveOneOut(g);
  ctx.rate_pp = grp.out[self_idx].rate_per_proc;
  ctx.raw_rate_pp = grp.out[self_idx].raw_rate_per_proc;
  flight_comp_deltas_.clear();
  if (nres > 1) {
    for (std::size_t k = 0; k < nres; ++k) {
      if (k == self_idx) continue;
      flight_comp_deltas_.emplace_back(resident[k].first,
                                       memo.loo[k * nres + self_idx] - ctx.rate_pp);
    }
  }
  // Network attribution needs no solver: co-residents of the most
  // oversubscribed node are weighted by their ground-truth NIC demand.
  flight_net_shares_.clear();
  if (net_over > 1.0 && net_node >= 0) {
    for (const auto& [other, alloc] :
         ledger_.group(ledger_.groupOf(net_node)).residents) {
      if (other != id)
        flight_net_shares_.emplace_back(other, groups_.nicDemand(other));
    }
  }
  ctx.comp_deltas = flight_comp_deltas_;
  ctx.net_shares = flight_net_shares_;
  cfg_.flight->reopen(id, ctx);
}

void ClusterSimulator::flightLeaveOneOut(sched::CorunGroups::GroupId g) {
  const auto& grp = groups_.slot(g);
  const std::size_t nres = grp.in.size();
  FlightGroupMemo& memo = flight_group_memo_[g];
  if (memo.loo.capacity() < nres * nres) {
    // Grows with the largest group a pooled id has carried only.
    util::hotpath::markInnermostBoundary();
  }
  memo.loo.assign(nres * nres, 0.0);
  memo.serial = ledger_.group(g).serial;
  if (nres < 2) return;

  const auto& shares = grp.in;
  const bool all_partitioned =
      std::all_of(shares.begin(), shares.end(),
                  [](const perfmodel::NodeShare& sh) { return sh.ways > 0.0; });
  if (all_partitioned) {
    // All-CAT: with no free-sharing entries the solver's per-share
    // quantities (eff_ways, miss, refs, raw_rate, demand, capped) depend
    // only on that share, and the shares couple solely through the
    // in-order total_capped sum and total_procs. A leave-one-out solve
    // therefore reproduces the full solve's per-share values verbatim and
    // only re-derives the roofline scale — so every leave-one-out rate
    // falls out of the group's solve with the exact expressions (and the
    // exact in-order summation skipping k) solveInto() would run on the
    // subset: bit-identical to solving each (r-1)-signature, with zero
    // solver calls.
    const hw::MachineConfig& mach = est_->machine();
    flight_capped_.resize(nres);
    for (std::size_t i = 0; i < nres; ++i) {
      double c = std::min(grp.out[i].demand_gbps,
                          mach.mem_bw.aggregate(shares[i].procs));
      if (shares[i].bw_cap_gbps > 0.0) c = std::min(c, shares[i].bw_cap_gbps);
      flight_capped_[i] = c;
    }
    for (std::size_t k = 0; k < nres; ++k) {
      double total_capped = 0.0;
      int total_procs = 0;
      for (std::size_t i = 0; i < nres; ++i) {
        if (i == k) continue;
        total_capped += flight_capped_[i];
        total_procs += shares[i].procs;
      }
      const double capacity = mach.mem_bw.aggregate(total_procs);
      const double scale =
          total_capped > capacity ? capacity / total_capped : 1.0;
      for (std::size_t i = 0; i < nres; ++i) {
        if (i == k) continue;
        const double bw = flight_capped_[i] * scale;
        const double demand = grp.out[i].demand_gbps;
        const double f_bw = demand > 1e-12 ? std::min(1.0, bw / demand) : 1.0;
        memo.loo[k * nres + i] = grp.out[i].raw_rate_per_proc * f_bw;
      }
    }
    return;
  }

  // Free-sharing entries couple through the ways fixed point, so each
  // leave-one-out signature genuinely re-solves — once per distinct
  // signature per run: the rows are content-addressed (co-run signatures
  // recur across groups and scheduling points, the SolverCache premise),
  // and solver outputs are a pure function of the ordered share list.
  flight_sig_scratch_.clear();
  flight_sig_scratch_.reserve(nres);
  for (const perfmodel::NodeShare& sh : shares) {
    flight_sig_scratch_.push_back({sh.prog, sh.procs,
                                   std::bit_cast<std::uint64_t>(sh.ways),
                                   std::bit_cast<std::uint64_t>(sh.remote_frac),
                                   std::bit_cast<std::uint64_t>(sh.bw_cap_gbps)});
  }
  auto [it, fresh] = flight_sig_memo_.try_emplace(flight_sig_scratch_);
  if (fresh) {
    // A never-seen signature builds its rows (map node + key copy) — a
    // boundary, like a solver-cache miss. Replayed signatures stay
    // heap-silent.
    util::hotpath::markInnermostBoundary();
    std::vector<double>& rows = it->second;
    rows.assign(nres * nres, 0.0);
    for (std::size_t k = 0; k < nres; ++k) {
      flight_loo_shares_.clear();
      flight_loo_shares_.reserve(nres - 1);
      for (std::size_t i = 0; i < nres; ++i) {
        if (i != k) flight_loo_shares_.push_back(shares[i]);
      }
      const auto out = solve_cache_.solve(flight_loo_shares_);
      for (std::size_t i = 0; i < nres; ++i) {
        if (i != k) rows[k * nres + i] = out[i - (i > k ? 1 : 0)].rate_per_proc;
      }
    }
  }
  std::copy(it->second.begin(), it->second.end(), memo.loo.begin());
}

void ClusterSimulator::startJob(const sched::Job& job, sched::Placement&& p,
                                double now) {
  Running& r = running(job.id);
  r = Running{};
  r.id = job.id;
  r.prog = job.program;
  r.remote_frac = app::remoteFraction(job.program->comm.pattern, job.spec.procs,
                                      p.procs_per_node, p.nodeCount());

  // Solo baseline at the allocated ways (full cache when unpartitioned or
  // exclusive: alone, the job would own the whole LLC).
  const double solo_ways =
      p.ways > 0 ? p.ways : static_cast<double>(est_->machine().llc_ways);
  const perfmodel::SoloRun solo =
      soloMemo(*job.program, job.spec.procs, p.nodeCount(), solo_ways);
  double reps = std::max(1, job.spec.repeats);
  if (job.spec.ce_time_override > 0.0) {
    // Trace-driven jobs: rescale work so the CE run matches the trace
    // duration, preserving the program's relative scaling behaviour.
    const perfmodel::SoloRun& ce =
        soloMemo(*job.program, job.spec.procs, est_->minNodes(job.spec.procs),
                 static_cast<double>(est_->machine().llc_ways));
    reps *= job.spec.ce_time_override / ce.time;
  }
  r.comp_time_solo = solo.comp_time * reps;
  r.comm_data_time = solo.comm_data_time * reps;
  r.wait_time = solo.wait_time * reps;
  r.solo_rate = solo.ipc * est_->machine().frequency_ghz * 1e9;
  // Anchor at the start instant with zero rate: the end-of-pass rate
  // refresh (still at the same virtual time) performs the first real
  // settlement — a no-op — and computes the first finish projection.
  r.anchor_time = now;
  r.anchor_remaining = 1.0;
  r.finish_time = kInf;
  // Ground-truth NIC usage per node: remote traffic volume over the solo
  // run time (repeats and trace rescaling multiply volume and time alike).
  const double nic_demand = solo.time > 0.0
                                ? p.procs_per_node * job.program->comm_gb_per_proc *
                                      solo.remote_frac / solo.time
                                : 0.0;

  activate(job.id);
  const actuator::NodeAllocation alloc = p.nodeAllocation();
  const auto moves = ledger_.allocate(p.nodes, job.id, alloc);
  groups_.join(job.id, nic_demand, ledger_, moves);
  // Nothing reads progress rates until the pass ends: the placement's
  // destination groups join the end-of-pass refresh set.
  collectDirty(moves, pass_dirty_);
  if (provenance() != nullptr) {
    // A destination's residents are its source's plus the joiner, which
    // arrived last: the source's owner stays the earliest of the pass.
    group_owner_.resize(std::max(group_owner_.size(), ledger_.groupSlots()), -1);
    for (const auto& t : moves) {
      group_owner_[t.dst] = ledger_.group(t.src).serial > pass_serial_floor_
                                ? group_owner_[t.src]
                                : job.id;
    }
  }
  updateBusyNodes(p.nodes, true);

  JobRecord& rec = records_[static_cast<std::size_t>(job.id)];
  rec.start = now;
  rec.placement = std::move(p);
  const sched::Placement& placed = rec.placement;
  // The flight recorder anchors the job's lifetime account on the solo
  // baseline frozen here; the end-of-pass rate refresh (same virtual
  // time) opens the first real co-residency interval.
  if (cfg_.flight != nullptr) {
    cfg_.flight->onStart(job.id, job.spec.program, rec.submit, now,
                         r.comp_time_solo, r.comm_data_time, r.wait_time,
                         r.solo_rate, job.spec.alpha);
  }
  rec_.jobStarted(job.id, job.spec.program,
                  placed.nodes.empty() ? -1 : placed.nodes.front(), placed.nodeCount(),
                  placed.ways, placed.scale_factor, placed.exclusive);
  if (m_started_) m_started_->inc();
  if (donationsObserved()) {
    for (int nd : placed.nodes) noteDonations(nd);
  }
}

void ClusterSimulator::finishJob(sched::JobId id, double now) {
  const Running& r = running(id);
  // Normally the main loop already popped the finisher; the contains()
  // guard covers a co-finisher at the same instant whose settlement
  // re-inserted it (its projected finish collapses onto `now`).
  if (calendar_.contains(id)) calendar_.erase(id);
  JobRecord& record = records_[static_cast<std::size_t>(id)];
  record.finish = now;
  // Final settle of the job's open co-residency interval + rollup
  // finalization. The finisher is already off every node's resident list,
  // so the trailing refreshRates below never re-touches it.
  if (cfg_.flight != nullptr) cfg_.flight->onFinish(id, now);
  rec_.jobFinished(id, record.spec.program, record.runTime());
  if (m_finished_) m_finished_->inc();
  if (m_wait_s_) m_wait_s_->observe(record.waitTime());
  if (m_run_s_) m_run_s_->observe(record.runTime());
  if (m_stretch_) {
    // Stretch vs the solo baseline at the allocated ways; near-zero solo
    // runtimes (degenerate zero-duration jobs) pin to 1.0 instead of
    // amplifying rounding noise into inf.
    const double t_solo = r.comp_time_solo + r.comm_data_time + r.wait_time;
    m_stretch_->observe(t_solo > 1e-12 ? record.runTime() / t_solo : 1.0);
  }
  // Piggybacked profiling: an exclusive run doubles as a profiling trial at
  // its scale factor (§4.1/§4.4); the monitor's measurements accumulate in
  // the run-local database so later submissions schedule smarter.
  const sched::Placement& placement = record.placement;
  const app::JobSpec& spec = record.spec;
  if (monitor_ != nullptr && placement.exclusive) {
    const int k = placement.scale_factor;
    const auto* existing = local_db_.find(spec.program, spec.procs);
    if (existing == nullptr || existing->at(k) == nullptr) {
      profile::ProgramProfile pp;
      if (existing != nullptr) {
        pp = *existing;
      } else {
        pp.program = spec.program;
        pp.procs = spec.procs;
      }
      profile::mergeTrial(pp, monitor_->profileScale(*r.prog, spec.procs, k),
                          cfg_.monitor.neutral_band);
      local_db_.put(std::move(pp));
    }
  }
  const auto moves = ledger_.release(placement.nodes, id);
  groups_.leave(id, ledger_, moves);
  finish_dirty_.clear();
  collectDirty(moves, finish_dirty_);
  updateBusyNodes(placement.nodes, false);
  if (donationsObserved()) {
    for (int nd : placement.nodes) noteDonations(nd);
  }
  deactivate(id);
  xray::ScopedSpan xs(cfg_.xray, xray::SpanKind::kRateRefresh, id);
  refreshRates(now, finish_dirty_);
}

bool ClusterSimulator::tryDispatch(const sched::Job& job, double now) {
  // Steady-state allocation contract: the failure path (memo checks,
  // selection scoring with warm caches) must not touch the heap; a
  // successful dispatch is a rate boundary — committing a Placement and a
  // Running record allocates by design, so it is marked exempt below.
  SNS_HOT_PATH("sched.decision");
  // Failed-spec memo (batched scoring): tryPlace() is a pure function of
  // (program, procs, alpha) given fixed ledger and database contents, and
  // placements only shrink free capacity — so a recorded failure stays a
  // failure until a release or a profile change could unblock it. A
  // profile change wipes the memo; releases purge selectively: the entry
  // records the minimum idle-core count any of the failed attempt's
  // ledger queries asked for, and every decision-relevant ledger read in
  // tryPlace() is such a query — so a release whose freed node still has
  // fewer idle cores than that floor cannot have changed anything the
  // attempt read, and the failure stands. Observers do not change this:
  // a memo hit replays the failure to them (replayFailure) from text
  // inputs only — the spec, its plan, the cluster size and CE's idle
  // node count — never from a selection query.
  const std::uint32_t spec = job_spec_[static_cast<std::size_t>(job.id)];
  if (!failed_specs_valid_ ||
      failed_specs_generation_ != local_db_.generation()) {
    for (const std::uint32_t id : failed_live_) failed_specs_[id].job = -1;
    failed_live_.clear();
    failed_specs_min_floor_ = std::numeric_limits<int>::max();
    (void)ledger_.takeReleaseIdleWatermark();
    failed_specs_release_epoch_ = ledger_.releaseEpoch();
    failed_specs_generation_ = local_db_.generation();
    failed_specs_valid_ = true;
  } else if (failed_specs_release_epoch_ != ledger_.releaseEpoch()) {
    const int watermark = ledger_.takeReleaseIdleWatermark();
    // The surviving set is determined by the watermark alone, not by
    // the live list's order.
    std::size_t kept = 0;
    for (const std::uint32_t id : failed_live_) {
      FailedSpec& e = failed_specs_[id];
      if (e.floor <= watermark) {
        e.job = -1;
      } else {
        failed_live_[kept++] = id;
      }
    }
    failed_live_.resize(kept);
    failed_specs_release_epoch_ = ledger_.releaseEpoch();
  }
  if (const FailedSpec& e = failed_specs_[spec]; e.job >= 0) {
    if (m_spec_skips_) m_spec_skips_->inc();
    replayFailure(job, e.job, now);
    return false;
  }
  ledger_.resetQueryCoreFloor();
  std::optional<sched::Placement> p = policy_->tryPlace(job, ledger_, local_db_);
  if (!p.has_value()) {
    // First failure of this spec: recording it writes a reserved slot,
    // but the attempt that reached here may have warmed the policy's
    // own memos — warm-up, a state-changing event like a commit, hence
    // boundary-exempt. Replayed failures hit the memo above and must
    // stay heap-silent; that is what the alloc contract test gates.
    SNS_HOT_PATH_BOUNDARY();
    const int floor = ledger_.queryCoreFloor();
    failed_specs_[spec] = FailedSpec{floor, job.id};
    failed_live_.push_back(spec);
    // Running minimum over live entries, for the futile-pass gate. Only
    // lowered — purges never raise it back, which is conservative: a
    // stale-low floor makes the gate run a pass it could have skipped,
    // never skip one it must run.
    failed_specs_min_floor_ = std::min(failed_specs_min_floor_, floor);
    return false;
  }
  SNS_HOT_PATH_BOUNDARY();
  const sched::Job job_copy = job;
  ++pass_placements_;
  {
    xray::ScopedSpan xs(cfg_.xray, xray::SpanKind::kCommit, job_copy.id);
    startJob(job_copy, std::move(*p), now);
  }
  return true;
}

void ClusterSimulator::replayFailure(const sched::Job& job, sched::JobId source,
                                     double now) {
  if (rec_.enabled()) policy_->explainFailure(job, ledger_, local_db_);
  if (xray::ProvenanceStore* prov = provenance()) {
    // The policy would walk the same scales to the same rejections as the
    // attempt that recorded the entry (its walk reads the same profile
    // and fails every ledger query it made).
    prov->replayAttempt(job.id, source, job.spec.program, job.spec.procs, now);
  }
}

void ClusterSimulator::scheduleSinglePass(double now, bool futile) {
  // One priority-ordered walk. A placement only consumes resources and
  // per-node feasibility is monotone in free capacity, so a job that
  // failed tryPlace earlier in this pass can never succeed later in the
  // same pass — continuing past a placement visits exactly the jobs a
  // restart-from-head walk would place, in the same order, without
  // re-running tryPlace over the already-skipped prefix. The `scanned`
  // counter tracks the job's live queue position, so the max_queue_scan
  // window and the head-age check count queue positions, not visits.
  //
  // A futile walk visits the same window of the same queue as the last
  // executed pass (no admission or placement since; the head-age stop can
  // only come earlier), so every job it visits holds a memo entry. It
  // replays each to the observers and moves no counter.
  int scanned = 0;
  queue_.walk([&](const sched::Job& job) {
    using W = sched::JobQueue::Walk;
    if (++scanned > cfg_.max_queue_scan) return W::kStop;
    if (futile) {
      const std::uint32_t spec = job_spec_[static_cast<std::size_t>(job.id)];
      replayFailure(job, failed_specs_[spec].job, now);
    } else if (tryDispatch(job, now)) {
      --scanned;  // the dispatched job no longer occupies a queue position
      return W::kRemove;
    }
    // Anti-starvation: once the head job has aged past the limit, no
    // younger job may be backfilled ahead of it. The event-log append
    // below allocates (append-only history, not per-decision scratch), so
    // the pass declares itself a boundary activation.
    if (scanned == 1 && job.age(now) > cfg_.age_limit_s) {
      util::hotpath::markInnermostBoundary();
      rec_.backfillSkipped(job.id, job.age(now),
                           "head job aged past the backfill age limit");
      if (m_backfill_skips_ && !futile) m_backfill_skips_->inc();
      return W::kStop;
    }
    return W::kContinue;
  });
}

bool ClusterSimulator::passProvablyFutile() const {
  if (queue_.empty()) return true;
  // Memo arm: the last executed pass placed nothing with every visited
  // failure memoized (futile_ready_; admissions clear it), so the walk is
  // a pure replay unless something since could unblock a memo entry. The
  // profile database is checked by generation; releases by the idle-core
  // watermark against the smallest query floor any live entry recorded —
  // peeked, not consumed, so the pass that eventually runs still purges
  // over the full release batch. The head-age cutoff can only stop a
  // replayed walk *earlier* (age grows with the clock), which cannot
  // create a placement.
  if (!futile_ready_ || !failed_specs_valid_) return false;
  if (failed_specs_generation_ != local_db_.generation()) return false;
  if (ledger_.releaseEpoch() == failed_specs_release_epoch_) return true;
  return ledger_.peekReleaseIdleWatermark() < failed_specs_min_floor_;
}

void ClusterSimulator::schedule(double now) {
  if (passProvablyFutile()) {
    // A skipped pass is provably a no-op on simulation state: no clock
    // reads, no pass span, no events. Gauges still track reality; the
    // pass counter stays put (no pass ran). Only an event sink or a
    // provenance store is shown the walk the pass would have made.
    if (m_futile_skips_) m_futile_skips_->inc();
    if (m_queue_depth_) m_queue_depth_->set(static_cast<double>(queue_.size()));
    if (m_busy_nodes_) {
      m_busy_nodes_->set(static_cast<double>(ledger_.busyNodeCount()));
    }
    if (rec_.enabled() || provenance() != nullptr) {
      scheduleSinglePass(now, /*futile=*/true);
    }
    return;
  }
  // Pass-level allocation contract: a pass that commits placements is a
  // rate boundary (exempt); an empty-handed pass over warm caches must be
  // heap-silent. Nested markers (sched.decision, engine.refresh) claim
  // their own allocations — this scope covers only the glue between them.
  SNS_HOT_PATH("sched.pass");
  pass_placements_ = 0;
  // Decision-latency metric only — never feeds a scheduling decision.
  using Clock = std::chrono::steady_clock;  // snslint: allow(wall-clock)
  const auto wall_begin = m_decision_us_ ? Clock::now() : Clock::time_point{};
  // The xray pass opens right after the latency stopwatch and closes right
  // before it reads, so the decision span and sim.decision_us cover
  // the same region (uberun hotpath reconciles them within 5%).
  if (cfg_.xray != nullptr) cfg_.xray->beginPass(now);
  if (m_sched_passes_) m_sched_passes_->inc();

  // End-of-pass rate refresh: placements made during the walk only
  // collect their destination groups; one refresh over them runs when the
  // walk ends.
  pass_serial_floor_ = ledger_.lastSerial();
  scheduleSinglePass(now, /*futile=*/false);

  if (!pass_dirty_.empty()) {
    xray::ScopedSpan xs(cfg_.xray, xray::SpanKind::kBatchRefresh);
    refreshRates(now, pass_dirty_, provenance());
    pass_dirty_.clear();
  }

  if (m_queue_depth_) m_queue_depth_->set(static_cast<double>(queue_.size()));
  if (m_busy_nodes_) {
    m_busy_nodes_->set(static_cast<double>(ledger_.busyNodeCount()));
  }
  if (cfg_.xray != nullptr) cfg_.xray->endPass();
  if (m_decision_us_) {
    m_decision_us_->observe(
        std::chrono::duration<double, std::micro>(Clock::now() - wall_begin)
            .count());
  }
  // Arm the futile-pass gate: an empty-handed pass recorded a memo entry
  // for every job it visited, so it will replay identically until an
  // admission, a profile change or a big-enough release.
  futile_ready_ = pass_placements_ == 0;
  if (pass_placements_ > 0) SNS_HOT_PATH_BOUNDARY();
}

void ClusterSimulator::auditTick() {
#if SNS_AUDIT_ENABLED
  // Cross-validate every hand-maintained O(1) structure on the decision
  // path against full recomputation. Null auditor (the default) keeps this
  // a single predictable branch; Release builds compile the call out.
  if (cfg_.auditor != nullptr) {
    cfg_.auditor->auditSchedulerState(ledger_, queue_, solve_cache_);
    // Cross-check every calendar key against a full recomputation of the
    // expected membership: exactly the active jobs, each keyed by its
    // boundary-settled finish projection, bit-for-bit.
    std::vector<std::pair<sched::JobId, double>> expected;
    expected.reserve(active_.size());
    for (sched::JobId id : active_) {
      expected.emplace_back(id, running(id).finish_time);
    }
    cfg_.auditor->auditFinishCalendar(calendar_, expected);
    std::vector<std::pair<sched::JobId, int>> widths;
    widths.reserve(active_.size());
    for (sched::JobId id : active_) {
      widths.emplace_back(id, record(id).placement.nodeCount());
    }
    cfg_.auditor->auditCorunGroups(ledger_, groups_, widths);
  }
#endif
}

void ClusterSimulator::observeStep(double now) {
  xray::ScopedSpan xs(cfg_.xray, xray::SpanKind::kObserve);
  auditTick();
  // Telemetry rides the event clock: one cheap due() check per event, and
  // only when a period boundary has elapsed is a sample built. Post-
  // schedule state is what lands in the series — the scheduler's committed
  // view at this instant.
  if (cfg_.sampler != nullptr && cfg_.sampler->due(now)) sampleTelemetry(now);
}

void ClusterSimulator::sampleTelemetry(double now) {
  // Snapshot observable cluster state and hand it to the sampler, which
  // stamps every elapsed period boundary with it. Everything here is O(1)
  // — the ledger maintains cluster-wide reserved totals on each
  // allocate/release — except the per-node occupancy fill, which only
  // small clusters opt into.
  telemetry::ClusterSample& s = sample_scratch_;
  const int n_nodes = ledger_.nodeCount();
  s.core_util = ledger_.meanCoreOccupancy();
  s.way_util = ledger_.meanWayOccupancy();
  s.bw_util = ledger_.meanBwOccupancy();
  s.busy_nodes = ledger_.busyNodeCount();
  s.total_nodes = n_nodes;
  s.running_jobs = static_cast<int>(active_.size());
  s.queue_depth = queue_.size();
  s.queue_head_age_s = queue_.headAge(now);
  const std::uint64_t lookups = solve_cache_.hits() + solve_cache_.misses();
  s.solver_hit_rate =
      lookups > 0 ? static_cast<double>(solve_cache_.hits()) / lookups : 0.0;
  s.decision_us_p99 = m_decision_us_ != nullptr && m_decision_us_->count() > 0
                          ? m_decision_us_->quantile(0.99)
                          : 0.0;
  s.node_core_occ.clear();
  if (cfg_.sampler->wantsPerNode(n_nodes)) {
    s.node_core_occ.reserve(static_cast<std::size_t>(n_nodes));
    for (int nd = 0; nd < n_nodes; ++nd) {
      s.node_core_occ.push_back(ledger_.node(nd).coreOccupancy());
    }
  }
  cfg_.sampler->advanceTo(now, s);
}

void ClusterSimulator::accumulate(double t0, double t1) {
  if (t1 <= t0) return;
  xray::ScopedSpan xs(cfg_.xray, xray::SpanKind::kAccounting);
  busy_integral_ += ledger_.busyNodeCount() * (t1 - t0);
  if (cfg_.monitor_episode_s <= 0.0) return;

  // Per-node bandwidth is piecewise constant over [t0, t1): sum of each
  // resident job's bandwidth weighted by the fraction of its time spent in
  // the memory-active (compute) component. Idle nodes contribute zero, so
  // only the busy-node list is touched; the scratch buffer is a hoisted
  // member, so steady-state events allocate nothing.
  bw_scratch_.clear();
  for (int nd : busy_nodes_) {
    const sched::CorunGroups::GroupId g = ledger_.groupOf(nd);
    const auto& residents = ledger_.group(g).residents;
    const auto& grp = groups_.slot(g);
    double bw = 0.0;
    for (std::size_t i = 0; i < residents.size(); ++i) {
      const Running& r = running(residents[i].first);
      const double t_inst = 1.0 / r.rate;
      const double comp_part =
          t_inst - r.comm_data_time * r.net_stretch - r.wait_time;
      const double weight = comp_part > 0.0 ? comp_part / t_inst : 0.0;
      bw += grp.out[i].bw_gbps * weight;
    }
    bw_scratch_.emplace_back(nd, bw);
  }

  const int n_nodes = ledger_.nodeCount();
  double t = t0;
  while (t < t1 - 1e-12) {
    const double boundary = episode_start_ + cfg_.monitor_episode_s;
    const double span_end = std::min(t1, boundary);
    for (const auto& [nd, bw] : bw_scratch_) {
      episode_accum_[static_cast<std::size_t>(nd)] += bw * (span_end - t);
    }
    if (span_end >= boundary - 1e-12) {
      // Close the episode: store per-node averages.
      std::vector<double> avg(static_cast<std::size_t>(n_nodes));
      for (int nd = 0; nd < n_nodes; ++nd) {
        avg[static_cast<std::size_t>(nd)] =
            episode_accum_[static_cast<std::size_t>(nd)] / cfg_.monitor_episode_s;
        episode_accum_[static_cast<std::size_t>(nd)] = 0.0;
      }
      episodes_.push_back(std::move(avg));
      episode_start_ = boundary;
    }
    t = span_end;
  }
}

SimResult ClusterSimulator::run(const std::vector<app::JobSpec>& jobs) {
  SNS_REQUIRE(!jobs.empty(), "run() needs at least one job");
  // Wire the event stream for this run; the recorder is detached again
  // below.
  rec_.setSink(cfg_.sink);
  rec_.setTime(0.0);
#if SNS_AUDIT_ENABLED
  // Audit violations ride the same per-run event stream as every other
  // decision event, so they land in traces, reports and the ring buffer.
  if (cfg_.auditor != nullptr) cfg_.auditor->setRecorder(&rec_);
#endif
  // Detach the recorder from the sink and the auditor from the recorder on
  // every exit path: a fail-fast auditor leaves run() by throwing
  // AuditError, and neither may keep pointing at this run's observers
  // afterwards.
  struct SinkGuard {
    ClusterSimulator* sim;
    ~SinkGuard() {
#if SNS_AUDIT_ENABLED
      if (sim->cfg_.auditor != nullptr) sim->cfg_.auditor->setRecorder(nullptr);
#endif
      sim->rec_.setSink(nullptr);
    }
  } sink_guard{this};

  // Reset state so a simulator instance can be reused. The scheduler reads
  // the run-local database: a copy of the seed database that the online
  // monitor (if enabled) extends during the run.
  const std::size_t n = jobs.size();
  local_db_ = *db_;
  ledger_ = actuator::ResourceLedger(cfg_.nodes, est_->machine());
  queue_ = sched::JobQueue{};
  solve_cache_.clear();
  // The spec memo is epoch-guarded but the ledger (and its epochs) was
  // just rebuilt; drop it (the per-job loop below re-interns the spec ids
  // and sizes it afresh). The policy's placement plans need nothing: the
  // copy above took a fresh database generation.
  failed_specs_valid_ = false;
  failed_specs_min_floor_ = std::numeric_limits<int>::max();
  futile_ready_ = false;
  pass_placements_ = 0;
  solo_memo_.clear();
  pass_dirty_.clear();
  group_owner_.clear();
  running_.assign(n, Running{});
  records_.assign(n, JobRecord{});
  active_.clear();
  active_pos_.assign(n, -1);
  active_hwm_ = 0;
  if (m_active_hwm_) m_active_hwm_->set(0.0);
  calendar_.reset(n);
  if (cfg_.flight != nullptr) {
    cfg_.flight->beginRun(n, cfg_.nodes);
    flight_group_memo_.clear();
    flight_open_key_.assign(n, FlightOpenKey{});
    flight_sig_memo_.clear();
  } else {
    flight_group_memo_.clear();
    flight_open_key_.clear();
    flight_sig_memo_.clear();
  }
  job_stamp_.assign(n, 0u);
  stamp_epoch_ = 0;
  groups_.reset(n);
  group_epoch_ = 0;
  busy_nodes_.clear();
  std::fill(busy_pos_.begin(), busy_pos_.end(), -1);
  episodes_.clear();
  std::fill(episode_accum_.begin(), episode_accum_.end(), 0.0);
  episode_start_ = 0.0;
  busy_integral_ = 0.0;
  std::fill(node_donated_.begin(), node_donated_.end(), 0.0);

  // Build submit-ordered job list, interning each job's spec key.
  std::vector<sched::Job> submits;
  submits.reserve(n);
  std::unordered_map<SpecKey, std::uint32_t, SpecKeyHash> spec_ids;
  job_spec_.assign(n, 0u);
  for (std::size_t i = 0; i < n; ++i) {
    sched::Job j;
    j.id = static_cast<sched::JobId>(i);
    j.spec = jobs[i];
    j.program = &app::findProgram(*library_, jobs[i].program);
    SNS_REQUIRE(j.program->calibrated(), "program must be calibrated");
    j.submit_time = jobs[i].submit_time;
    const SpecKey key{j.program, jobs[i].procs,
                      std::bit_cast<std::uint64_t>(jobs[i].alpha)};
    job_spec_[i] = spec_ids.try_emplace(key, static_cast<std::uint32_t>(spec_ids.size()))
                       .first->second;
    JobRecord& rec = records_[i];
    rec.id = j.id;
    rec.spec = jobs[i];
    rec.submit = jobs[i].submit_time;
    submits.push_back(std::move(j));
  }
  failed_specs_.assign(spec_ids.size(), FailedSpec{});
  failed_live_.clear();
  failed_live_.reserve(spec_ids.size());
  std::stable_sort(submits.begin(), submits.end(),
                   [](const sched::Job& a, const sched::Job& b) {
                     return a.submit_time < b.submit_time;
                   });

  double now = 0.0;
  std::size_t next_submit = 0;

  // Every event-loop step, starting with the t = 0 admission step, is one
  // xray unit under an `event` root span, so the tracer's attributed time
  // covers the whole loop, not only the decision passes.
  if (cfg_.xray != nullptr) cfg_.xray->beginStep(now);
  // Admit everything submitted at t = 0 before the first scheduling pass.
  while (next_submit < submits.size() &&
         submits[next_submit].submit_time <= now + 1e-12) {
    admit(std::move(submits[next_submit++]));
  }
  schedule(now);
  observeStep(now);
  if (cfg_.xray != nullptr) cfg_.xray->endStep();

  while (!active_.empty() || !queue_.empty() || next_submit < submits.size()) {
    // Next completion: the calendar's top key IS the minimum projected
    // finish time.
    const double t_finish = calendar_.empty() ? kInf : calendar_.topKey();
    // Next submission.
    const double t_submit =
        next_submit < submits.size() ? submits[next_submit].submit_time : kInf;

    SNS_REQUIRE(t_finish < kInf || t_submit < kInf,
                "scheduler stuck: queued jobs but nothing running or arriving");
    const double t_next = std::min(t_finish, t_submit);

    if (cfg_.xray != nullptr) cfg_.xray->beginStep(t_next);
    accumulate(now, t_next);
    now = t_next;
    rec_.setTime(now);

    while (next_submit < submits.size() &&
           submits[next_submit].submit_time <= now + 1e-12) {
      admit(std::move(submits[next_submit++]));
    }

    // Finish everything projected to complete at this instant, in
    // ascending id order. Every such job carries finish_time == now
    // exactly (t_next is the minimum of the keys), so the calendar's
    // (key, id) pop order IS ascending id order.
    {
      xray::ScopedSpan xs(cfg_.xray, xray::SpanKind::kFinish);
      done_scratch_.clear();
      while (!calendar_.empty() && calendar_.topKey() <= now) {
        done_scratch_.push_back(calendar_.pop());
      }
      for (sched::JobId id : done_scratch_) finishJob(id, now);
    }

    schedule(now);
    observeStep(now);
    if (cfg_.xray != nullptr) cfg_.xray->endStep();
  }

  if (cfg_.flight != nullptr) {
    cfg_.flight->endRun(now);
    // Reconcile every job's attributed slowdown ledger against its actual
    // vs solo runtime. Post-run and O(jobs) — cheap enough to run whenever
    // an auditor is attached, independent of the SNS_AUDIT hot-path gate.
    if (cfg_.auditor != nullptr) cfg_.auditor->auditFlightLedger(*cfg_.flight);
  }

  SimResult res;
  res.policy = policy_->name();
  res.makespan = now;
  res.busy_node_seconds = busy_integral_;
  res.node_bw_episodes.assign(static_cast<std::size_t>(cfg_.nodes), {});
  for (const auto& ep : episodes_) {
    for (int nd = 0; nd < cfg_.nodes; ++nd) {
      res.node_bw_episodes[static_cast<std::size_t>(nd)].push_back(
          ep[static_cast<std::size_t>(nd)]);
    }
  }
  for (const JobRecord& rec : records_) {
    SNS_REQUIRE(rec.completed(), "job never completed");
  }
  // Already in ascending id order. Moved, not copied: the next run()
  // reassigns records_ before reading it.
  res.jobs = std::move(records_);
  return res;
}

}  // namespace sns::sim
