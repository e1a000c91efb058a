// sns::audit behavior: a consistent scheduler stack audits clean, every
// supported corruption is caught (via the documented debugCorrupt* test
// hooks), fail-fast escalates to AuditError, violations flow into the obs
// event stream, and a full simulator run under per-pass auditing stays
// clean without changing the schedule.
#include "sns/audit/audit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "sns/app/library.hpp"
#include "sns/obs/sink.hpp"
#include "sns/perfmodel/contention.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"

namespace sns::audit {
namespace {

class AuditorTest : public ::testing::Test {
 protected:
  AuditorTest() : lib_(app::programLibrary()), solver_(mach_) {}

  sched::Job job(sched::JobId id, double submit = 0.0) const {
    sched::Job j;
    j.id = id;
    j.spec = {"EP", 16, 0.9, submit, 1, 0.0};
    j.program = &lib_.front();
    j.submit_time = submit;
    return j;
  }

  hw::MachineConfig mach_ = hw::MachineConfig::xeonE5_2680v4();
  std::vector<app::ProgramModel> lib_;
  perfmodel::NodeContentionSolver solver_;
};

TEST_F(AuditorTest, ConsistentStateAuditsClean) {
  actuator::ResourceLedger ledger(8, mach_);
  ledger.allocate(0, 1, {16, 10, 40.0, false});
  ledger.allocate(0, 2, {8, 5, 20.0, false});
  ledger.allocate(3, 3, {28, 0, 0.0, true});
  ledger.release(0, 2);

  sched::JobQueue queue;
  queue.push(job(1, 0.0));
  queue.push(job(2, 5.0));
  queue.push(job(3, 10.0));
  queue.remove(2);

  perfmodel::SolverCache cache(solver_);
  perfmodel::NodeShare share{&lib_.front(), 16, 20.0, 0.0, 1.0};
  cache.solve(std::span<const perfmodel::NodeShare>(&share, 1));
  cache.solve(std::span<const perfmodel::NodeShare>(&share, 1));

  Auditor auditor;
  EXPECT_EQ(auditor.auditSchedulerState(ledger, queue, cache), 0u);
  EXPECT_TRUE(auditor.ok());
  EXPECT_GT(auditor.checksRun(), 0u);
  EXPECT_EQ(auditor.passesRun(), 1u);
  EXPECT_NE(auditor.report().find("all clean"), std::string::npos);
}

TEST_F(AuditorTest, CorruptedLedgerTotalIsCaught) {
  actuator::ResourceLedger ledger(4, mach_);
  ledger.allocate(1, 7, {16, 10, 40.0, false});
  ledger.debugCorruptCoreTotal(+3);

  Auditor auditor;
  EXPECT_GT(auditor.auditLedger(ledger), 0u);
  EXPECT_FALSE(auditor.ok());
  bool found = false;
  for (const Violation& v : auditor.violations()) {
    if (v.check == "ledger.core_total") found = true;
  }
  EXPECT_TRUE(found) << auditor.report();
}

TEST_F(AuditorTest, CorruptedIdleBucketIsCaught) {
  actuator::ResourceLedger ledger(4, mach_);
  ledger.allocate(2, 9, {8, 4, 10.0, false});
  ledger.debugCorruptBucket(2);

  Auditor auditor;
  EXPECT_GT(auditor.auditLedger(ledger), 0u);
  bool found = false;
  for (const Violation& v : auditor.violations()) {
    if (v.check == "ledger.bucket_missing" ||
        v.check == "ledger.bucket_count") {
      found = true;
    }
  }
  EXPECT_TRUE(found) << auditor.report();
}

// The class table: node -> class links, class member counts and class ->
// group links are cross-checked against a recount.
TEST_F(AuditorTest, CorruptedClassTableIsCaught) {
  actuator::ResourceLedger ledger(4, mach_);
  const std::vector<int> all = {0, 1, 2, 3};
  ledger.allocate(all, 1, {4, 2, 0.1, false});
  ledger.allocate(std::vector<int>{0, 1}, 2, {4, 2, 0.2, false});
  const auto caught = [&ledger](const char* name) {
    Auditor a;
    EXPECT_GT(a.auditLedger(ledger), 0u) << name;
    bool found = false;
    for (const Violation& v : a.violations()) found = found || v.check == name;
    EXPECT_TRUE(found) << name << "\n" << a.report();
  };
  Auditor clean;
  EXPECT_EQ(clean.auditLedger(ledger), 0u) << clean.report();

  const auto pair = ledger.classOf(0);
  const auto solo = ledger.classOf(2);
  ASSERT_NE(pair, solo);
  ledger.debugCorruptClassMembers(solo, +1);
  caught("ledger.class_members");
  ledger.debugCorruptClassMembers(solo, -1);

  // Node 2 named by the two-job class: the counts and its bucket disagree.
  ledger.debugSetNodeClass(2, pair);
  caught("ledger.class_members");
  caught("ledger.class_bucket");
  ledger.debugSetNodeClass(2, solo);

  // A class naming a pooled group: job 3 visits node 3 and leaves, so
  // its group goes back to the free list.
  ledger.allocate(3, 3, {4, 2, 0.3, false});
  const auto pooled = static_cast<actuator::ResourceLedger::GroupId>(ledger.groupSlots() - 1);
  ledger.release(3, 3);
  ASSERT_FALSE(ledger.group(pooled).live);
  const auto grp = ledger.nodeClass(solo).group;
  ledger.debugSetClassGroup(solo, pooled);
  caught("ledger.class_group");
  ledger.debugSetClassGroup(solo, grp);

  Auditor restored;
  EXPECT_EQ(restored.auditLedger(ledger), 0u) << restored.report();
}

TEST_F(AuditorTest, CorruptedQueueAccountingIsCaught) {
  sched::JobQueue queue;
  queue.push(job(1));
  queue.push(job(2, 3.0));
  queue.debugCorruptLiveCount(+1);

  Auditor auditor;
  EXPECT_GT(auditor.auditQueue(queue), 0u);
  EXPECT_FALSE(auditor.ok());
}

TEST_F(AuditorTest, CorruptedSolverCacheEntryIsCaught) {
  // One partitioned share, as on an SNS node: the memo holds its
  // derivation and nothing else, and a flipped bit in it is caught.
  perfmodel::SolverCache cache(solver_);
  perfmodel::NodeShare share{&lib_.front(), 16, 20.0, 0.0, 1.0};
  cache.solve(std::span<const perfmodel::NodeShare>(&share, 1));
  cache.debugCorruptEntry();

  Auditor auditor;
  EXPECT_GT(auditor.auditSolverCache(cache), 0u);
  EXPECT_FALSE(auditor.ok());
  EXPECT_NE(auditor.report().find("differ from a fresh derivation"), std::string::npos)
      << auditor.report();
}

TEST_F(AuditorTest, FailFastThrowsOnFirstViolation) {
  actuator::ResourceLedger ledger(4, mach_);
  ledger.allocate(0, 1, {16, 0, 0.0, false});
  ledger.debugCorruptCoreTotal(-2);

  AuditorConfig cfg;
  cfg.fail_fast = true;
  Auditor auditor(cfg);
  EXPECT_THROW(auditor.auditLedger(ledger), AuditError);
  // The violation is recorded before the throw, so the report names it.
  EXPECT_FALSE(auditor.ok());
  EXPECT_EQ(auditor.totalViolations(), 1u);
}

TEST_F(AuditorTest, ViolationsFlowIntoTheObsStream) {
  actuator::ResourceLedger ledger(4, mach_);
  ledger.allocate(0, 1, {16, 0, 0.0, false});
  ledger.debugCorruptCoreTotal(+1);

  obs::RingBufferLog log;
  obs::Recorder rec;
  rec.setSink(&log);
  Auditor auditor;
  auditor.setRecorder(&rec);
  EXPECT_GT(auditor.auditLedger(ledger), 0u);

  bool seen = false;
  for (const obs::Event& e : log.snapshot()) {
    if (e.type == obs::EventType::kAuditViolation) {
      seen = true;
      EXPECT_FALSE(e.what.empty());
      EXPECT_FALSE(e.detail.empty());
    }
  }
  EXPECT_TRUE(seen);
}

TEST_F(AuditorTest, ViolationRecordingIsCappedButCountingIsNot) {
  sched::JobQueue queue;
  queue.push(job(1));
  queue.debugCorruptLiveCount(+1);

  AuditorConfig cfg;
  cfg.max_recorded = 2;
  Auditor auditor(cfg);
  for (int i = 0; i < 5; ++i) auditor.auditQueue(queue);
  EXPECT_LE(auditor.violations().size(), 2u);
  EXPECT_GE(auditor.totalViolations(), 5u);
}

TEST_F(AuditorTest, ConsistentFinishCalendarAuditsClean) {
  sched::FinishCalendar cal;
  cal.reset(8);
  cal.insert(1, 120.0);
  cal.insert(4, 80.0);
  cal.insert(6, 80.0);  // tie with job 4: top must be the smaller id

  Auditor auditor;
  EXPECT_EQ(auditor.auditFinishCalendar(
                cal, {{1, 120.0}, {4, 80.0}, {6, 80.0}}),
            0u);
  EXPECT_TRUE(auditor.ok()) << auditor.report();
}

TEST_F(AuditorTest, CalendarDisagreementsAreCaught) {
  sched::FinishCalendar cal;
  cal.reset(8);
  cal.insert(1, 120.0);
  cal.insert(4, 80.0);

  // Missing member: job 6 is active but never inserted.
  Auditor a1;
  EXPECT_GT(a1.auditFinishCalendar(cal, {{1, 120.0}, {4, 80.0}, {6, 50.0}}),
            0u);
  bool missing = false;
  for (const Violation& v : a1.violations()) {
    if (v.check == "calendar.membership") missing = true;
  }
  EXPECT_TRUE(missing) << a1.report();

  // Stale key: the recomputed projection moved but the calendar was not
  // re-keyed (one-ULP drift counts — the check is bit-exact).
  Auditor a2;
  EXPECT_GT(a2.auditFinishCalendar(cal, {{1, 120.0}, {4, 80.00000000000001}}),
            0u);
  bool stale = false;
  for (const Violation& v : a2.violations()) {
    if (v.check == "calendar.key") stale = true;
  }
  EXPECT_TRUE(stale) << a2.report();

  // Spurious entry: a finished job still on the calendar shows up as a
  // size disagreement.
  Auditor a3;
  EXPECT_GT(a3.auditFinishCalendar(cal, {{1, 120.0}}), 0u);
  bool spurious = false;
  for (const Violation& v : a3.violations()) {
    if (v.check == "calendar.size") spurious = true;
  }
  EXPECT_TRUE(spurious) << a3.report();
}

TEST_F(AuditorTest, CorunGroupTableAuditsCleanAndCatchesDrift) {
  // Two jobs on a 4-node cluster: job 1 spread over nodes 0-2, job 2
  // co-located on nodes 1-2 — three groups (idle, {1}, {1,2}).
  const actuator::NodeAllocation a1{8, 4, 10.0, false};
  const actuator::NodeAllocation a2{8, 4, 10.0, false};
  actuator::ResourceLedger ledger(4, mach_);
  sched::CorunGroups groups;
  groups.reset(3);
  const std::vector<int> p1 = {0, 1, 2};
  const std::vector<int> p2 = {1, 2};
  groups.join(1, 0.0, ledger, ledger.allocate(p1, 1, a1));
  groups.join(2, 0.0, ledger, ledger.allocate(p2, 2, a2));
  const std::vector<std::pair<sched::JobId, int>> widths = {{1, 3}, {2, 2}};

  Auditor clean;
  EXPECT_EQ(clean.auditCorunGroups(ledger, groups, widths), 0u)
      << clean.report();
  EXPECT_GT(clean.checksRun(), 0u);

  const auto caught = [&](const char* name, const std::vector<std::pair<sched::JobId, int>>& w) {
    Auditor a;
    EXPECT_GT(a.auditCorunGroups(ledger, groups, w), 0u) << name;
    bool found = false;
    for (const Violation& v : a.violations()) found = found || v.check == name;
    EXPECT_TRUE(found) << name << "\n" << a.report();
  };

  // A running job whose histogram no longer covers its placement.
  caught("groups.histogram", {{1, 3}, {2, 3}});

  // Member count drift on the shared group.
  const auto shared = ledger.groupOf(1);
  ledger.debugCorruptMembers(shared, +1);
  caught("groups.members", widths);
  ledger.debugCorruptMembers(shared, -1);

  // A histogram entry whose count disagrees with its group.
  groups.debugCorruptHistogram(2, +1);
  caught("groups.histogram_entry", widths);
  groups.debugCorruptHistogram(2, -1);

  // Cached group state that no longer matches its allocation list.
  actuator::GroupState& st = ledger.debugCorruptGroup(shared);
  st.cores_used += 1;
  caught("groups.totals", widths);
  st.cores_used -= 1;
  st.exclusive = true;
  caught("groups.exclusive", widths);
  st.exclusive = false;
  st.partitioned += 1;
  caught("groups.partitioned", widths);
  st.partitioned -= 1;
  const double occ = st.occ_ways;
  st.occ_ways = std::nextafter(occ, 1.0);
  caught("groups.occupancy", widths);
  st.occ_ways = occ;
  st.residents.push_back(st.residents.front());
  caught("groups.residents", widths);
  st.residents.pop_back();

  // A busy node pointing at the wrong group (through the class of a node
  // of another group): its member counts and its idle-core bucket no
  // longer agree with the table.
  const auto shared_class = ledger.classOf(1);
  ledger.debugSetNodeClass(1, ledger.classOf(0));
  caught("groups.bucket", widths);
  caught("groups.members", widths);
  ledger.debugSetNodeClass(1, shared_class);
  // A class naming a group id the table never issued.
  ledger.debugSetClassGroup(shared_class, static_cast<actuator::ResourceLedger::GroupId>(
                                              ledger.groupSlots()));
  caught("groups.dangling", widths);
  ledger.debugSetClassGroup(shared_class, shared);

  Auditor restored;
  EXPECT_EQ(restored.auditCorunGroups(ledger, groups, widths), 0u)
      << restored.report();

  // A node missing from its group's idle-core bucket.
  ledger.debugCorruptBucket(0);
  caught("groups.bucket", widths);
}

#if SNS_AUDIT_ENABLED
// End-to-end: a real simulator run with per-pass auditing stays clean and
// produces the same schedule as an unaudited run.
TEST(AuditorSimTest, FullRunAuditsCleanWithoutChangingTheSchedule) {
  auto lib = app::programLibrary();
  perfmodel::Estimator est;
  for (auto& p : lib) est.calibrate(p);
  profile::ProfilerConfig pcfg;
  pcfg.pmu_noise = 0.0;
  profile::Profiler prof(est, pcfg);
  profile::ProfileDatabase db;
  for (const auto& p : lib) db.put(prof.profileProgram(p, 16));
  const std::vector<app::JobSpec> jobs = {{"MG", 16, 0.9, 0.0, 2, 0.0},
                                          {"HC", 28, 0.9, 10.0, 1, 0.0},
                                          {"LU", 16, 0.9, 20.0, 2, 0.0}};

  sim::SimConfig plain;
  plain.nodes = 8;
  plain.policy = sched::PolicyKind::kSNS;
  sim::ClusterSimulator base(est, lib, db, plain);
  const auto base_res = base.run(jobs);

  Auditor auditor;
  sim::SimConfig audited = plain;
  audited.auditor = &auditor;
  sim::ClusterSimulator sim(est, lib, db, audited);
  const auto res = sim.run(jobs);

  EXPECT_TRUE(auditor.ok()) << auditor.report();
  EXPECT_GT(auditor.passesRun(), 0u);
  EXPECT_GT(auditor.checksRun(), 0u);
  ASSERT_EQ(res.jobs.size(), base_res.jobs.size());
  EXPECT_DOUBLE_EQ(res.makespan, base_res.makespan);
  for (std::size_t i = 0; i < res.jobs.size(); ++i) {
    EXPECT_DOUBLE_EQ(res.jobs[i].start, base_res.jobs[i].start);
    EXPECT_DOUBLE_EQ(res.jobs[i].finish, base_res.jobs[i].finish);
  }
}
#endif  // SNS_AUDIT_ENABLED

}  // namespace
}  // namespace sns::audit
