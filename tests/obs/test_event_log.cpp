#include "sns/obs/sink.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <tuple>
#include <vector>

#include "sns/app/library.hpp"
#include "sns/obs/recorder.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/sim/cluster_sim.hpp"
#include "sns/util/error.hpp"
#include "sns/util/json.hpp"

namespace sns::obs {
namespace {

Event makeEvent(EventType type, std::int64_t job) {
  Event e;
  e.type = type;
  e.job = job;
  return e;
}

TEST(Event, TypeNamesAreDistinct) {
  const EventType all[] = {
      EventType::kJobSubmitted,      EventType::kScheduleAttempt,
      EventType::kPlacementDecided,  EventType::kWaysDonated,
      EventType::kWaysReclaimed,     EventType::kBackfillSkipped,
      EventType::kExplorationStarted, EventType::kExplorationPreempted,
      EventType::kBandwidthThrottled, EventType::kMonitorEpisode,
      EventType::kJobStarted,        EventType::kJobFinished,
  };
  std::set<std::string> names;
  for (auto t : all) names.insert(to_string(t));
  EXPECT_EQ(names.size(), std::size(all));
  EXPECT_EQ(names.count("unknown"), 0u);
}

TEST(Event, ToJsonOmitsDefaultedFields) {
  Event e;
  e.type = EventType::kJobFinished;
  e.time = 12.5;
  const auto j = toJson(e);
  EXPECT_EQ(j.get("type").asString(), "job_finished");
  EXPECT_DOUBLE_EQ(j.get("t").asNumber(), 12.5);
  EXPECT_FALSE(j.has("job"));
  EXPECT_FALSE(j.has("candidates"));
}

TEST(Event, ToJsonCarriesCandidates) {
  Event e;
  e.type = EventType::kPlacementDecided;
  e.job = 3;
  e.candidates = {{0, 1.5}, {2, 0.25}};
  const auto j = toJson(e);
  const auto& cands = j.get("candidates").asArray();
  ASSERT_EQ(cands.size(), 2u);
  EXPECT_EQ(cands[1].get("node").asNumber(), 2.0);
  EXPECT_DOUBLE_EQ(cands[1].get("score").asNumber(), 0.25);
}

TEST(RingBuffer, PreservesOrderBelowCapacity) {
  RingBufferLog log(8);
  for (int i = 0; i < 5; ++i) {
    log.record(makeEvent(EventType::kJobSubmitted, i));
  }
  const auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(snap[static_cast<std::size_t>(i)].job, i);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  RingBufferLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.record(makeEvent(EventType::kJobSubmitted, i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.totalRecorded(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
  const auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  // Flight-recorder semantics: the newest 4 survive, oldest first.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(snap[static_cast<std::size_t>(i)].job, 6 + i);
  }
}

TEST(RingBuffer, DroppedThroughTracksOverwrittenTimestamps) {
  RingBufferLog log(4);
  for (int i = 0; i < 4; ++i) {
    Event e = makeEvent(EventType::kJobSubmitted, i);
    e.time = 100.0 * i;
    log.record(e);
  }
  // Nothing dropped yet.
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_DOUBLE_EQ(log.droppedThrough(), 0.0);

  // Each further record overwrites the current oldest; the high-water
  // timestamp follows the most recently evicted event.
  log.record(makeEvent(EventType::kJobSubmitted, 4));
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_DOUBLE_EQ(log.droppedThrough(), 0.0);  // the t=0 event went first
  log.record(makeEvent(EventType::kJobSubmitted, 5));
  EXPECT_EQ(log.dropped(), 2u);
  EXPECT_DOUBLE_EQ(log.droppedThrough(), 100.0);
  log.record(makeEvent(EventType::kJobSubmitted, 6));
  EXPECT_DOUBLE_EQ(log.droppedThrough(), 200.0);
}

TEST(RingBuffer, ClearResetsEverything) {
  RingBufferLog log(2);
  log.record(makeEvent(EventType::kJobStarted, 1));
  log.record(makeEvent(EventType::kJobStarted, 2));
  log.record(makeEvent(EventType::kJobStarted, 3));
  ASSERT_EQ(log.dropped(), 1u);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
  EXPECT_EQ(log.totalRecorded(), 0u);
  EXPECT_EQ(log.dropped(), 0u);
  EXPECT_DOUBLE_EQ(log.droppedThrough(), 0.0);
  EXPECT_TRUE(log.snapshot().empty());
}

TEST(RingBuffer, RejectsZeroCapacity) {
  EXPECT_THROW(RingBufferLog(0), util::PreconditionError);
}

TEST(JsonlSink, EachLineParsesBack) {
  std::ostringstream os;
  JsonlSink sink(os);
  Event e1 = makeEvent(EventType::kJobStarted, 7);
  e1.what = "MG";
  e1.node = 3;
  sink.record(e1);
  sink.record(makeEvent(EventType::kJobFinished, 7));
  EXPECT_EQ(sink.count(), 2u);

  std::istringstream is(os.str());
  std::string line;
  std::vector<util::Json> parsed;
  while (std::getline(is, line)) parsed.push_back(util::Json::parse(line));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed[0].get("type").asString(), "job_started");
  EXPECT_EQ(parsed[0].get("what").asString(), "MG");
  EXPECT_EQ(parsed[0].get("node").asNumber(), 3.0);
  EXPECT_EQ(parsed[1].get("type").asString(), "job_finished");
}

TEST(JsonlSink, FinishAppendsDigestLine) {
  std::ostringstream os;
  JsonlSink sink(os);
  sink.record(makeEvent(EventType::kJobStarted, 1));
  sink.record(makeEvent(EventType::kJobFinished, 1));
  EXPECT_TRUE(sink.finish());
  EXPECT_EQ(sink.writeErrors(), 0u);

  std::istringstream is(os.str());
  std::string line, last;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    last = line;
    ++lines;
  }
  ASSERT_EQ(lines, 3u);
  const util::Json digest = util::Json::parse(last);
  EXPECT_TRUE(digest.get("jsonl_digest").asBool());
  EXPECT_EQ(digest.get("events").asNumber(), 2.0);
  EXPECT_EQ(digest.get("write_errors").asNumber(), 0.0);
}

TEST(JsonlSink, CountsWriteFailuresPerEvent) {
  // A stream wedged at failbit models a full disk / broken pipe: every
  // write must be counted as an error instead of silently dropped, and
  // the error flags must be cleared so later events still get a chance.
  std::ostringstream os;
  JsonlSink sink(os);
  sink.record(makeEvent(EventType::kJobStarted, 1));
  ASSERT_EQ(sink.writeErrors(), 0u);

  os.setstate(std::ios::failbit);
  sink.record(makeEvent(EventType::kJobStarted, 2));
  // clear() in record() re-arms the stream; wedge it again for the next.
  os.setstate(std::ios::failbit);
  sink.record(makeEvent(EventType::kJobStarted, 3));
  EXPECT_EQ(sink.count(), 3u);
  EXPECT_EQ(sink.writeErrors(), 2u);

  // The digest surfaces the losses; a healthy stream writes it cleanly.
  EXPECT_TRUE(sink.finish());
  std::istringstream is(os.str());
  std::string line, last;
  while (std::getline(is, line)) last = line;
  EXPECT_EQ(util::Json::parse(last).get("write_errors").asNumber(), 2.0);

  // And a digest that itself fails to write reports failure.
  os.setstate(std::ios::badbit);
  EXPECT_FALSE(sink.finish());
  EXPECT_EQ(sink.writeErrors(), 3u);
}

TEST(TeeSink, FansOutToAllSinks) {
  NullSink a, b;
  TeeSink tee;
  tee.add(&a);
  tee.add(&b);
  tee.add(nullptr);  // ignored
  tee.record(makeEvent(EventType::kWaysDonated, -1));
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(b.count(), 1u);
}

TEST(Recorder, DisabledRecorderIsANoOp) {
  Recorder rec;  // no sink attached
  EXPECT_FALSE(rec.enabled());
  rec.jobSubmitted(1, "MG", 16);
  rec.placementDecided(1, "MG", 2, 9, 10.0, false, {{0, 1.0}});
  rec.jobFinished(1, "MG", 100.0);
  // Attach a sink afterwards: nothing was buffered while disabled.
  NullSink sink;
  rec.setSink(&sink);
  EXPECT_TRUE(rec.enabled());
  EXPECT_EQ(sink.count(), 0u);
}

TEST(Recorder, StampsCurrentTimeOnEmit) {
  RingBufferLog log(8);
  Recorder rec(&log);
  rec.setTime(10.0);
  rec.jobSubmitted(1, "MG", 16);
  rec.setTime(25.5);
  rec.jobStarted(1, "MG", 0, 2, 9, 2, false);
  const auto snap = log.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_DOUBLE_EQ(snap[0].time, 10.0);
  EXPECT_EQ(snap[0].type, EventType::kJobSubmitted);
  EXPECT_EQ(snap[0].ways, 16);  // procs travel in the ways field
  EXPECT_DOUBLE_EQ(snap[1].time, 25.5);
  EXPECT_EQ(snap[1].type, EventType::kJobStarted);
  EXPECT_DOUBLE_EQ(snap[1].value, 2.0);  // node count
}

TEST(BandwidthThrottled, MbaCapEventSequenceIsPinned) {
  // Contended SNS co-location with MBA caps enforced: every transition of
  // a co-located job into the capped regime emits one bandwidth_throttled
  // event (job, first placement node, cap). The Fig-20 traces never enable
  // MBA, so this small run pins the event's exact sequence.
  auto lib = app::programLibrary();
  perfmodel::Estimator est;
  for (auto& p : lib) est.calibrate(p);
  profile::ProfilerConfig pcfg;
  pcfg.pmu_noise = 0.0;
  profile::Profiler prof(est, pcfg);
  profile::ProfileDatabase db;
  for (const auto& p : lib) db.put(prof.profileProgram(p, 16));
  std::vector<app::JobSpec> jobs;
  const char* progs[] = {"MG", "LU", "CG", "BW"};
  for (int i = 0; i < 16; ++i) {
    jobs.push_back({progs[i % 4], i % 3 == 0 ? 28 : 16, 0.9, 200.0 * (i / 4), 1,
                    0.0});
  }
  RingBufferLog log;
  sim::SimConfig cfg;
  cfg.nodes = 4;
  cfg.policy = sched::PolicyKind::kSNS;
  cfg.enforce_bandwidth_caps = true;
  // Without way donation a job's achieved bandwidth tracks its profiled
  // reservation closely enough for the cap to bind.
  cfg.donate_unused_ways = false;
  cfg.sink = &log;
  sim::ClusterSimulator simulator(est, lib, db, cfg);
  simulator.run(jobs);

  // (time, job, node, cap) of every bandwidth_throttled event, bit-exact.
  using Throttle = std::tuple<double, std::int64_t, int, double>;
  const std::vector<Throttle> expected = {
      {0x0p+0, 1, 1, 0x1.3f44850bac056p+6},
      {0x0p+0, 2, 1, 0x1.588dbef3d4271p+4},
      {0x1.9p+7, 4, 0, 0x1.cc00000000001p+6},
      {0x1.2c3562a39ea82p+8, 5, 0, 0x1.ccp+6},
      {0x1.376592bfceceep+8, 7, 2, 0x1.cbfffffffffffp+6},
      {0x1.31f8f028b8255p+9, 8, 1, 0x1.cc00000000001p+6},
      {0x1.d9bb46bf38458p+9, 11, 0, 0x1.cbfffffffffffp+6},
      {0x1.34ba7958e91f6p+10, 13, 2, 0x1.ccp+6},
  };
  std::vector<Throttle> got;
  for (const Event& e : log.snapshot()) {
    if (e.type == EventType::kBandwidthThrottled) {
      got.emplace_back(e.time, e.job, e.node, e.value);
    }
  }
  EXPECT_EQ(log.dropped(), 0u);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& [t, job, node, cap] = got[i];
    EXPECT_EQ(got[i], expected[i])
        << "event " << i << ": " << std::hexfloat << t << " job " << job
        << " node " << node << " cap " << cap;
  }
}

}  // namespace
}  // namespace sns::obs
