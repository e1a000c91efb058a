#include "sns/profile/database.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "sns/app/library.hpp"
#include "sns/perfmodel/estimator.hpp"
#include "sns/profile/profiler.hpp"
#include "sns/util/error.hpp"

namespace sns::profile {
namespace {

ProgramProfile sampleProfile(const std::string& name, int procs) {
  ProgramProfile p;
  p.program = name;
  p.procs = procs;
  p.cls = ScalingClass::kScaling;
  p.ideal_scale = 2;
  ScaleProfile s1;
  s1.scale_factor = 1;
  s1.nodes = 1;
  s1.procs_per_node = procs;
  s1.exclusive_time = 100.0;
  s1.ipc_llc = util::Curve({{2.0, 0.4}, {20.0, 0.8}});
  s1.bw_llc = util::Curve({{2.0, 60.0}, {20.0, 30.0}});
  p.scales.push_back(s1);
  ScaleProfile s2 = s1;
  s2.scale_factor = 2;
  s2.nodes = 2;
  s2.procs_per_node = procs / 2;
  s2.exclusive_time = 80.0;
  p.scales.push_back(s2);
  return p;
}

TEST(Database, GenerationTracksMutations) {
  // The generation backs invalidation of SnsPolicy's placement plans:
  // every successful put/erase must move it on, a no-op erase must not,
  // and a copy (whose profiles live at new addresses) or another database
  // must never share it (so a fresh copy never aliases a stale memo).
  ProfileDatabase db;
  const std::uint64_t g0 = db.generation();
  db.put(sampleProfile("A", 16));
  EXPECT_GT(db.generation(), g0);
  const std::uint64_t g1 = db.generation();
  db.put(sampleProfile("A", 16));  // replacement still mutates
  EXPECT_GT(db.generation(), g1);
  const std::uint64_t g2 = db.generation();
  EXPECT_FALSE(db.erase("B", 16));  // absent key: no change
  EXPECT_EQ(db.generation(), g2);
  EXPECT_TRUE(db.erase("A", 16));
  EXPECT_GT(db.generation(), g2);
  ProfileDatabase copy = db;
  EXPECT_NE(copy.generation(), db.generation());
  ProfileDatabase assigned;
  assigned = db;
  EXPECT_NE(assigned.generation(), db.generation());
  EXPECT_NE(assigned.generation(), copy.generation());
  EXPECT_NE(ProfileDatabase().generation(), ProfileDatabase().generation());
}

TEST(Database, PutAndFind) {
  ProfileDatabase db;
  db.put(sampleProfile("MG", 16));
  EXPECT_TRUE(db.contains("MG", 16));
  EXPECT_FALSE(db.contains("MG", 28));
  EXPECT_FALSE(db.contains("CG", 16));
  const auto* p = db.find("MG", 16);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->ideal_scale, 2);
}

TEST(Database, PutReplacesExisting) {
  ProfileDatabase db;
  db.put(sampleProfile("MG", 16));
  auto updated = sampleProfile("MG", 16);
  updated.ideal_scale = 4;
  db.put(updated);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.find("MG", 16)->ideal_scale, 4);
}

TEST(Database, KeyedByProgramAndProcs) {
  ProfileDatabase db;
  db.put(sampleProfile("MG", 16));
  db.put(sampleProfile("MG", 28));
  EXPECT_EQ(db.size(), 2u);
}

TEST(Database, JsonRoundTripPreservesEverything) {
  ProfileDatabase db;
  db.put(sampleProfile("MG", 16));
  db.put(sampleProfile("CG", 28));
  const auto restored = ProfileDatabase::fromJson(db.toJson());
  EXPECT_EQ(restored.size(), 2u);
  const auto* p = restored.find("MG", 16);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->cls, ScalingClass::kScaling);
  ASSERT_EQ(p->scales.size(), 2u);
  EXPECT_DOUBLE_EQ(p->scales[1].exclusive_time, 80.0);
  EXPECT_DOUBLE_EQ(p->scales[0].ipc_llc.at(11.0),
                   sampleProfile("MG", 16).scales[0].ipc_llc.at(11.0));
}

TEST(Database, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "sns_db_test.json";
  {
    ProfileDatabase db;
    db.put(sampleProfile("LU", 16));
    db.saveFile(path.string());
  }
  const auto db = ProfileDatabase::loadFile(path.string());
  EXPECT_TRUE(db.contains("LU", 16));
  std::filesystem::remove(path);
}

TEST(Database, LoadMissingFileThrows) {
  EXPECT_THROW(ProfileDatabase::loadFile("/nonexistent/path/db.json"),
               util::DataError);
}

TEST(Database, FromJsonValidatesShape) {
  EXPECT_THROW(ProfileDatabase::fromJson(util::Json::parse("{}")), util::DataError);
  EXPECT_THROW(ProfileDatabase::fromJson(util::Json::parse(R"({"profiles":[{}]})")),
               util::DataError);
}

TEST(Database, ScaleProfileJsonRoundTrip) {
  const auto p = sampleProfile("TS", 16);
  const auto back = ProgramProfile::fromJson(p.toJson());
  EXPECT_EQ(back.program, "TS");
  EXPECT_EQ(back.procs, 16);
  EXPECT_EQ(back.cls, p.cls);
  ASSERT_EQ(back.scales.size(), p.scales.size());
  EXPECT_EQ(back.scales[0].scale_factor, 1);
  EXPECT_EQ(back.scales[1].nodes, 2);
}

TEST(Database, FullPipelineRoundTrip) {
  // Profile all 12 programs, persist, reload, and verify the scheduler-side
  // lookups still work.
  perfmodel::Estimator est;
  auto lib = app::programLibrary();
  for (auto& p : lib) est.calibrate(p);
  ProfilerConfig cfg;
  cfg.pmu_noise = 0.0;
  Profiler prof(est, cfg);
  ProfileDatabase db;
  for (const auto& p : lib) db.put(prof.profileProgram(p, 16));
  EXPECT_EQ(db.size(), 12u);

  const auto path = std::filesystem::temp_directory_path() / "sns_db_full.json";
  db.saveFile(path.string());
  const auto loaded = ProfileDatabase::loadFile(path.string());
  std::filesystem::remove(path);

  EXPECT_EQ(loaded.size(), 12u);
  for (const auto& p : lib) {
    const auto* orig = db.find(p.name, 16);
    const auto* back = loaded.find(p.name, 16);
    ASSERT_NE(back, nullptr) << p.name;
    EXPECT_EQ(back->cls, orig->cls) << p.name;
    EXPECT_EQ(back->ideal_scale, orig->ideal_scale) << p.name;
    EXPECT_EQ(back->scalesByPerformance(), orig->scalesByPerformance()) << p.name;
  }
}

TEST(ProfileData, ClassifyRequiresBaseScale) {
  ProgramProfile p;
  EXPECT_THROW(p.classify(), util::PreconditionError);
  ScaleProfile s;
  s.scale_factor = 2;
  p.scales.push_back(s);
  EXPECT_THROW(p.classify(), util::PreconditionError);
}

TEST(ProfileData, ClassifyNeutralBand) {
  ProgramProfile p;
  for (int k : {1, 2}) {
    ScaleProfile s;
    s.scale_factor = k;
    s.exclusive_time = k == 1 ? 100.0 : 97.0;  // within 5%
    p.scales.push_back(s);
  }
  p.classify();
  EXPECT_EQ(p.cls, ScalingClass::kNeutral);
}

TEST(ProfileData, ClassifyScalingAndCompact) {
  ProgramProfile scaling;
  for (int k : {1, 2}) {
    ScaleProfile s;
    s.scale_factor = k;
    s.exclusive_time = k == 1 ? 100.0 : 80.0;
    scaling.scales.push_back(s);
  }
  scaling.classify();
  EXPECT_EQ(scaling.cls, ScalingClass::kScaling);
  EXPECT_EQ(scaling.ideal_scale, 2);

  ProgramProfile compact;
  for (int k : {1, 2}) {
    ScaleProfile s;
    s.scale_factor = k;
    s.exclusive_time = k == 1 ? 100.0 : 130.0;
    compact.scales.push_back(s);
  }
  compact.classify();
  EXPECT_EQ(compact.cls, ScalingClass::kCompact);
  EXPECT_EQ(compact.ideal_scale, 1);
}

TEST(ProfileData, ScalesByPerformanceOrdersAscendingTime) {
  ProgramProfile p;
  for (auto [k, t] : std::vector<std::pair<int, double>>{{1, 100.0}, {2, 80.0},
                                                         {4, 90.0}, {8, 120.0}}) {
    ScaleProfile s;
    s.scale_factor = k;
    s.exclusive_time = t;
    p.scales.push_back(s);
  }
  const auto order = p.scalesByPerformance();
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 8}));
}

TEST(ProfileData, ScalingClassStringRoundTrip) {
  for (auto c : {ScalingClass::kUnknown, ScalingClass::kScaling,
                 ScalingClass::kCompact, ScalingClass::kNeutral}) {
    EXPECT_EQ(scalingClassFromString(to_string(c)), c);
  }
  EXPECT_THROW(scalingClassFromString("weird"), util::DataError);
}

}  // namespace
}  // namespace sns::profile
