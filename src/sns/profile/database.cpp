#include "sns/profile/database.hpp"

#include <atomic>
#include <fstream>
#include <sstream>

#include "sns/util/error.hpp"

namespace sns::profile {

std::string ProfileDatabase::key(const std::string& program, int procs) {
  return program + ":" + std::to_string(procs);
}

std::uint64_t ProfileDatabase::nextGeneration() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

ProfileDatabase& ProfileDatabase::operator=(const ProfileDatabase& other) {
  profiles_ = other.profiles_;
  generation_ = nextGeneration();
  return *this;
}

ProfileDatabase& ProfileDatabase::operator=(ProfileDatabase&& other) noexcept {
  profiles_ = std::move(other.profiles_);
  generation_ = nextGeneration();
  return *this;
}

void ProfileDatabase::put(ProgramProfile profile) {
  const std::string k = key(profile.program, profile.procs);
  profiles_[k] = std::move(profile);
  generation_ = nextGeneration();
}

const ProgramProfile* ProfileDatabase::find(const std::string& program,
                                            int procs) const {
  auto it = profiles_.find(key(program, procs));
  return it == profiles_.end() ? nullptr : &it->second;
}

bool ProfileDatabase::erase(const std::string& program, int procs) {
  const bool erased = profiles_.erase(key(program, procs)) > 0;
  if (erased) generation_ = nextGeneration();
  return erased;
}

util::Json ProfileDatabase::toJson() const {
  util::Json j;
  util::Json::Array arr;
  for (const auto& [k, p] : profiles_) arr.push_back(p.toJson());
  j["profiles"] = util::Json(std::move(arr));
  return j;
}

ProfileDatabase ProfileDatabase::fromJson(const util::Json& j) {
  ProfileDatabase db;
  for (const auto& pj : j.get("profiles").asArray()) {
    db.put(ProgramProfile::fromJson(pj));
  }
  return db;
}

void ProfileDatabase::saveFile(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw util::DataError("cannot open for writing: " + path);
  out << toJson().dump(2) << "\n";
  if (!out) throw util::DataError("write failed: " + path);
}

ProfileDatabase ProfileDatabase::loadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::DataError("cannot open for reading: " + path);
  std::stringstream ss;
  ss << in.rdbuf();
  return fromJson(util::Json::parse(ss.str()));
}

}  // namespace sns::profile
