#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "sns/profile/profile_data.hpp"

namespace sns::profile {

/// The central SNS database component (paper Fig 9): per-program resource
/// usage statistics keyed by (program, process count), persisted as a JSON
/// file exactly like Uberun's prototype (§5.1).
class ProfileDatabase {
 public:
  ProfileDatabase() = default;
  /// Copies and moves hold the source's profiles under a fresh generation
  /// (see generation()).
  ProfileDatabase(const ProfileDatabase& other) : profiles_(other.profiles_) {}
  ProfileDatabase(ProfileDatabase&& other) noexcept
      : profiles_(std::move(other.profiles_)) {}
  ProfileDatabase& operator=(const ProfileDatabase& other);
  ProfileDatabase& operator=(ProfileDatabase&& other) noexcept;

  /// Insert or replace a profile.
  void put(ProgramProfile profile);

  /// Look up a profile; nullptr if the program was never profiled at this
  /// process count.
  const ProgramProfile* find(const std::string& program, int procs) const;

  bool contains(const std::string& program, int procs) const {
    return find(program, procs) != nullptr;
  }
  std::size_t size() const { return profiles_.size(); }

  /// Drop a stale profile (drift-triggered re-profiling, §5.2); the next
  /// submissions of the program re-enter the exploration pipeline.
  /// Returns false when nothing was stored.
  bool erase(const std::string& program, int procs);

  /// JSON round-trip (whole-database granularity, like Uberun's file).
  util::Json toJson() const;
  static ProfileDatabase fromJson(const util::Json& j);

  /// File persistence; throws DataError on I/O or parse failure.
  void saveFile(const std::string& path) const;
  static ProfileDatabase loadFile(const std::string& path);

  /// Content version, unique across the process: one atomic counter hands
  /// out a fresh value on construction, copy, move, every put() and every
  /// successful erase(). Memos derived from profile contents (SnsPolicy's
  /// placement plans) compare it to detect that a profile may now mean
  /// different contents — a profile replaced in place (find() returns
  /// stable addresses across std::map updates), a copy, or a different
  /// database built at a recycled address. Two databases never share a
  /// generation, so no caller has to drop such memos by hand.
  std::uint64_t generation() const { return generation_; }

 private:
  static std::string key(const std::string& program, int procs);
  static std::uint64_t nextGeneration();
  std::map<std::string, ProgramProfile> profiles_;
  std::uint64_t generation_ = nextGeneration();
};

}  // namespace sns::profile
