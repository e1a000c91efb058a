#pragma once

// Stable 64-bit digests for pinning simulator outputs in checked-in
// tables: FNV-1a over the bytes of each mixed value, identical on every
// platform and build mode.

#include <bit>
#include <cstdint>
#include <string>

#include "sns/util/json.hpp"
#include "sns/xray/provenance.hpp"

namespace sns::testing {

class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) byte((v >> (8 * b)) & 0xffu);
  }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    for (unsigned char c : s) byte(c);
  }
  std::uint64_t value() const { return h_; }

 private:
  void byte(std::uint64_t b) {
    h_ ^= b;
    h_ *= 1099511628211ull;
  }
  std::uint64_t h_ = 1469598103934665603ull;
};

/// Digest of a provenance dump without its solver_lookups / solver_hits
/// fields: every decision the store explains, but not which placement the
/// contention solves were credited to.
inline std::uint64_t provenanceDigest(const xray::ProvenanceStore& prov) {
  util::Json dump = prov.toJson();
  for (util::Json& d : dump["decisions"].asArray()) {
    d.asObject().erase("solver_lookups");
    d.asObject().erase("solver_hits");
  }
  Digest digest;
  digest.mix(dump.dump());
  return digest.value();
}

}  // namespace sns::testing
