#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>

namespace perfbench {

const char* spanName(SpanName n) {
  switch (n) {
    case SpanName::kEventSubmit: return "event.submit";
    case SpanName::kEventFinish: return "event.finish";
    case SpanName::kEventPass: return "event.pass";
    case SpanName::kEventStart: return "event.start";
    case SpanName::kQueuePush: return "queue.push";
    case SpanName::kQueueWalk: return "queue.walk";
    case SpanName::kQueueRemove: return "queue.remove";
    case SpanName::kPolicyPlace: return "policy.place";
    case SpanName::kPolicyReject: return "policy.reject";
    case SpanName::kLedgerSelect: return "ledger.select";
    case SpanName::kLedgerAllocate: return "ledger.allocate";
    case SpanName::kLedgerRelease: return "ledger.release";
    case SpanName::kSolverLookup: return "solver.lookup";
    case SpanName::kSolverMiss: return "solver.miss";
    case SpanName::kCalendar: return "calendar.ops";
    case SpanName::kCount: break;
  }
  return "unknown";
}

bool SpanRecorder::writeChromeTrace(const std::string& path,
                                    const std::string& meta) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                    &std::fclose);
  if (!f) return false;
  std::fprintf(f.get(), "{\"metadata\":%s,\n\"traceEvents\":[\n", meta.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Parents on thread 1, children on thread 2, so the viewer nests
    // neither by guesswork: the parent index is explicit in args.
    std::fprintf(f.get(),
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"event\":%u,"
                 "\"parent\":%d,\"ops\":%u}}\n",
                 i == 0 ? "" : ",", spanName(s.name), s.parent < 0 ? 1 : 2,
                 static_cast<double>(s.start_ns) / 1e3, s.durationNs() / 1e3, i,
                 s.event, s.parent, s.ops);
  }
  std::fprintf(f.get(), "]}\n");
  return std::ferror(f.get()) == 0;
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

}  // namespace perfbench
