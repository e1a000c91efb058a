#include "sns/trace/swf.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "sns/util/error.hpp"

namespace sns::trace {

std::vector<TraceJob> parseSwf(std::istream& in, const SwfOptions& opts) {
  SNS_REQUIRE(opts.cores_per_node >= 1, "cores_per_node must be >= 1");
  std::vector<TraceJob> jobs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip comments ( ';' to end of line) and skip blanks.
    if (const auto semi = line.find(';'); semi != std::string::npos) {
      line.erase(semi);
    }
    if (line.find_first_not_of(" \t\r\v\f") == std::string::npos) continue;
    std::istringstream fields(line);
    double job_id = 0.0, submit = 0.0, wait = 0.0, runtime = 0.0, procs = 0.0;
    if (!(fields >> job_id >> submit >> wait >> runtime >> procs)) {
      throw util::DataError("SWF line " + std::to_string(lineno) +
                            ": fewer than 5 numeric fields");
    }
    if (runtime < opts.min_duration_s) continue;
    if (procs < 1.0) continue;  // unknown allocation (-1)
    if (opts.parallel_only && procs < 2.0) continue;

    // The paper's size filter runs in double: a processor count past
    // INT_MAX must be dropped, not wrapped by the int conversion.
    const double nodes = std::trunc((procs + opts.cores_per_node - 1) /
                                    opts.cores_per_node);
    if (nodes > opts.max_nodes) continue;
    TraceJob j;
    j.submit_s = submit;
    j.duration_s = runtime;
    j.nodes = std::max(1, static_cast<int>(nodes));
    jobs.push_back(j);
  }
  std::sort(jobs.begin(), jobs.end(),
            [](const TraceJob& a, const TraceJob& b) { return a.submit_s < b.submit_s; });
  return jobs;
}

std::vector<TraceJob> loadSwf(const std::string& path, const SwfOptions& opts) {
  std::ifstream in(path);
  if (!in) throw util::DataError("cannot open SWF file: " + path);
  return parseSwf(in, opts);
}

std::string toSwf(const std::vector<TraceJob>& jobs, int cores_per_node) {
  SNS_REQUIRE(cores_per_node >= 1, "cores_per_node must be >= 1");
  std::string out =
      "; SWF export from the Spread-n-Share reproduction\n"
      "; fields: id submit wait run procs cpu mem req_procs req_time req_mem "
      "status uid gid exe queue part prev think\n";
  int id = 1;
  for (const auto& j : jobs) {
    std::ostringstream line;
    line.precision(12);  // don't truncate sub-second timestamps
    line << id++ << ' ' << j.submit_s << " -1 " << j.duration_s << ' '
         << j.nodes * cores_per_node;
    for (int k = 0; k < 13; ++k) line << " -1";
    line << '\n';
    out += line.str();
  }
  return out;
}

}  // namespace sns::trace
