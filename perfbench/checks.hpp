#pragma once

// Correctness checks on a replay's SimResult, run outside every timer.

#include <cstdint>
#include <string>

#include "sns/hw/machine.hpp"
#include "sns/sim/cluster_sim.hpp"

namespace perfbench {

struct CheckReport {
  std::size_t jobs = 0;
  std::size_t failed_jobs = 0;  ///< jobs failing at least one check
  std::string first_failure;    ///< description of the first failure, if any
};

/// Check that every job completed with submit <= start < finish, that its
/// placement covers its processes on distinct in-range nodes, that no node
/// ever holds more processes than cores or more partitioned ways than its
/// LLC, and that an exclusive placement never shares a node.
CheckReport checkResult(const sns::sim::SimResult& res, int cluster_nodes,
                        const sns::hw::MachineConfig& mach);

/// FNV-1a over each job's start/finish bit patterns and placement nodes,
/// in job-id order.
std::uint64_t resultDigest(const sns::sim::SimResult& res);

std::string hex64(std::uint64_t v);

}  // namespace perfbench
