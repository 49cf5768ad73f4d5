// The two workloads and the cold-process child they spawn.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Extra context printed (as JSON values) on the line before the result:
  /// tail percentiles and sample counts, error rate, check outcomes.
  std::map<std::string, std::string> context;
  /// Human-readable failure descriptions (stderr).
  std::vector<std::string> failures;
};

RunResult run_batch_cold(const Args& args);
RunResult run_deep_single(const Args& args);

/// `perfbench cold ...`: one verdict in a fresh process, the way a
/// `wfregs_cli verify` user gets it.  Returns the process exit code.
int cold_main(int argc, char** argv);

}  // namespace perfbench
