// perfbench: the benchmark's measuring process.
//
//   perfbench run --workload W --seed N --seconds S --trace 0|1
//                 [--source-id ID]
//   perfbench cold ...   (the fresh-process child `run` spawns)
//
// Works in the current directory (run.py makes it a fresh private one).
// Prints a context line (host facts, seed, tail percentiles, error rate) and
// then, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exits 0 when a result was printed, 1 on any error before that.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Args;
using perfbench::RunResult;

/// Seeds: the default the benchmark is tuned on, and one held out for
/// confirming later claims.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr std::uint64_t kHeldOutSeed = 7777;

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage() {
  std::cerr << "usage: perfbench run --workload batch_cold|deep_single "
               "--seed N --seconds S --trace 0|1 [--source-id ID]\n";
  return 1;
}

int run_main(int argc, char** argv) {
  Args args;
  std::string source_id = "unknown";
  bool have_seed = false;
  for (int i = 2; i < argc; i += 2) {
    if (i + 1 >= argc) return usage();
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return usage();
    }
  }
  if (!have_seed) args.seed = kDefaultSeed;
  if (args.seconds <= 0) return usage();

  RunResult r;
  if (args.workload == "batch_cold") {
    r = perfbench::run_batch_cold(args);
  } else if (args.workload == "deep_single") {
    r = perfbench::run_deep_single(args);
  } else {
    return usage();
  }

  for (const std::string& f : r.failures) std::cerr << "FAILED: " << f << "\n";

  const long cores = ::sysconf(_SC_NPROCESSORS_ONLN);
  std::string ctx = "{\"context\":{\"workload\":" + quoted(args.workload) +
                    ",\"seed\":" + std::to_string(args.seed) +
                    ",\"default_seed\":" + std::to_string(kDefaultSeed) +
                    ",\"held_out_seed\":" + std::to_string(kHeldOutSeed) +
                    ",\"seconds\":" + number(args.seconds) +
                    ",\"trace\":" + (args.trace ? "1" : "0") +
                    ",\"host\":{\"nproc\":" + std::to_string(cores) +
                    ",\"compiler\":" + quoted("g++ " __VERSION__) +
                    ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE) +
                    ",\"source\":" + quoted(source_id) + "}";
  for (const auto& [key, value] : r.context) ctx += "," + quoted(key) + ":" + value;
  ctx += "}}";
  std::cout << ctx << "\n";

  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    out += (i ? ", " : "") + quoted(m.name) + ": {\"value\": " +
           number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}}";
  std::cout << out << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "run") == 0) {
      return run_main(argc, argv);
    }
    if (argc >= 2 && std::strcmp(argv[1], "cold") == 0) {
      return perfbench::cold_main(argc, argv);
    }
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
