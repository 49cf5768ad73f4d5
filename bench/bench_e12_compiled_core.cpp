// E12 -- the compiled execution core: undo-based exploration over interned
// configurations (explore) on E7's BM_Explorer workload, so configs/sec is
// directly comparable with the historical record.  The copy-the-engine
// explorer it replaced is gone; its in-binary throughput and peak RSS on
// these workloads are recorded in EXPERIMENTS.md (E12), which is what this
// bench's numbers are read against.
//
// Per benchmark the JSON carries:
//   configs          -- configurations explored (deterministic per workload)
//   interned_configs -- intern-pool occupancy at return (== configs)
//   configs_per_sec  -- throughput
//   peak_rss_bytes   -- process peak RSS after the timing loop
//   spilled_bytes / resident_arena_bytes -- out-of-core arena residency
//                           (0 when the run stays in-core)
//
// Peak RSS is monotone over the process lifetime, so only the final
// maximum is meaningful (that maximum is what check_bench_regression.py
// gates).
//
// Emits BENCH_e12_compiled_core.json (Google Benchmark JSON schema).
#include <benchmark/benchmark.h>

#include <string>

#include "bench_json_main.hpp"
#include "register_race.hpp"
#include "wfregs/runtime/explorer.hpp"

namespace {

using namespace wfregs;

struct Workload {
  int procs;
  int ops;
  const char* tag;
};

constexpr Workload kWorkloads[] = {
    {2, 2, "2p2o"}, {2, 4, "2p4o"}, {3, 2, "3p2o"},
    {3, 3, "3p3o"}, {4, 2, "4p2o"},
};

void set_counters(benchmark::State& state, const ExploreStats& stats) {
  state.counters["configs"] = static_cast<double>(stats.configs);
  state.counters["interned_configs"] =
      static_cast<double>(stats.interned_configs);
  state.counters["configs_per_sec"] =
      benchmark::Counter(static_cast<double>(stats.configs),
                         benchmark::Counter::kIsIterationInvariantRate);
  benchjson::memory_counters(state);
}

void BM_Compiled(benchmark::State& state, Workload w) {
  ExploreStats stats;
  for (auto _ : state) {
    // Rebuilt inside the timing loop, exactly as E7 does, so the two
    // throughput records stay comparable.
    const Engine root = benchjson::register_race(w.procs, w.ops);
    const auto out = explore(root);
    benchmark::DoNotOptimize(out.stats.configs);
    stats = out.stats;
  }
  set_counters(state, stats);
}

void register_all() {
  for (const Workload& w : kWorkloads) {
    benchmark::RegisterBenchmark(
        (std::string("compiled_core/") + w.tag + "/compiled").c_str(),
        BM_Compiled, w)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return wfregs::benchjson::run(argc, argv, "BENCH_e12_compiled_core.json");
}
