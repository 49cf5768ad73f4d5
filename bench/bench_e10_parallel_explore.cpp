// E10 -- parallel schedule exploration: the work-stealing explorer over the
// lock-free memo table vs. the sequential pass, on identical workloads.
//
// threads=1 is the sequential explorer itself (explore()); threads>1 runs
// discovery in parallel and reproduces the sequential statistics by
// canonical replay, so every variant reports the same `configs` counter --
// only the wall-clock differs.  Speedup requires real cores: on a
// single-core host all thread counts degenerate to roughly sequential
// throughput plus coordination overhead.
//
// Emits BENCH_e10_parallel_explore.json (Google Benchmark JSON schema).
#include <benchmark/benchmark.h>

#include "bench_json_main.hpp"
#include "register_race.hpp"
#include "wfregs/runtime/explorer.hpp"

namespace {

using namespace wfregs;
using benchjson::register_race;

void BM_ExploreParallel(benchmark::State& state) {
  const int procs = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  const int threads = static_cast<int>(state.range(2));
  const Engine root = register_race(procs, ops);
  ExploreLimits limits;
  limits.track_access_bounds = true;
  std::size_t configs = 0;
  std::size_t interned = 0;
  ContentionStats contention;  // accumulated over iterations (threads>1 only)
  for (auto _ : state) {
    const auto out = explore_parallel(root, {}, limits, threads);
    benchmark::DoNotOptimize(out.stats.configs);
    configs = out.stats.configs;
    interned = out.stats.interned_configs;
    contention.add(out.contention);
  }
  state.counters["configs"] = static_cast<double>(configs);
  state.counters["interned_configs"] = static_cast<double>(interned);
  state.counters["configs_per_sec"] =
      benchmark::Counter(static_cast<double>(configs),
                         benchmark::Counter::kIsIterationInvariantRate);
  benchjson::contention_counters(state, contention);
  benchjson::memory_counters(state);
}

}  // namespace

// threads=1 is the sequential baseline in the same table, so speedup is
// one division inside a single JSON file.
BENCHMARK(BM_ExploreParallel)
    ->ArgsProduct({{3}, {3}, {1, 2, 4, 8}})
    ->ArgsProduct({{4}, {2}, {1, 2, 4, 8}})
    ->ArgNames({"procs", "ops", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return wfregs::benchjson::run(argc, argv, "BENCH_e10_parallel_explore.json");
}
