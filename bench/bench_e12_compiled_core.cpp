// E12 -- the compiled execution core: undo-based exploration over interned
// configurations (explore) on the register-race DAGs of register_race.hpp,
// plus the linearizability checker that judges every terminal history.
// The copy-the-engine explorer it replaced is gone; its in-binary
// throughput and peak RSS on these workloads are recorded in EXPERIMENTS.md
// (E12), which is what this bench's numbers are read against.
//
// The checker is Wing-Gong-style DFS with failure memoization: worst case
// exponential in the number of concurrent operations, near-linear for
// mostly-sequential histories.  Its rows report avg_states per history.
//
// Per explorer benchmark the JSON carries:
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

#include <random>
#include <string>

#include "bench_json_main.hpp"
#include "register_race.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/runtime/linearizability.hpp"
#include "wfregs/typesys/type_zoo.hpp"

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

// A random-but-consistent register history: `ops` operations by `procs`
// processes with bounded overlap; generated from an actual sequential
// execution so it is always linearizable.
std::vector<OpRecord> random_history(int ops, int procs, int overlap,
                                     std::uint64_t seed) {
  const zoo::RegisterLayout lay{4};
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> val(0, 3);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> jitter(0, overlap);
  std::vector<OpRecord> history;
  int value = 0;
  for (int k = 0; k < ops; ++k) {
    OpRecord rec;
    rec.proc = k % procs;
    rec.object = 0;
    rec.port = rec.proc;
    const std::size_t base = static_cast<std::size_t>(k) * 10;
    rec.invoke_time = base > static_cast<std::size_t>(jitter(rng))
                          ? base - static_cast<std::size_t>(jitter(rng))
                          : 0;
    rec.response_time = base + 5 + static_cast<std::size_t>(jitter(rng));
    if (coin(rng)) {
      const int v = val(rng);
      rec.inv = lay.write(v);
      rec.response = lay.ok();
      value = v;
    } else {
      rec.inv = lay.read();
      rec.response = lay.value_resp(value);
    }
    history.push_back(rec);
  }
  return history;
}

void BM_LinearizabilityChecker(benchmark::State& state) {
  const int ops = static_cast<int>(state.range(0));
  const int procs = static_cast<int>(state.range(1));
  const int overlap = static_cast<int>(state.range(2));
  const auto spec = zoo::register_type(4, procs);
  std::uint64_t seed = 7;
  std::size_t explored = 0;
  std::size_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const auto history = random_history(ops, procs, overlap, seed++);
    state.ResumeTiming();
    const auto r = check_linearizable(history, spec, 0);
    benchmark::DoNotOptimize(r.linearizable);
    explored += r.states_explored;
    ++rounds;
  }
  state.counters["avg_states"] =
      rounds ? static_cast<double>(explored) / rounds : 0.0;
}

void BM_Compiled(benchmark::State& state, Workload w) {
  ExploreStats stats;
  for (auto _ : state) {
    // Rebuilt inside the timing loop, as the historical E7 record was
    // measured, so the throughput records stay comparable.
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

BENCHMARK(BM_LinearizabilityChecker)
    ->ArgsProduct({{4, 8, 16, 24}, {2, 4}, {4, 12}})
    ->ArgNames({"ops", "procs", "overlap"})
    ->Unit(benchmark::kMicrosecond);

int main(int argc, char** argv) {
  register_all();
  return wfregs::benchjson::run(argc, argv, "BENCH_e12_compiled_core.json");
}
