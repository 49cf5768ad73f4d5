// E7 -- runtime substrate scaling: the linearizability checker and the
// exhaustive explorer.
//
// The checker is Wing-Gong-style DFS with failure memoization: worst case
// exponential in the number of concurrent operations, near-linear for
// mostly-sequential histories.  The explorer's cost is the number of
// distinct configurations, which this bench reports as configs/second.
//
// Emits BENCH_e7_runtime.json (Google Benchmark JSON schema).
#include <benchmark/benchmark.h>

#include <random>

#include "bench_json_main.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/runtime/linearizability.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace {

using namespace wfregs;

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

void BM_Explorer(benchmark::State& state) {
  // k writer processes hammering one shared register: the configuration
  // DAG grows with k; report configs and configs/sec.
  const int procs = static_cast<int>(state.range(0));
  const int ops = static_cast<int>(state.range(1));
  const zoo::RegisterLayout lay{4};
  const auto spec =
      std::make_shared<const TypeSpec>(zoo::register_type(4, procs));

  std::size_t configs = 0;
  std::size_t interned = 0;
  for (auto _ : state) {
    auto sys = std::make_shared<System>(procs);
    std::vector<PortId> ports;
    for (PortId p = 0; p < procs; ++p) ports.push_back(p);
    const ObjectId r = sys->add_base(spec, 0, ports);
    for (ProcId p = 0; p < procs; ++p) {
      ProgramBuilder b;
      for (int k = 0; k < ops; ++k) {
        b.invoke(0, lit(lay.write((p + k) % 4)), 0);
        b.invoke(0, lit(lay.read()), 1);
      }
      b.ret(reg(1));
      // Appended: g++ 12 -O3 misreports `"p" + std::to_string(p)`.
      std::string name = "p";
      name += std::to_string(p);
      sys->set_toplevel(p, b.build(name), {r});
    }
    const Engine root{std::move(sys)};
    const auto out = explore(root);
    benchmark::DoNotOptimize(out.stats.configs);
    configs = out.stats.configs;
    interned = out.stats.interned_configs;
  }
  state.counters["configs"] = static_cast<double>(configs);
  state.counters["interned_configs"] = static_cast<double>(interned);
  state.counters["configs_per_sec"] = benchmark::Counter(
      static_cast<double>(configs), benchmark::Counter::kIsIterationInvariantRate);
  wfregs::benchjson::memory_counters(state);
}

}  // namespace

BENCHMARK(BM_LinearizabilityChecker)
    ->ArgsProduct({{4, 8, 16, 24}, {2, 4}, {4, 12}})
    ->ArgNames({"ops", "procs", "overlap"})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Explorer)
    ->Args({2, 2})->Args({2, 4})->Args({3, 2})->Args({3, 3})->Args({4, 2})
    ->ArgNames({"procs", "ops"})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return wfregs::benchjson::run(argc, argv, "BENCH_e7_runtime.json");
}
