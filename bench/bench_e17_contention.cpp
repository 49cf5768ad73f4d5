// E17 -- the parallel explorer against the sequential one: the Chase-Lev +
// lock-free-interner engine (detail::explore_parallel_lockfree, which runs
// its full machinery at any thread count) against explore() on the E10
// register-race workload, swept over 1/2/4/8/16 worker threads.
//
// Every row cross-checks its outcome against a one-shot sequential
// explore() reference -- configs / edges / terminals / interned_configs /
// depth / access bounds / verdict must be BIT-IDENTICAL (the canonical-
// replay determinism contract); any divergence is reported via
// SkipWithError, which sets error_occurred in the JSON and fails the CI
// gate.  Each row also times explore() on the same root, interleaved with
// the parallel runs (outside the row's own timer), and reports
// speedup_over_explore = explore() time / parallel time.  The rows emit the
// engine's contention telemetry (cas_retries / steal_attempts / steals /
// snapshot_retries), the counters check_bench_regression.py --suite
// e17_contention floors: at threads >= 2 the work-stealing frontier must
// actually attempt steals.
//
// The single-thread overhead gate runs the parallel machinery at threads=1
// and explore() inside one benchmark, interleaved, and takes the minimum
// wall time of each: the machinery may cost at most kOneThreadCeiling x
// explore() with no parallelism to pay for it.  The ceiling sits below the
// median ratio measured before the explorer consolidation (1.54 over ten
// runs, Release, 4 cores), so the gate is no looser than what the code it
// replaced achieved.  Min-of-N in one process
// keeps the ratio far less noisy than any cross-run comparison; a breach
// sets error_occurred in-binary, so the gate needs no wall-clock numbers in
// baseline.json.
//
// Emits BENCH_e17_contention.json (Google Benchmark JSON schema).
#include <benchmark/benchmark.h>

#include <chrono>
#include <limits>
#include <string>

#include "bench_json_main.hpp"
#include "register_race.hpp"
#include "wfregs/runtime/explorer.hpp"

namespace {

using namespace wfregs;
using benchjson::register_race;
using Clock = std::chrono::steady_clock;

/// Ceiling of min(parallel machinery at 1 thread) / min(explore()).
constexpr double kOneThreadCeiling = 1.50;

ExploreOptions contention_options() {
  ExploreOptions options;
  options.limits.track_access_bounds = true;
  return options;
}

// The sequential reference outcome, computed once per process: the
// determinism contract says every parallel row must reproduce it exactly.
// procs=4, ops=2 gives the frontier enough breadth (~50k configurations)
// that steals and CAS collisions actually happen at every thread count.
const ExploreOutcome& reference() {
  static const ExploreOutcome out = [] {
    return explore(register_race(4, 2), contention_options(), {});
  }();
  return out;
}

// Bit-identity over every deterministic field (contention is excluded by
// construction: it measures the nondeterminism, never the answer).
bool matches_reference(const ExploreOutcome& out) {
  const ExploreOutcome& ref = reference();
  return out.wait_free == ref.wait_free && out.complete == ref.complete &&
         out.violation == ref.violation &&
         out.stats.configs == ref.stats.configs &&
         out.stats.edges == ref.stats.edges &&
         out.stats.terminals == ref.stats.terminals &&
         out.stats.interned_configs == ref.stats.interned_configs &&
         out.stats.depth == ref.stats.depth &&
         out.stats.max_accesses == ref.stats.max_accesses &&
         out.stats.max_accesses_by_inv == ref.stats.max_accesses_by_inv;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// One sweep row: the parallel engine at `threads`, with explore() timed
// between iterations for the speedup column.
void BM_ContentionLockFree(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const Engine root = register_race(4, 2);
  const ExploreOptions options = contention_options();
  ExploreOutcome last;
  ContentionStats contention;
  double explore_s = 0;
  double parallel_s = 0;
  bool identical = true;
  for (auto _ : state) {
    state.PauseTiming();
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(explore(root, options).stats.configs);
    explore_s += seconds_since(t0);
    state.ResumeTiming();
    const Clock::time_point t1 = Clock::now();
    ExploreOutcome out =
        detail::explore_parallel_lockfree(root, {}, options, threads);
    parallel_s += seconds_since(t1);
    benchmark::DoNotOptimize(out.stats.configs);
    contention.add(out.contention);
    identical = identical && matches_reference(out);
    last = std::move(out);
  }
  if (!identical) {
    state.SkipWithError(("parallel engine diverged from explore() at " +
                         std::to_string(threads) + " threads")
                            .c_str());
    return;
  }
  state.counters["configs"] = static_cast<double>(last.stats.configs);
  state.counters["interned_configs"] =
      static_cast<double>(last.stats.interned_configs);
  state.counters["configs_per_sec"] =
      benchmark::Counter(static_cast<double>(last.stats.configs),
                         benchmark::Counter::kIsIterationInvariantRate);
  state.counters["speedup_over_explore"] =
      parallel_s > 0 ? explore_s / parallel_s : 0.0;
  benchjson::contention_counters(state, contention);
  state.counters["verdict_identical"] = 1.0;
  benchjson::memory_counters(state);
}

// The threads=1 overhead gate: interleaved min-of-N wall times for the
// parallel machinery and explore() in this one process.
void BM_OneThreadOverheadGate(benchmark::State& state) {
  const Engine root = register_race(4, 2);
  const ExploreOptions options = contention_options();
  double best_explore_s = std::numeric_limits<double>::infinity();
  double best_parallel_s = std::numeric_limits<double>::infinity();
  bool identical = true;
  for (auto _ : state) {
    const Clock::time_point t0 = Clock::now();
    const ExploreOutcome seq = explore(root, options);
    best_explore_s = std::min(best_explore_s, seconds_since(t0));
    const Clock::time_point t1 = Clock::now();
    const ExploreOutcome par =
        detail::explore_parallel_lockfree(root, {}, options, 1);
    best_parallel_s = std::min(best_parallel_s, seconds_since(t1));
    identical = identical && matches_reference(seq) && matches_reference(par);
    benchmark::DoNotOptimize(par.stats.configs);
  }
  if (!identical) {
    state.SkipWithError("an engine diverged from the reference at 1 thread");
    return;
  }
  const double ratio =
      best_explore_s > 0 ? best_parallel_s / best_explore_s : 1.0;
  const bool ok = ratio <= kOneThreadCeiling;
  state.counters["parallel_over_explore_x100"] = 100.0 * ratio;
  state.counters["one_thread_gate_ok"] = ok ? 1.0 : 0.0;
  state.counters["verdict_identical"] = 1.0;
  if (!ok) {
    state.SkipWithError(("parallel 1-thread overhead " +
                         std::to_string(ratio) +
                         "x over explore() exceeds the " +
                         std::to_string(kOneThreadCeiling) + "x cap")
                            .c_str());
  }
}

}  // namespace

BENCHMARK(BM_ContentionLockFree)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->ArgNames({"threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Fixed at 6 interleaved pairs: min-of-6 is stable, and the gate must not
// shrink to one noisy pair under --benchmark_min_time=0 in CI.
BENCHMARK(BM_OneThreadOverheadGate)
    ->Iterations(6)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return wfregs::benchjson::run(argc, argv, "BENCH_e17_contention.json");
}
