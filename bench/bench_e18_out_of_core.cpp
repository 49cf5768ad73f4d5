// E18 -- out-of-core exploration: the spillable-arena explorer under a
// memory-budget sweep, and checkpoint/resume against full recomputation.
//
// The workload is the CAS-with-ids 5-process consensus check (32 roots,
// ~101k configurations, ~208 KiB of delta-coded interned keys), chosen so
// the smallest budget in the sweep holds less than a tenth of the interned
// state.  Unlike the other suites this one carries its acceptance gates
// IN-BINARY (state.SkipWithError), because they are statements about one
// process's memory, not about wall-clock:
//
//   * verdict byte-identity -- every budgeted run's encoded service verdict
//     equals the in-core run's, byte for byte (the ORDER CONTRACT);
//   * residency ceiling -- the sampled peak of resident arena bytes stays
//     under 1.2x the budget (the budget is a real bound, not a hint);
//   * overflow ratio -- at the smallest budget the arena holds >= 10x the
//     budget in interned state (the run is genuinely out-of-core);
//   * resume beats recompute -- completing a checkpointed half-run is
//     faster than the observed fresh full run.
//
// check_bench_regression.py --suite e18_out_of_core re-checks the exported
// counters against bench/baseline.json floors/ceilings, so the gates hold
// both in-binary and in CI.
//
// Emits BENCH_e18_out_of_core.json (Google Benchmark JSON schema).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include <unistd.h>

#include "bench_json_main.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/service/job.hpp"
#include "wfregs/service/scheduler.hpp"
#include "wfregs/service/verdict.hpp"
#include "wfregs/storage/options.hpp"
#include "wfregs/storage/spill_arena.hpp"

namespace {

using namespace wfregs;

constexpr int kProcs = 5;
constexpr std::size_t kSegmentBytes = 4096;  // eviction granularity: 1 page

std::filesystem::path scratch_root() {
  static const std::filesystem::path root = [] {
    auto p = std::filesystem::temp_directory_path() /
             ("wfregs_bench_e18." + std::to_string(::getpid()));
    std::filesystem::remove_all(p);
    std::filesystem::create_directories(p);
    return p;
  }();
  return root;
}

/// One consensus verification through the service runner (so the identity
/// gate compares the exact bytes the daemon would cache).
service::Verdict run_consensus(const storage::StorageOptions& st,
                               std::size_t max_configs = 0) {
  service::VerifyJob job;
  job.kind = service::JobKind::kConsensus;
  job.impl = consensus::from_cas_ids(kProcs);
  job.options.threads = 1;
  job.options.storage = st;
  if (max_configs != 0) job.options.limits.max_configs = max_configs;
  static const std::atomic<bool> no_cancel{false};
  static const service::JobScheduler::Runner runner =
      service::JobScheduler::default_runner(1);
  return runner(job, no_cancel);
}

/// The in-core reference verdict, computed once (the byte-identity anchor).
const service::Verdict& incore_reference() {
  static const service::Verdict v = run_consensus({});
  return v;
}

/// Samples the process-wide arena gauges during a run; resolution ~0.2 ms
/// against explorations that take hundreds of ms.
class ArenaSampler {
 public:
  ArenaSampler()
      : thread_([this] {
          while (!stop_.load(std::memory_order_relaxed)) {
            const auto s = storage::arena_global_stats();
            if (s.total_bytes > max_total_) max_total_ = s.total_bytes;
            if (s.resident_bytes > max_resident_) max_resident_ = s.resident_bytes;
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
        }) {}
  ~ArenaSampler() { finish(); }
  void finish() {
    if (thread_.joinable()) {
      stop_.store(true, std::memory_order_relaxed);
      thread_.join();
    }
  }
  std::uint64_t max_total() const { return max_total_; }
  std::uint64_t max_resident() const { return max_resident_; }

 private:
  std::atomic<bool> stop_{false};
  std::uint64_t max_total_ = 0;     // written by the sampler thread only,
  std::uint64_t max_resident_ = 0;  // read after join()
  std::thread thread_;
};

void export_verdict_counters(benchmark::State& state,
                             const service::Verdict& v) {
  state.counters["configs"] = static_cast<double>(v.stats.configs);
  state.counters["interned_configs"] =
      static_cast<double>(v.stats.interned_configs);
  state.counters["terminals"] = static_cast<double>(v.stats.terminals);
  state.counters["solves"] = v.ok ? 1.0 : 0.0;
}

// The in-core anchor, timed for the table (and so the reference is built
// before any budgeted variant runs).
void BM_InCoreReference(benchmark::State& state) {
  service::Verdict v;
  for (auto _ : state) {
    v = run_consensus({});
    benchmark::DoNotOptimize(v.stats.configs);
  }
  if (service::encode_verdict(v) !=
      service::encode_verdict(incore_reference())) {
    state.SkipWithError("in-core verdict is not deterministic");
    return;
  }
  export_verdict_counters(state, v);
  benchjson::memory_counters(state);
}

// The budget sweep.  arg0 = budget in KiB; arg1 = 1 when this budget must
// prove the >= 10x overflow ratio (only the smallest: the ratio shrinks as
// the budget grows, and reporting it unguarded for the larger budgets keeps
// the sweep informative without a vacuous gate).
void BM_OutOfCoreSweep(benchmark::State& state) {
  const std::size_t budget = static_cast<std::size_t>(state.range(0)) << 10;
  const bool gate_overflow = state.range(1) != 0;
  storage::StorageOptions st;
  st.memory_budget_bytes = budget;
  st.arena_segment_bytes = kSegmentBytes;
  const std::uint64_t evictions0 = storage::arena_global_stats().evictions;
  service::Verdict v;
  ArenaSampler sampler;
  for (auto _ : state) {
    v = run_consensus(st);
    benchmark::DoNotOptimize(v.stats.configs);
  }
  sampler.finish();
  const std::uint64_t evictions =
      storage::arena_global_stats().evictions - evictions0;
  const double overflow_ratio =
      static_cast<double>(sampler.max_total()) / static_cast<double>(budget);
  if (service::encode_verdict(v) !=
      service::encode_verdict(incore_reference())) {
    state.SkipWithError("budgeted verdict differs from the in-core verdict");
    return;
  }
  if (sampler.max_resident() >
      static_cast<std::uint64_t>(1.2 * static_cast<double>(budget))) {
    state.SkipWithError("peak resident arena bytes exceed 1.2x the budget");
    return;
  }
  if (gate_overflow && overflow_ratio < 10.0) {
    state.SkipWithError("interned state below 10x the budget: workload is "
                        "not out-of-core at this budget");
    return;
  }
  if (evictions == 0) {
    state.SkipWithError("no evictions: the budget never bound");
    return;
  }
  export_verdict_counters(state, v);
  state.counters["overflow_ratio"] = overflow_ratio;
  state.counters["arena_peak_resident_bytes"] =
      static_cast<double>(sampler.max_resident());
  state.counters["arena_peak_total_bytes"] =
      static_cast<double>(sampler.max_total());
  state.counters["evictions"] = static_cast<double>(evictions);
  state.counters["residency_ok"] = 1.0;
  benchjson::memory_counters(state);
}

// Checkpoint/resume: complete a run whose first half was banked by an
// interrupted run, and gate that it beats the observed fresh full run.
// Setup (untimed): a partial checkpoint tree is produced by running with a
// per-root config budget (the fingerprint excludes max_configs, so the
// full-limit resume accepts it), and a fresh full checkpointed run is timed
// once as the recompute reference.  Each iteration restores a pristine
// copy of the partial tree and times only the resumed completion.
void BM_CheckpointResume(benchmark::State& state) {
  const std::size_t budget = static_cast<std::size_t>(state.range(0)) << 10;
  storage::StorageOptions st;
  st.memory_budget_bytes = budget;
  st.arena_segment_bytes = kSegmentBytes;
  st.checkpoint_every_configs = 256;

  const std::filesystem::path partial = scratch_root() / "partial";
  const std::filesystem::path work = scratch_root() / "resume";
  std::filesystem::remove_all(partial);
  storage::StorageOptions partial_st = st;
  partial_st.checkpoint_dir = partial.string();
  const service::Verdict cut = run_consensus(partial_st, 2600);
  if (cut.complete || !cut.checkpointed) {
    state.SkipWithError("setup: the cut run did not leave a partial "
                        "checkpoint");
    return;
  }

  const std::filesystem::path fresh_dir = scratch_root() / "fresh";
  std::filesystem::remove_all(fresh_dir);
  storage::StorageOptions fresh_st = st;
  fresh_st.checkpoint_dir = fresh_dir.string();
  const auto t0 = std::chrono::steady_clock::now();
  const service::Verdict fresh = run_consensus(fresh_st);
  const double fresh_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
  std::filesystem::remove_all(fresh_dir);

  service::Verdict v;
  double resume_ms = 0.0;
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(work);
    std::filesystem::copy(partial, work,
                          std::filesystem::copy_options::recursive);
    storage::StorageOptions resume_st = st;
    resume_st.checkpoint_dir = work.string();
    state.ResumeTiming();
    const auto r0 = std::chrono::steady_clock::now();
    v = run_consensus(resume_st);
    resume_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - r0)
                    .count();
    benchmark::DoNotOptimize(v.stats.configs);
  }
  std::filesystem::remove_all(work);
  if (!v.resumed || !v.complete) {
    state.SkipWithError("resumed run did not resume to completion");
    return;
  }
  if (service::encode_verdict(v) !=
          service::encode_verdict(incore_reference()) ||
      service::encode_verdict(fresh) !=
          service::encode_verdict(incore_reference())) {
    state.SkipWithError("resumed or fresh checkpointed verdict differs "
                        "from the in-core verdict");
    return;
  }
  if (resume_ms >= fresh_ms) {
    state.SkipWithError("resume was not faster than fresh recomputation");
    return;
  }
  export_verdict_counters(state, v);
  state.counters["resumed"] = 1.0;
  state.counters["resume_beats_recompute"] = 1.0;
  state.counters["fresh_full_ms"] = fresh_ms;
  state.counters["resume_ms"] = resume_ms;
  benchjson::memory_counters(state);
}

}  // namespace

BENCHMARK(BM_InCoreReference)
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Smallest budget first: its gate set includes the overflow ratio, and the
// sweep is ordered so each variant's sampled peaks are its own.
BENCHMARK(BM_OutOfCoreSweep)
    ->Args({20, 1})
    ->Args({40, 0})
    ->Args({80, 0})
    ->ArgNames({"budget_kb", "gate_overflow"})
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

BENCHMARK(BM_CheckpointResume)
    ->Args({80})
    ->ArgNames({"budget_kb"})
    ->Iterations(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  return wfregs::benchjson::run(argc, argv, "BENCH_e18_out_of_core.json");
}
