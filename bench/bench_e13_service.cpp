// E13 -- the verification service layer: cold batch submission (every
// verdict computed by the explorers) against warm resubmission of the same
// batch (every verdict answered from the persistent store), over an
// explorer-heavy workload -- the consensus protocol zoo under all three
// reduction modes, i.e. the same jobs the service-smoke CI lane replays.
//
// Per benchmark the JSON carries:
//   jobs            -- batch size
//   cold_ms         -- wall time to compute the whole batch cold
//   warm_ms         -- wall time to answer the whole batch from the cache
//   speedup         -- cold_ms / warm_ms
//   cache_hits/cache_misses -- scheduler metrics after both passes
//   peak_rss_bytes  -- process peak RSS after the timing loop
//   spilled_bytes / resident_arena_bytes -- out-of-core arena residency
//                           (0 when the run stays in-core)
//
// Two in-run correctness gates (either failure sets error_occurred in the
// JSON and fails the CI bench gate):
//   * bit identity -- every warm verdict's encode_verdict bytes must equal
//     the cold computation's bytes, and a direct default_runner recompute's
//     bytes (the cache can never change an answer);
//   * the speedup floor -- warm must be at least 10x faster than cold (the
//     acceptance criterion for the service layer's reason to exist).
//
// Emits BENCH_e13_service.json (Google Benchmark JSON schema).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_json_main.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/registers/mrsw.hpp"
#include "wfregs/service/scheduler.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace {

using namespace wfregs;
using service::JobKind;
using service::JobScheduler;
using service::SchedulerOptions;
using service::Submitted;
using service::VerifyJob;

/// The batch: the consensus protocol zoo x reduction modes (many small
/// jobs), plus the deep-nesting register workload -- linearizability of an
/// MRSW register built from Simpson SRSW registers built from safe bits --
/// under each reduction mode (few large jobs).  Every entry is a distinct
/// job key.
std::vector<VerifyJob> make_batch() {
  std::vector<VerifyJob> batch;
  const std::vector<std::shared_ptr<const Implementation>> zoo = {
      consensus::from_test_and_set(),
      consensus::from_queue(),
      consensus::from_fetch_and_add(),
  };
  for (const auto& impl : zoo) {
    for (const Reduction r : {Reduction::kNone, Reduction::kSleep,
                              Reduction::kSleepSymmetry}) {
      VerifyJob job;
      job.kind = JobKind::kConsensus;
      job.impl = impl;
      job.options.reduction = r;
      batch.push_back(job);
    }
  }
  const zoo::MrswRegisterLayout lay{2, 2};
  const auto mrsw = registers::mrsw_register(
      2, 2, 0, 2, registers::simpson_srsw_factory());
  for (const Reduction r : {Reduction::kNone, Reduction::kSleep,
                            Reduction::kSleepSymmetry}) {
    VerifyJob job;
    job.kind = JobKind::kLinearizable;
    job.impl = mrsw;
    job.scripts = {{lay.read()}, {lay.read()}, {lay.write(1)}};
    job.options.reduction = r;
    batch.push_back(job);
  }
  return batch;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void BM_WarmVsCold(benchmark::State& state) {
  const std::string store = "/tmp/wfregs_bench_e13_" +
                            std::to_string(::getpid()) + ".log";
  const std::vector<VerifyJob> batch = make_batch();
  const JobScheduler::Runner fresh = JobScheduler::default_runner(1);
  const std::atomic<bool> no_cancel{false};

  double cold_ms = 0;
  double warm_ms = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t snapshot_retries = 0;
  for (auto _ : state) {
    std::remove(store.c_str());
    SchedulerOptions options;
    options.workers = 1;
    options.store_path = store;
    JobScheduler sched(options);

    // Cold pass: everything computed.
    const auto cold_start = std::chrono::steady_clock::now();
    std::vector<Submitted> cold;
    cold.reserve(batch.size());
    for (const VerifyJob& job : batch) cold.push_back(sched.submit(job));
    std::vector<std::vector<std::uint8_t>> cold_bytes;
    cold_bytes.reserve(batch.size());
    for (const Submitted& s : cold) {
      cold_bytes.push_back(service::encode_verdict(s.result.get()));
    }
    cold_ms = ms_since(cold_start);

    // Warm pass: everything answered from the store.
    const auto warm_start = std::chrono::steady_clock::now();
    std::vector<Submitted> warm;
    warm.reserve(batch.size());
    for (const VerifyJob& job : batch) warm.push_back(sched.submit(job));
    std::vector<std::vector<std::uint8_t>> warm_bytes;
    warm_bytes.reserve(batch.size());
    for (const Submitted& s : warm) {
      warm_bytes.push_back(service::encode_verdict(s.result.get()));
    }
    warm_ms = ms_since(warm_start);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!warm[i].cached) {
        state.SkipWithError(("warm job " + std::to_string(i) +
                             " missed the cache")
                                .c_str());
        return;
      }
      if (warm_bytes[i] != cold_bytes[i]) {
        state.SkipWithError(("warm/cold verdict bytes differ on job " +
                             std::to_string(i))
                                .c_str());
        return;
      }
    }
    const service::Metrics m = sched.metrics();
    hits = m.cache_hits;
    misses = m.cache_misses;
    snapshot_retries = m.snapshot_retries;
    benchmark::DoNotOptimize(warm_bytes);
  }

  // Bit identity against a recompute outside the scheduler entirely: the
  // store round-trip must not perturb a single byte.
  {
    std::remove(store.c_str());
    SchedulerOptions options;
    options.workers = 1;
    options.store_path = store;
    JobScheduler sched(options);
    for (const VerifyJob& job : batch) sched.submit(job).result.wait();
    for (const VerifyJob& job : batch) {
      const Submitted cached = sched.submit(job);
      if (!cached.cached ||
          service::encode_verdict(cached.result.get()) !=
              service::encode_verdict(fresh(job, no_cancel))) {
        state.SkipWithError("cached verdict differs from direct recompute");
        return;
      }
    }
  }
  std::remove(store.c_str());

  const double speedup = warm_ms > 0 ? cold_ms / warm_ms : 0;
  if (speedup < 10.0) {
    state.SkipWithError(("warm speedup " + std::to_string(speedup) +
                         "x below the 10x floor")
                            .c_str());
    return;
  }
  state.counters["jobs"] = static_cast<double>(batch.size());
  state.counters["cold_ms"] = cold_ms;
  state.counters["warm_ms"] = warm_ms;
  state.counters["speedup"] = speedup;
  state.counters["cache_hits"] = static_cast<double>(hits);
  state.counters["cache_misses"] = static_cast<double>(misses);
  // Collect invalidations seen by the scheduler's wait-free metrics
  // aggregator while the workers were publishing (contention telemetry,
  // not gated).
  state.counters["snapshot_retries"] = static_cast<double>(snapshot_retries);
  benchjson::memory_counters(state);
}

void register_all() {
  benchmark::RegisterBenchmark("service/zoo_x_reductions/warm_vs_cold",
                               BM_WarmVsCold)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return wfregs::benchjson::run(argc, argv, "BENCH_e13_service.json");
}
