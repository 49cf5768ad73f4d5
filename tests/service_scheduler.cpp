// Tests for the job scheduler: cache-first admission, in-flight coalescing,
// queue bounds, deadline cancellation, drain semantics (all with an
// injectable gated runner), plus the cache-coherence differential -- cached
// verdicts must be bit-identical to fresh recomputation across the protocol
// zoo and every reduction mode.
#include "wfregs/service/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/service/store.hpp"
#include "wfregs/storage/checkpoint.hpp"
#include "wfregs/storage/record_log.hpp"

namespace wfregs::service {
namespace {

using namespace std::chrono_literals;

/// Distinct real jobs on demand: same implementation, different (key-
/// relevant) exploration limits.
VerifyJob job_number(int n) {
  static const std::shared_ptr<const Implementation> impl =
      consensus::from_test_and_set();
  VerifyJob job;
  job.kind = JobKind::kConsensus;
  job.impl = impl;
  job.options.limits.max_depth = 10000 + n;
  return job;
}

Verdict quick_verdict(int n) {
  Verdict v;
  v.kind = JobKind::kConsensus;
  v.ok = true;
  v.wait_free = true;
  v.complete = true;
  v.stats.configs = static_cast<std::size_t>(n);
  return v;
}

/// A runner whose jobs park until the test releases the gate.
struct GatedRunner {
  std::atomic<bool> release{false};
  std::atomic<int> started{0};

  JobScheduler::Runner runner() {
    return [this](const VerifyJob& job, const std::atomic<bool>& cancel) {
      started.fetch_add(1);
      while (!release.load() && !cancel.load()) {
        std::this_thread::sleep_for(1ms);
      }
      Verdict v = quick_verdict(job.options.limits.max_depth);
      if (cancel.load()) v.complete = false;
      return v;
    };
  }

  void wait_started(int n) {
    while (started.load() < n) std::this_thread::sleep_for(1ms);
  }
};

SchedulerOptions one_worker() {
  SchedulerOptions options;
  options.workers = 1;
  return options;
}

TEST(JobScheduler, ComputesCachesAndHits) {
  JobScheduler sched(one_worker(),
                     [](const VerifyJob& job, const std::atomic<bool>&) {
                       return quick_verdict(job.options.limits.max_depth);
                     });
  const Submitted first = sched.submit(job_number(1));
  EXPECT_FALSE(first.cached);
  EXPECT_TRUE(first.result.get() == quick_verdict(10001));

  const Submitted again = sched.submit(job_number(1));
  EXPECT_TRUE(again.cached);
  EXPECT_FALSE(again.coalesced);
  EXPECT_TRUE(again.result.get() == quick_verdict(10001));

  const Metrics m = sched.metrics();
  EXPECT_EQ(m.submitted, 2u);
  EXPECT_EQ(m.cache_hits, 1u);
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.completed, 1u);
  EXPECT_EQ(m.store_records, 1u);

  const auto status = sched.poll(first.key);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->from_cache);
}

TEST(JobScheduler, PollReportsWhereTheLatestSubmissionGotItsVerdict) {
  JobScheduler sched(one_worker(),
                     [](const VerifyJob& job, const std::atomic<bool>&) {
                       return quick_verdict(job.options.limits.max_depth);
                     });
  const Submitted cold = sched.submit(job_number(1));
  ASSERT_FALSE(cold.cached);
  cold.result.wait();
  auto status = sched.poll(cold.key);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_FALSE(status->from_cache) << "a computed verdict is not a hit";
  EXPECT_TRUE(status->verdict == quick_verdict(10001));

  const Submitted warm = sched.submit(job_number(1));
  ASSERT_TRUE(warm.cached);
  status = sched.poll(warm.key);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_TRUE(status->from_cache);
  EXPECT_TRUE(status->verdict == quick_verdict(10001));
  const Metrics m = sched.metrics();
  EXPECT_EQ(m.cache_misses, 1u);
  EXPECT_EQ(m.cache_hits, 1u);
}

TEST(JobScheduler, IdenticalInFlightJobsCoalesce) {
  GatedRunner gate;
  JobScheduler sched(one_worker(), gate.runner());
  const Submitted a = sched.submit(job_number(1));
  gate.wait_started(1);
  const Submitted b = sched.submit(job_number(1));  // identical, running
  const Submitted c = sched.submit(job_number(2));  // different, queued
  const Submitted d = sched.submit(job_number(2));  // identical, queued
  EXPECT_FALSE(a.coalesced);
  EXPECT_TRUE(b.coalesced);
  EXPECT_FALSE(c.coalesced);
  EXPECT_TRUE(d.coalesced);
  EXPECT_TRUE(b.key == a.key);
  gate.release.store(true);
  EXPECT_TRUE(a.result.get() == b.result.get());
  EXPECT_TRUE(c.result.get() == d.result.get());
  const Metrics m = sched.metrics();
  EXPECT_EQ(m.coalesced, 2u);
  // Only two computations ever ran.
  EXPECT_EQ(m.cache_misses, 2u);
  EXPECT_EQ(gate.started.load(), 2);
}

TEST(JobScheduler, BoundedQueueRejectsOverflow) {
  GatedRunner gate;
  SchedulerOptions options = one_worker();
  options.queue_capacity = 1;
  JobScheduler sched(options, gate.runner());
  sched.submit(job_number(1));
  gate.wait_started(1);        // worker busy
  sched.submit(job_number(2));  // fills the queue
  const Submitted rejected = sched.try_submit(job_number(3));
  EXPECT_TRUE(rejected.rejected);
  EXPECT_THROW(sched.submit(job_number(4)), std::runtime_error);
  const Metrics m = sched.metrics();
  EXPECT_EQ(m.rejected, 2u);
  EXPECT_EQ(m.queue_depth, 1u);
  EXPECT_EQ(m.in_flight, 1u);
  gate.release.store(true);
}

TEST(JobScheduler, DeadlineCancelsAndNeverCaches) {
  GatedRunner gate;  // never released: only the deadline can end the job
  SchedulerOptions options = one_worker();
  options.default_deadline = 30ms;
  JobScheduler sched(options, gate.runner());
  const Submitted s = sched.submit(job_number(1));
  const Verdict v = s.result.get();
  EXPECT_FALSE(v.complete);
  EXPECT_EQ(sched.metrics().cancelled, 1u);
  EXPECT_FALSE(sched.lookup(s.key).has_value());  // not cached
  const auto status = sched.poll(s.key);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kCancelled);
  // A resubmission really recomputes (and, released, completes and caches).
  gate.release.store(true);
  const Submitted again = sched.submit(job_number(1));
  EXPECT_FALSE(again.cached);
  EXPECT_TRUE(again.result.get().complete);
  EXPECT_TRUE(sched.lookup(s.key).has_value());
}

TEST(JobScheduler, IncompleteVerdictsAreReportedButNotCached) {
  JobScheduler sched(one_worker(),
                     [](const VerifyJob& job, const std::atomic<bool>&) {
                       Verdict v = quick_verdict(job.options.limits.max_depth);
                       v.complete = false;  // limit hit
                       return v;
                     });
  const Submitted s = sched.submit(job_number(1));
  EXPECT_FALSE(s.result.get().complete);
  EXPECT_FALSE(sched.lookup(s.key).has_value());
  const auto status = sched.poll(s.key);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kDone);
  EXPECT_FALSE(status->from_cache);
  // Identical resubmission misses the cache and recomputes.
  const Submitted again = sched.submit(job_number(1));
  EXPECT_FALSE(again.cached);
  again.result.wait();
  EXPECT_EQ(sched.metrics().cache_misses, 2u);
}

TEST(JobScheduler, RunnerExceptionsBecomeFailedJobs) {
  JobScheduler sched(one_worker(),
                     [](const VerifyJob&, const std::atomic<bool>&) -> Verdict {
                       throw std::runtime_error("boom");
                     });
  const Submitted s = sched.submit(job_number(1));
  const Verdict v = s.result.get();
  EXPECT_FALSE(v.complete);
  EXPECT_EQ(v.detail, "boom");
  EXPECT_EQ(sched.metrics().failed, 1u);
  const auto status = sched.poll(s.key);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
}

TEST(JobScheduler, DrainFinishesEverythingThenRefusesSubmissions) {
  SchedulerOptions options;
  options.workers = 2;
  JobScheduler sched(options,
                     [](const VerifyJob& job, const std::atomic<bool>&) {
                       std::this_thread::sleep_for(2ms);
                       return quick_verdict(job.options.limits.max_depth);
                     });
  std::vector<Submitted> subs;
  for (int n = 0; n < 8; ++n) subs.push_back(sched.submit(job_number(n)));
  sched.drain();
  for (const Submitted& s : subs) {
    EXPECT_TRUE(s.result.get().complete);
  }
  EXPECT_EQ(sched.metrics().completed, 8u);
  EXPECT_EQ(sched.metrics().queue_depth, 0u);
  EXPECT_THROW(sched.submit(job_number(99)), std::runtime_error);
}

TEST(JobScheduler, ShutdownCancelsTheBacklog) {
  GatedRunner gate;  // never released
  JobScheduler sched(one_worker(), gate.runner());
  const Submitted running = sched.submit(job_number(1));
  gate.wait_started(1);
  const Submitted queued = sched.submit(job_number(2));
  sched.shutdown();
  EXPECT_FALSE(running.result.get().complete);
  EXPECT_FALSE(queued.result.get().complete);
  EXPECT_EQ(sched.metrics().cancelled, 2u);
}

TEST(JobScheduler, StatusHistoryIsBoundedWithEvictions) {
  SchedulerOptions options = one_worker();
  options.status_history = 4;
  JobScheduler sched(options,
                     [](const VerifyJob& job, const std::atomic<bool>&) {
                       Verdict v = quick_verdict(job.options.limits.max_depth);
                       v.complete = false;  // uncacheable: lands in history
                       return v;
                     });
  std::vector<Submitted> subs;
  for (int n = 0; n < 10; ++n) subs.push_back(sched.submit(job_number(n)));
  sched.drain();
  EXPECT_EQ(sched.metrics().evictions, 6u);
  EXPECT_FALSE(sched.poll(subs[0].key).has_value());  // evicted
  EXPECT_TRUE(sched.poll(subs[9].key).has_value());
}

// ---- the cache-coherence differential -------------------------------------

TEST(JobScheduler, CachedVerdictsAreBitIdenticalToFreshRecomputation) {
  const std::string store =
      ::testing::TempDir() + "wfregs_sched_coherence_" +
      std::to_string(::getpid()) + ".log";
  std::remove(store.c_str());
  struct Case {
    const char* name;
    std::shared_ptr<const Implementation> impl;
  };
  const std::vector<Case> zoo = {
      {"tas", consensus::from_test_and_set()},
      {"queue", consensus::from_queue()},
      {"faa", consensus::from_fetch_and_add()},
  };
  const JobScheduler::Runner fresh = JobScheduler::default_runner(1);
  const std::atomic<bool> no_cancel{false};

  SchedulerOptions options = one_worker();
  options.store_path = store;
  JobScheduler sched(options);  // the real default runner
  for (const Case& c : zoo) {
    for (const Reduction r : {Reduction::kNone, Reduction::kSleep,
                              Reduction::kSleepSymmetry}) {
      VerifyJob job;
      job.kind = JobKind::kConsensus;
      job.impl = c.impl;
      job.options.reduction = r;
      const Submitted cold = sched.submit(job);
      EXPECT_FALSE(cold.cached) << c.name;
      const Verdict computed = cold.result.get();
      EXPECT_TRUE(computed.ok) << c.name;

      const Submitted warm = sched.submit(job);
      EXPECT_TRUE(warm.cached) << c.name;
      const Verdict cached = warm.result.get();
      const Verdict recomputed = fresh(job, no_cancel);
      EXPECT_TRUE(encode_verdict(cached) == encode_verdict(recomputed))
          << c.name << " reduction " << static_cast<int>(r);
      // Thread count is not part of the key, so the parallel explorer must
      // land on the same cached verdict (determinism contract).
      const Verdict parallel = JobScheduler::default_runner(2)(job, no_cancel);
      EXPECT_TRUE(encode_verdict(cached) == encode_verdict(parallel))
          << c.name << " reduction " << static_cast<int>(r);
    }
  }
  std::remove(store.c_str());
}

TEST(JobScheduler, SleepJobsEncodeTheNoneVerdictUnderTheirOwnKeys) {
  // Every reduction spelling explores exactly like `none` but stays its own
  // job text: the three spellings round-trip through print_job / parse_job
  // byte for byte and give three keys, while their verdict bytes equal the
  // none job's.
  const std::vector<std::shared_ptr<const Implementation>> impls = {
      consensus::from_test_and_set(),
      consensus::from_queue(),
      consensus::from_fetch_and_add(),
      consensus::from_cas(3),
      consensus::from_sticky_bit(3),
      consensus::from_shift_register(3, 2),
      consensus::registers_only_attempt(2),
  };
  const std::atomic<bool> no_cancel{false};
  const JobScheduler::Runner run = JobScheduler::default_runner(1);
  for (std::size_t k = 0; k < impls.size(); ++k) {
    std::vector<JobKey> keys;
    std::vector<Verdict> verdicts;
    for (const Reduction r : {Reduction::kNone, Reduction::kSleep,
                              Reduction::kSleepSymmetry}) {
      VerifyJob job;
      job.kind = JobKind::kConsensus;
      job.impl = impls[k];
      job.options.reduction = r;
      const std::string text = print_job(job);
      const VerifyJob back = parse_job(text);
      EXPECT_EQ(back.options.reduction, r) << "case " << k;
      EXPECT_EQ(print_job(back), text) << "case " << k;
      keys.push_back(job_key(job));
      verdicts.push_back(run(job, no_cancel));
    }
    EXPECT_FALSE(keys[0] == keys[1]) << "case " << k;
    EXPECT_FALSE(keys[0] == keys[2]) << "case " << k;
    EXPECT_FALSE(keys[1] == keys[2]) << "case " << k;
    EXPECT_TRUE(encode_verdict(verdicts[1]) == encode_verdict(verdicts[0]))
        << "case " << k;
    EXPECT_TRUE(encode_verdict(verdicts[2]) == encode_verdict(verdicts[0]))
        << "case " << k;
  }
}

TEST(JobScheduler, OverlongScriptFailsCleanly) {
  // Job text puts no bound on a script's length, but the drivers fold every
  // response into one int64: 40 operations over the 2 responses of
  // consensus (radix 3; 3^40 > 2^63) would overflow it.  A job read back
  // from its text must fail with a clean error verdict.
  VerifyJob job;
  job.kind = JobKind::kLinearizable;
  job.impl = consensus::from_test_and_set();
  job.scripts = {std::vector<InvId>(40, 0), {}};
  const VerifyJob parsed = parse_job(print_job(job));
  ASSERT_EQ(parsed.scripts[0].size(), 40u);
  JobScheduler sched(one_worker());  // the real default runner
  const Verdict v = sched.submit(parsed).result.get();
  EXPECT_FALSE(v.ok);
  EXPECT_FALSE(v.complete);
  EXPECT_NE(v.detail.find("overflows the response fold"), std::string::npos)
      << v.detail;
}

TEST(JobScheduler, FailingJobsEncodeTheSameVerdictAtEveryThreadCount) {
  // A failing job stops at its first violation.  Run on several explorer
  // threads, it must still report the counts the sequential explorer
  // reports at its first violation in DFS order: those counts are in the
  // verdict bytes, and the thread count is not part of the job key.
  struct Case {
    std::shared_ptr<const Implementation> impl;
    Reduction reduction;
  };
  // The benchmark zoo's failing shift-register jobs (n > w), and the
  // registers-only attempt whose 4-thread counts were seen to drift.
  std::vector<Case> failing = {
      {consensus::registers_only_attempt(2), Reduction::kSleep}};
  for (const auto& [n, w] : {std::pair{3, 2}, {4, 2}, {4, 3}}) {
    for (const Reduction r : {Reduction::kNone, Reduction::kSleep,
                              Reduction::kSleepSymmetry}) {
      failing.push_back({consensus::from_shift_register(n, w), r});
    }
  }
  const std::atomic<bool> no_cancel{false};
  const JobScheduler::Runner sequential = JobScheduler::default_runner(1);
  const JobScheduler::Runner parallel = JobScheduler::default_runner(4);
  for (std::size_t k = 0; k < failing.size(); ++k) {
    VerifyJob job;
    job.kind = JobKind::kConsensus;
    job.impl = failing[k].impl;
    job.options.reduction = failing[k].reduction;
    job.precheck = true;
    const Verdict reference = sequential(job, no_cancel);
    ASSERT_FALSE(reference.ok) << "case " << k;
    const std::vector<std::uint8_t> bytes = encode_verdict(reference);
    for (int rep = 0; rep < 20; ++rep) {
      EXPECT_TRUE(encode_verdict(parallel(job, no_cancel)) == bytes)
          << "case " << k << " repetition " << rep;
    }
  }
}

TEST(JobScheduler, EarlierEncodingRecordIsRecomputedNotAnError) {
  // A store written before a verdict-encoding bump holds this job under the
  // earlier version byte (and a bogus verdict, so serving it would show).
  // Submitting the job must recompute it, not fail, and cache the result.
  const std::string store =
      ::testing::TempDir() + "wfregs_sched_stale_" +
      std::to_string(::getpid()) + ".log";
  std::remove(store.c_str());
  const VerifyJob job = job_number(0);
  {
    VerdictStore old(store);
    old.put(job_key(job), quick_verdict(7));
  }
  {
    std::ifstream in(store, std::ios::binary);
    std::vector<char> log{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
    // One record after the file magic: its framing (magic, tag, len, crc;
    // u32 each) and its payload, the job key (two u64) and then the
    // verdict, whose first byte is the encoding version.  The CRC covers
    // the payload.
    auto* rec = reinterpret_cast<std::uint8_t*>(
        log.data() + storage::kRecordLogHeaderBytes);
    std::uint8_t* payload = rec + storage::kRecordFrameBytes;
    const std::size_t len = log.size() - storage::kRecordLogHeaderBytes -
                            storage::kRecordFrameBytes;
    payload[2 * sizeof(std::uint64_t)] = 2;
    const std::uint32_t crc = storage::crc32(payload, len);
    std::uint8_t* crc_field = rec + 3 * sizeof(std::uint32_t);
    for (int k = 0; k < 4; ++k) crc_field[k] = (crc >> (8 * k)) & 0xFF;
    std::ofstream out(store, std::ios::binary | std::ios::trunc);
    out.write(log.data(), static_cast<std::streamsize>(log.size()));
  }
  const std::atomic<bool> no_cancel{false};
  const Verdict fresh = JobScheduler::default_runner(1)(job, no_cancel);

  SchedulerOptions options = one_worker();
  options.store_path = store;
  JobScheduler sched(options);  // the real default runner
  const Submitted cold = sched.submit(job);
  EXPECT_FALSE(cold.cached);
  EXPECT_EQ(encode_verdict(cold.result.get()), encode_verdict(fresh));
  const Submitted warm = sched.submit(job);
  EXPECT_TRUE(warm.cached);
  EXPECT_EQ(encode_verdict(warm.result.get()), encode_verdict(fresh));
  const Metrics m = sched.metrics();
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(m.completed, 1u);
  std::remove(store.c_str());
}

TEST(JobScheduler, StaticPowerJobsSkipExplorationButKeepTheDecision) {
  const std::string store =
      ::testing::TempDir() + "wfregs_sched_static_" +
      std::to_string(::getpid()) + ".log";
  std::remove(store.c_str());
  SchedulerOptions options = one_worker();
  options.store_path = store;
  JobScheduler sched(options);  // the real default runner

  VerifyJob job;
  job.kind = JobKind::kConsensus;
  job.impl = consensus::registers_only_attempt(2);
  job.static_power = true;

  // The flag is part of the job identity: same implementation, different
  // keys, so the static and explored verdicts never alias in the store.
  VerifyJob explored_job = job;
  explored_job.static_power = false;
  EXPECT_FALSE(job_key(job) == job_key(explored_job));

  const Submitted fast = sched.submit(job);
  const Verdict statically = fast.result.get();
  EXPECT_EQ(statically.provenance, Provenance::kStatic);
  EXPECT_FALSE(statically.ok);
  EXPECT_TRUE(statically.wait_free);
  EXPECT_TRUE(statically.complete);
  EXPECT_EQ(statically.stats.configs, 0u);  // no exploration ran
  EXPECT_NE(statically.detail.find("statically refuted"), std::string::npos);
  EXPECT_EQ(sched.metrics().static_decisions, 1u);

  const Submitted slow = sched.submit(explored_job);
  const Verdict explored = slow.result.get();
  EXPECT_EQ(explored.provenance, Provenance::kExplored);
  EXPECT_GT(explored.stats.configs, 0u);
  EXPECT_EQ(sched.metrics().static_decisions, 1u);

  // Same decision either way, and the cached static verdict replays with
  // its provenance intact.
  EXPECT_EQ(encode_verdict(decision_projection(statically)),
            encode_verdict(decision_projection(explored)));
  const Submitted warm = sched.submit(job);
  EXPECT_TRUE(warm.cached);
  EXPECT_TRUE(warm.result.get() == statically);
  EXPECT_EQ(sched.metrics().static_decisions, 1u);  // cache hit, no re-decide

  // A static-power job the decider declines (strong base objects) falls
  // back to full exploration and reports it honestly.
  VerifyJob strong;
  strong.kind = JobKind::kConsensus;
  strong.impl = consensus::from_test_and_set();
  strong.static_power = true;
  const Verdict fallback = sched.submit(strong).result.get();
  EXPECT_EQ(fallback.provenance, Provenance::kExplored);
  EXPECT_TRUE(fallback.ok);
  EXPECT_GT(fallback.stats.configs, 0u);
  std::remove(store.c_str());
}

// ---- out-of-core checkpoint/resume through the scheduler -------------------

TEST(JobScheduler, DeadlineLeavesAPartialCheckpointAndResubmissionResumes) {
  const std::string root = ::testing::TempDir() + "wfregs_sched_ooc_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);

  // from_cas_ids(4) out of core (64 KiB segments, 256 KiB budget,
  // checkpoint every 64 configs) takes well over 100 ms end to end, so a
  // 25 ms deadline reliably interrupts the first run even on a much faster
  // machine.  A slow one (a sanitizer build) may not have entered the first
  // root by then, so phase 1's runner holds the cut back until root 0 has a
  // durable checkpoint frame: what is banked then does not depend on speed.
  VerifyJob job;
  job.kind = JobKind::kConsensus;
  job.impl = consensus::from_cas_ids(4);

  SchedulerOptions options = one_worker();
  options.storage.memory_budget_bytes = 256 * 1024;
  options.storage.arena_segment_bytes = 64 * 1024;
  options.storage.checkpoint_dir = root;
  options.storage.checkpoint_every_configs = 64;
  const JobKey key = job_key(job);
  const std::string job_dir = root + "/" + job_key_hex(key);

  // Phase 1: a deadline'd scheduler cuts the job mid-exploration.  The
  // verdict must say "partial, resumable" and the per-key checkpoint
  // directory must hold the banked progress.
  {
    SchedulerOptions deadline_options = options;
    deadline_options.default_deadline = 25ms;
    // The real default runner, cancelled once the deadline has fired AND
    // root 0's frontier log holds a snapshot a resume would find.
    const JobScheduler::Runner runner =
        [&options](const VerifyJob& j, const std::atomic<bool>& deadline) {
          std::atomic<bool> cut{false};
          // Declared after `cut`: the jthread stops and joins first.
          const std::jthread watcher([&](const std::stop_token& stop) {
            const std::string root0 = j.options.storage.checkpoint_dir +
                                      "/root0";
            while (!stop.stop_requested()) {
              if (deadline.load() &&
                  storage::FrontierCheckpoint::info(root0).present) {
                cut.store(true);
                return;
              }
              std::this_thread::sleep_for(1ms);
            }
          });
          return JobScheduler::default_runner(options.explore_threads)(j,
                                                                       cut);
        };
    JobScheduler sched(deadline_options, runner);
    const Submitted s = sched.submit(job);
    const Verdict v = s.result.get();
    ASSERT_FALSE(v.complete)
        << "25 ms deadline did not interrupt the job; the workload is too "
           "small for this machine";
    EXPECT_TRUE(v.checkpointed);
    EXPECT_EQ(v.provenance, Provenance::kPartial);
    EXPECT_TRUE(std::filesystem::exists(job_dir));
    EXPECT_FALSE(sched.lookup(key).has_value());  // partials never cached
    const auto status = sched.poll(key);
    ASSERT_TRUE(status.has_value());
    EXPECT_EQ(status->state, JobState::kCancelled);
    EXPECT_EQ(status->verdict.provenance, Provenance::kPartial);
    const Metrics m = sched.metrics();
    EXPECT_EQ(m.cancelled, 1u);
    EXPECT_EQ(m.partial_checkpoints, 1u);
    EXPECT_EQ(m.completed, 0u);
  }

  // Phase 2: a scheduler without a deadline sees the same checkpoint root;
  // resubmitting the same key resumes the banked roots instead of starting
  // over, completes, and retires the per-job directory.
  {
    JobScheduler sched(options);
    const Submitted s = sched.submit(job);
    EXPECT_TRUE(s.key == key);
    const Verdict v = s.result.get();
    EXPECT_TRUE(v.complete);
    EXPECT_TRUE(v.ok);
    EXPECT_TRUE(v.resumed);
    EXPECT_EQ(v.provenance, Provenance::kExplored);

    // The cached verdict is byte-identical to an uninterrupted in-core
    // run: resume replays the same traversal, and the transient resumed /
    // checkpointed markers are deliberately outside the encoding.
    const std::atomic<bool> no_cancel{false};
    VerifyJob fresh_job = job;  // no storage options: plain in-core run
    const Verdict fresh = JobScheduler::default_runner(1)(fresh_job, no_cancel);
    const std::optional<Verdict> cached = sched.lookup(key);
    ASSERT_TRUE(cached.has_value());
    EXPECT_TRUE(encode_verdict(*cached) == encode_verdict(fresh));

    // Completion retired the per-job checkpoint directory.
    EXPECT_FALSE(std::filesystem::exists(job_dir));
    const Metrics m = sched.metrics();
    EXPECT_EQ(m.completed, 1u);
    EXPECT_EQ(m.resumed_jobs, 1u);
    EXPECT_EQ(m.cancelled, 0u);
  }
  std::filesystem::remove_all(root);
}

/// The `root<vec>` subdirectories a consensus job left in `dir`, as vectors.
std::vector<int> checkpointed_roots(const std::string& dir) {
  std::vector<int> roots;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory() && name.starts_with("root")) {
      roots.push_back(std::stoi(name.substr(4)));
    }
  }
  std::ranges::sort(roots);
  return roots;
}

TEST(JobScheduler, CheckpointsOnlyOrbitRepresentatives) {
  // A consensus job explores one input vector per symmetry orbit, so only
  // the representatives leave a `root<vec>` checkpoint directory: cas(4)'s
  // orbits are the vectors with 0..4 ones, least members 0, 1, 3, 7, 15;
  // cas_ids(4) has no symmetry and checkpoints all 16 roots.
  const std::string root = ::testing::TempDir() + "wfregs_sched_orbits_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  std::vector<int> all(16);
  std::iota(all.begin(), all.end(), 0);
  const std::vector<
      std::tuple<std::string, std::shared_ptr<const Implementation>,
                 std::vector<int>>>
      cases = {{"cas4", consensus::from_cas(4), {0, 1, 3, 7, 15}},
               {"cas_ids4", consensus::from_cas_ids(4), all}};
  for (const auto& [name, impl, want] : cases) {
    VerifyOptions options;
    options.threads = 1;
    options.storage.checkpoint_dir = root + "/" + name;
    const consensus::ConsensusCheckResult r =
        consensus::check_consensus(impl, options);
    EXPECT_TRUE(r.solves) << name << ": " << r.detail;
    EXPECT_EQ(checkpointed_roots(options.storage.checkpoint_dir), want)
        << name;
  }

  std::filesystem::remove_all(root);
}

TEST(JobScheduler, CancelledConsensusJobStopsAtTheCancelledRoot) {
  // cas(5) cut by its deadline while representative 3 (the first vector
  // with two ones) is mid-exploration: the job stops there.  Representatives
  // 0 and 1 are banked as finished, vectors 2, 4, 8 and 16 were credited to
  // 1 and have no directory, and no vector after 3 is explored, so no
  // directory lies past root3.  The resubmission resumes the finished
  // representatives as complete, credits their orbits again and gives the
  // bytes of an uncheckpointed run.
  const std::string root = ::testing::TempDir() + "wfregs_sched_cancel_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  VerifyJob job;
  job.kind = JobKind::kConsensus;
  job.impl = consensus::from_cas(5);
  SchedulerOptions options = one_worker();
  options.storage.checkpoint_dir = root + "/jobs";
  options.storage.checkpoint_every_configs = 1;
  const std::string job_dir =
      options.storage.checkpoint_dir + "/" + job_key_hex(job_key(job));
  {
    SchedulerOptions deadline_options = options;
    deadline_options.default_deadline = 1ms;
    const JobScheduler::Runner runner =
        [&options](const VerifyJob& j, const std::atomic<bool>& deadline) {
          std::atomic<bool> cut{false};
          // Declared after `cut`: the jthread stops and joins first.
          const std::jthread watcher([&](const std::stop_token& stop) {
            const std::string root3 = j.options.storage.checkpoint_dir +
                                      "/root3";
            while (!stop.stop_requested()) {
              if (deadline.load() &&
                  storage::FrontierCheckpoint::info(root3).present) {
                cut.store(true);
                return;
              }
              std::this_thread::sleep_for(100us);
            }
          });
          return JobScheduler::default_runner(options.explore_threads)(j,
                                                                       cut);
        };
    JobScheduler sched(deadline_options, runner);
    const Verdict v = sched.submit(job).result.get();
    ASSERT_FALSE(v.complete)
        << "the cut missed representative 3; the workload is too small for "
           "this machine";
    EXPECT_TRUE(v.checkpointed);
    EXPECT_TRUE(storage::FrontierCheckpoint::info(job_dir + "/root1").finished);
    EXPECT_FALSE(
        storage::FrontierCheckpoint::info(job_dir + "/root3").finished);
    EXPECT_EQ(checkpointed_roots(job_dir), (std::vector<int>{0, 1, 3}));
  }
  {
    JobScheduler sched(options);
    const Verdict v = sched.submit(job).result.get();
    EXPECT_TRUE(v.complete);
    EXPECT_TRUE(v.ok);
    EXPECT_TRUE(v.resumed);
    const std::atomic<bool> no_cancel{false};
    const Verdict fresh = JobScheduler::default_runner(1)(job, no_cancel);
    EXPECT_TRUE(encode_verdict(v) == encode_verdict(fresh));
  }
  std::filesystem::remove_all(root);
}

/// Rewrites a frontier snapshot payload of the current version (3) into the
/// version-2 layout, in which every frame carried a u64 sleep mask after its
/// enumeration choice.  The rest of the payload is unchanged.
std::vector<std::uint8_t> snapshot_as_version_two(
    const std::vector<std::uint8_t>& v3) {
  std::size_t at = 0;
  const auto u32 = [&] {
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) {
      v |= static_cast<std::uint32_t>(v3.at(at + k)) << (8 * k);
    }
    at += 4;
    return v;
  };
  EXPECT_EQ(u32(), 3u) << "snapshot version is not 3";
  at += 16 + 4;           // fingerprint, flag bytes
  at += u32();            // violation text
  at += 3 * 8 + 4 + 4;    // configs, edges, terminals, depth, interned
  const std::uint32_t frames = u32();
  std::vector<std::uint8_t> v2(v3.begin(), v3.begin() + at);
  v2[0] = 2;
  for (std::uint32_t f = 0; f < frames; ++f) {
    const std::size_t start = at;
    at += 3 * 4;  // id, step_idx, choice
    v2.insert(v2.end(), v3.begin() + start, v3.begin() + at);
    v2.insert(v2.end(), 8, 0);  // the sleep mask
    const std::size_t rest = at;
    at += 4;                   // depth_from
    at += 8 * std::size_t{u32()};  // acc_from
    at += 8 * std::size_t{u32()};  // inv_from
    v2.insert(v2.end(), v3.begin() + rest, v3.begin() + at);
  }
  v2.insert(v2.end(), v3.begin() + at, v3.end());
  return v2;
}

TEST(JobScheduler, VersionTwoCheckpointIsNotResumed) {
  // A job directory left by a build whose snapshots carried sleep masks
  // (format version 2) must not be resumed: the job runs from the root and
  // gives the verdict bytes of a run with no checkpoint.  The same
  // snapshots at the current version do resume (control).
  const std::string root = ::testing::TempDir() + "wfregs_sched_v2_" +
                           std::to_string(::getpid());
  std::filesystem::remove_all(root);
  VerifyJob job;
  job.kind = JobKind::kConsensus;
  job.impl = consensus::from_cas(4);
  SchedulerOptions options = one_worker();
  options.storage.memory_budget_bytes = 256 * 1024;
  options.storage.arena_segment_bytes = 64 * 1024;
  options.storage.checkpoint_dir = root + "/v2";
  options.storage.checkpoint_every_configs = 16;
  const std::string job_dir = root + "/v2/" + job_key_hex(job_key(job));

  // Bank an interrupted run in the job's directory, as a cancelled run
  // would leave it, and keep a copy at the current version.
  VerifyOptions cut = job.options;
  cut.threads = 1;
  cut.storage = options.storage;
  cut.storage.checkpoint_dir = job_dir;
  cut.limits.max_configs = 40;
  const consensus::ConsensusCheckResult partial =
      consensus::check_consensus(job.impl, cut);
  ASSERT_FALSE(partial.complete);
  ASSERT_TRUE(partial.checkpointed);
  std::filesystem::copy(root + "/v2", root + "/v3",
                        std::filesystem::copy_options::recursive);

  std::size_t unfinished = 0;
  for (const auto& entry : std::filesystem::directory_iterator(job_dir)) {
    const std::string frontier = (entry.path() / "frontier.log").string();
    if (!std::filesystem::exists(frontier)) continue;
    unfinished += storage::FrontierCheckpoint::info(entry.path().string())
                          .finished
                      ? 0
                      : 1;
    const auto log =
        storage::read_record_log(frontier, storage::kCheckpointLogMagic);
    storage::RecordLog writer(frontier, storage::kCheckpointLogMagic);
    writer.truncate_to(storage::kRecordLogHeaderBytes);
    for (const storage::LogRecord& rec : log.records) {
      const auto v2 = snapshot_as_version_two(rec.payload);
      writer.append(rec.tag, v2.data(), v2.size());
    }
    writer.sync();
    EXPECT_FALSE(
        storage::FrontierCheckpoint::info(entry.path().string()).present);
  }
  ASSERT_GT(unfinished, 0u) << "no root was interrupted mid-exploration";

  const std::atomic<bool> no_cancel{false};
  const Verdict fresh = JobScheduler::default_runner(1)(job, no_cancel);
  ASSERT_TRUE(fresh.ok);
  {
    JobScheduler sched(options);
    const Verdict v = sched.submit(job).result.get();
    EXPECT_FALSE(v.resumed);
    EXPECT_TRUE(v.complete);
    EXPECT_TRUE(encode_verdict(v) == encode_verdict(fresh));
  }
  {
    options.storage.checkpoint_dir = root + "/v3";
    JobScheduler sched(options);
    const Verdict v = sched.submit(job).result.get();
    EXPECT_TRUE(v.resumed);
    EXPECT_TRUE(encode_verdict(v) == encode_verdict(fresh));
  }
  std::filesystem::remove_all(root);
}

TEST(JobScheduler, StaticPowerFlagRoundTripsThroughTheJobText) {
  VerifyJob job;
  job.kind = JobKind::kConsensus;
  job.impl = consensus::registers_only_attempt(2);
  job.static_power = true;
  const std::string text = print_job(job);
  EXPECT_NE(text.find("static-power"), std::string::npos);
  const VerifyJob parsed = parse_job(text);
  EXPECT_TRUE(parsed.static_power);
  EXPECT_TRUE(job_key(parsed) == job_key(job));

  // Unflagged jobs keep their pre-flag text (and so their historical keys).
  job.static_power = false;
  const std::string bare = print_job(job);
  EXPECT_EQ(bare.find("static-power"), std::string::npos);
  EXPECT_FALSE(parse_job(bare).static_power);
}


/// Metrics viewed as its raw field sequence: every field is a uint64, so
/// this enumerates them all without naming any (a field the JSON table
/// forgets fails the test below).
using MetricsWords = std::array<std::uint64_t, sizeof(Metrics) / 8>;
static_assert(sizeof(Metrics) % 8 == 0);

TEST(Metrics, JsonCoversEveryField) {
  MetricsWords words;
  for (std::size_t k = 0; k < words.size(); ++k) words[k] = 1000 + 7 * k;
  const std::string json = metrics_to_json(std::bit_cast<Metrics>(words));
  // One "name":value pair per field, values in declaration order.
  std::size_t pos = 0;
  for (std::size_t k = 0; k < words.size(); ++k) {
    const std::string value = "\":" + std::to_string(words[k]);
    pos = json.find(value, pos);
    ASSERT_NE(pos, std::string::npos) << "field " << k << " in " << json;
    pos += value.size();
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), ':'),
            static_cast<std::ptrdiff_t>(words.size()))
      << json;
}

}  // namespace
}  // namespace wfregs::service
