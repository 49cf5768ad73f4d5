// Tests for the job scheduler: cache-first admission, in-flight coalescing,
// queue bounds, deadline cancellation, drain semantics (all with an
// injectable gated runner), plus the cache-coherence differential -- cached
// verdicts must be bit-identical to fresh recomputation across the protocol
// zoo and every reduction mode.
#include "wfregs/service/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "wfregs/consensus/protocols.hpp"

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
  // machine.
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
    JobScheduler sched(deadline_options);  // the real default runner
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
/// forgets fails the round trip below).
using MetricsWords = std::array<std::uint64_t, sizeof(Metrics) / 8>;
static_assert(sizeof(Metrics) % 8 == 0);

TEST(Metrics, JsonRoundTripAndAccumulateCoverEveryField) {
  MetricsWords words;
  for (std::size_t k = 0; k < words.size(); ++k) words[k] = 1000 + 7 * k;
  const Metrics m = std::bit_cast<Metrics>(words);
  const std::string json = metrics_to_json(m);
  const MetricsWords parsed =
      std::bit_cast<MetricsWords>(parse_metrics_json(json));
  Metrics twice = m;
  accumulate_metrics(&twice, m);
  const MetricsWords doubled = std::bit_cast<MetricsWords>(twice);
  for (std::size_t k = 0; k < words.size(); ++k) {
    EXPECT_EQ(parsed[k], words[k]) << "field " << k << " in " << json;
    EXPECT_EQ(doubled[k], 2 * words[k]) << "field " << k;
  }
  EXPECT_EQ(metrics_to_json(parse_metrics_json(json)), json);
}

}  // namespace
}  // namespace wfregs::service
