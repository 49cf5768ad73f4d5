#include "wfregs/service/scheduler.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "wfregs/analysis/consensus_power.hpp"
#include "wfregs/analysis/lint.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/runtime/regularity.hpp"
#include "wfregs/runtime/verify.hpp"

namespace wfregs::service {

namespace {

using Clock = std::chrono::steady_clock;

// Worker-side counter layout in JobScheduler::worker_stats_ (one wait-free
// writer slot per worker; kWorkerCounters must cover the last index).
constexpr std::size_t kWcCompleted = 0;
constexpr std::size_t kWcStaticDecisions = 1;
constexpr std::size_t kWcCancelled = 2;
constexpr std::size_t kWcFailed = 3;
constexpr std::size_t kWcEvictions = 4;
constexpr std::size_t kWcQueueNs = 5;
constexpr std::size_t kWcQueueCount = 6;
constexpr std::size_t kWcRunNs = 7;
constexpr std::size_t kWcRunCount = 8;
constexpr std::size_t kWcAppendNs = 9;
constexpr std::size_t kWcAppendCount = 10;
constexpr std::size_t kWcResumed = 11;
constexpr std::size_t kWcPartial = 12;

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

std::shared_future<Verdict> ready_future(Verdict v) {
  std::promise<Verdict> p;
  p.set_value(std::move(v));
  return p.get_future().share();
}

}  // namespace

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
  }
  return "unknown";
}

struct JobScheduler::InFlight {
  VerifyJob job;
  JobKey key;
  JobState state = JobState::kQueued;
  std::atomic<bool> cancel{false};
  std::promise<Verdict> promise;
  std::shared_future<Verdict> future;
  Clock::time_point submitted_at;
  Clock::time_point deadline;
  bool has_deadline = false;
};

JobScheduler::Runner JobScheduler::default_runner(int explore_threads) {
  return [explore_threads](const VerifyJob& job,
                           const std::atomic<bool>& cancel) -> Verdict {
    VerifyOptions options = job.options;
    options.threads = explore_threads;
    options.limits.cancel = &cancel;
    if (job.precheck) options.static_precheck = analysis::static_precheck();
    Verdict v;
    v.kind = job.kind;
    switch (job.kind) {
      case JobKind::kLinearizable: {
        const VerifyResult r =
            verify_linearizable(job.impl, job.scripts, options);
        v.ok = r.ok;
        v.wait_free = r.wait_free;
        v.complete = r.complete;
        v.resumed = r.resumed;
        v.checkpointed = r.checkpointed;
        v.detail = r.detail;
        v.stats = r.stats;
        break;
      }
      case JobKind::kRegular: {
        const RegularVerifyResult r =
            verify_regular(job.impl, job.scripts, job.values, options);
        v.ok = r.ok;
        v.wait_free = r.wait_free;
        v.complete = r.complete;
        v.resumed = r.resumed;
        v.checkpointed = r.checkpointed;
        v.detail = r.detail;
        v.stats = r.stats;
        break;
      }
      case JobKind::kConsensus: {
        // The fast-path is installed INSIDE the runner (not at admission)
        // so cache lookups, coalescing and verdict storage see statically
        // decided jobs exactly like explored ones -- one code path, one
        // cache-coherence story; only provenance records the difference.
        if (job.static_power) {
          options.static_consensus = analysis::static_consensus_decider();
        }
        const consensus::ConsensusCheckResult r =
            consensus::check_consensus(job.impl, options);
        v.ok = r.solves;
        v.wait_free = r.wait_free;
        v.complete = r.complete;
        v.resumed = r.resumed;
        v.checkpointed = r.checkpointed;
        v.provenance = r.static_decision ? Provenance::kStatic
                                         : Provenance::kExplored;
        v.detail = r.detail;
        v.stats.configs = r.configs;
        v.stats.terminals = r.terminals;
        // The checker interns every configuration it counts (the explorers'
        // interned == configs contract holds per root, so it holds summed).
        v.stats.interned_configs = r.configs;
        v.stats.depth = r.depth;
        v.stats.max_accesses = r.max_accesses;
        v.stats.max_accesses_by_inv = r.max_accesses_by_inv;
        break;
      }
    }
    // A run cut short with a checkpoint on disk is resumable: mark the
    // verdict kPartial so poll()/history distinguish "lost work" from
    // "resubmit to continue".  Complete verdicts keep their provenance
    // (a resumed run's cached bytes must match a fresh run's).
    if (!v.complete && v.checkpointed) v.provenance = Provenance::kPartial;
    return v;
  };
}

JobScheduler::JobScheduler(SchedulerOptions options, Runner runner)
    : options_(options),
      runner_(runner ? std::move(runner)
                     : default_runner(options.explore_threads)),
      store_(options.store_path),
      worker_stats_(static_cast<std::size_t>(std::max(options.workers, 1)),
                    kWorkerCounters) {
  if (options_.workers < 1) options_.workers = 1;
  workers_.reserve(static_cast<std::size_t>(options_.workers));
  for (int w = 0; w < options_.workers; ++w) {
    workers_.emplace_back(
        [this, w] { worker_main(static_cast<std::size_t>(w)); });
  }
  timer_ = std::thread([this] { timer_main(); });
}

JobScheduler::~JobScheduler() { shutdown(); }

Submitted JobScheduler::submit(const VerifyJob& job) {
  Submitted s = admit(job, /*reject_when_full=*/false);
  return s;
}

Submitted JobScheduler::try_submit(const VerifyJob& job) {
  return admit(job, /*reject_when_full=*/true);
}

Submitted JobScheduler::admit(const VerifyJob& job, bool reject_when_full) {
  // Serialize + hash outside the lock (print_job can be sizeable).
  const JobKey key = job_key(job);
  Submitted out;
  out.key = key;

  std::unique_lock<std::mutex> lock(mu_);
  if (stopping_) {
    throw std::runtime_error("JobScheduler: draining, submission refused");
  }

  // 1. Cache first.
  const Clock::time_point t0 = Clock::now();
  std::optional<Verdict> hit = store_.lookup(key);
  metrics_.lookup_ns_total += ns_between(t0, Clock::now());
  metrics_.lookup_count += 1;
  if (hit) {
    // This submission is answered from the store: drop the key's older
    // statuses, so poll() reports that.
    std::erase_if(recent_, [&](const Recent& r) { return r.key == key; });
    metrics_.submitted += 1;
    metrics_.cache_hits += 1;
    out.cached = true;
    out.result = ready_future(std::move(*hit));
    return out;
  }

  // 2. Coalesce with an identical queued/running job.
  for (const std::shared_ptr<InFlight>& f : inflight_) {
    if (f->key == key) {
      metrics_.submitted += 1;
      metrics_.coalesced += 1;
      out.coalesced = true;
      out.result = f->future;
      return out;
    }
  }

  // 3. Bounded queue.
  if (queue_.size() >= options_.queue_capacity) {
    metrics_.rejected += 1;
    if (!reject_when_full) {
      throw std::runtime_error("JobScheduler: submission queue full");
    }
    out.rejected = true;
    return out;
  }

  auto f = std::make_shared<InFlight>();
  f->job = job;
  f->key = key;
  f->future = f->promise.get_future().share();
  f->submitted_at = Clock::now();
  if (options_.default_deadline.count() > 0) {
    f->deadline = f->submitted_at + options_.default_deadline;
    f->has_deadline = true;
  }
  queue_.push_back(f);
  inflight_.push_back(f);
  metrics_.submitted += 1;
  metrics_.cache_misses += 1;
  out.result = f->future;
  lock.unlock();
  work_cv_.notify_one();
  if (f->has_deadline) timer_cv_.notify_one();
  return out;
}

std::string JobScheduler::job_checkpoint_dir(const JobKey& key) const {
  if (options_.storage.checkpoint_dir.empty()) return {};
  return options_.storage.checkpoint_dir + "/" + job_key_hex(key);
}

void JobScheduler::worker_main(std::size_t wid) {
  concurrent::StatsSnapshot::Writer w = worker_stats_.writer(wid);
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stopping_) return;
      continue;
    }
    std::shared_ptr<InFlight> f = queue_.front();
    queue_.pop_front();
    f->state = JobState::kRunning;
    const Clock::time_point picked = Clock::now();
    lock.unlock();
    // Counter updates are wait-free writer-slot stores from here on --
    // mu_ now serializes admission and queue state only, never accounting.
    w.add(kWcQueueNs, ns_between(f->submitted_at, picked));
    w.add(kWcQueueCount, 1);

    Verdict v;
    JobState final_state = JobState::kDone;
    if (f->cancel.load(std::memory_order_relaxed)) {
      // Deadline expired (or shutdown) while still queued.
      v.kind = f->job.kind;
      v.complete = false;
      v.detail = "cancelled before running";
      final_state = JobState::kCancelled;
    } else {
      try {
        if (const std::string dir = job_checkpoint_dir(f->key);
            !dir.empty()) {
          // Out-of-core run: specialize the scheduler's storage template to
          // this job's content-addressed checkpoint directory, so a
          // resubmission of the same key resumes the same checkpoint.
          VerifyJob job = f->job;
          job.options.storage = options_.storage;
          job.options.storage.checkpoint_dir = dir;
          v = runner_(job, f->cancel);
        } else {
          v = runner_(f->job, f->cancel);
        }
        if (v.resumed) w.add(kWcResumed, 1);
        if (f->cancel.load(std::memory_order_relaxed) && !v.complete) {
          final_state = JobState::kCancelled;
          if (v.checkpointed) w.add(kWcPartial, 1);
          if (v.detail.empty()) {
            v.detail = v.provenance == Provenance::kPartial
                           ? "cancelled (deadline); checkpointed, resumable"
                           : "cancelled (deadline)";
          }
        }
      } catch (const std::exception& e) {
        v = Verdict{};
        v.kind = f->job.kind;
        v.complete = false;
        v.detail = e.what();
        final_state = JobState::kFailed;
      }
    }
    w.add(kWcRunNs, ns_between(picked, Clock::now()));
    w.add(kWcRunCount, 1);

    lock.lock();
    finish(f, std::move(v), final_state, w);
    // finish() released nothing; we still hold the lock for the next wait.
  }
}

void JobScheduler::finish(const std::shared_ptr<InFlight>& job, Verdict verdict,
                          JobState state,
                          concurrent::StatsSnapshot::Writer& w) {
  // Caller holds mu_ (for queue / inflight / store state; the counter
  // writes below touch only the worker's private staging slot).
  if (state == JobState::kDone && verdict.provenance == Provenance::kStatic) {
    w.add(kWcStaticDecisions, 1);
  }
  if (state == JobState::kDone && verdict.complete) {
    const Clock::time_point t0 = Clock::now();
    store_.put(job->key, verdict);
    w.add(kWcAppendNs, ns_between(t0, Clock::now()));
    w.add(kWcAppendCount, 1);
    w.add(kWcCompleted, 1);
    if (const std::string dir = job_checkpoint_dir(job->key); !dir.empty()) {
      // The verdict is cached; the checkpoint has nothing left to resume.
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
    remember_status(job->key, state, nullptr, w);
  } else {
    // Incomplete / cancelled / failed verdicts never enter the store; keep
    // the outcome around for poll().
    if (state == JobState::kDone) {
      w.add(kWcCompleted, 1);
    } else if (state == JobState::kCancelled) {
      w.add(kWcCancelled, 1);
    } else {
      w.add(kWcFailed, 1);
    }
    remember_status(job->key, state, &verdict, w);
  }
  job->state = state;
  inflight_.erase(std::find(inflight_.begin(), inflight_.end(), job));
  // Publish BEFORE fulfilling the promise: a caller whose future resolved
  // must see this job in metrics() (the seqlock publication is the release
  // edge a subsequent collect acquires).
  w.publish();
  job->promise.set_value(std::move(verdict));
  drain_cv_.notify_all();
}

void JobScheduler::remember_status(const JobKey& key, JobState state,
                                   const Verdict* verdict,
                                   concurrent::StatsSnapshot::Writer& w) {
  Recent r{key, {}, verdict == nullptr};
  r.status.state = state;
  if (verdict) r.status.verdict = *verdict;
  recent_.push_back(std::move(r));
  while (recent_.size() > options_.status_history) {
    recent_.pop_front();
    w.add(kWcEvictions, 1);
  }
}

void JobScheduler::timer_main() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (stopping_ && queue_.empty() && inflight_.empty()) return;
    Clock::time_point next = Clock::time_point::max();
    for (const std::shared_ptr<InFlight>& f : inflight_) {
      if (f->has_deadline && f->deadline < next) next = f->deadline;
    }
    if (next == Clock::time_point::max()) {
      timer_cv_.wait(lock);
    } else {
      timer_cv_.wait_until(lock, next);
    }
    const Clock::time_point now = Clock::now();
    for (const std::shared_ptr<InFlight>& f : inflight_) {
      if (f->has_deadline && f->deadline <= now) {
        f->cancel.store(true, std::memory_order_relaxed);
      }
    }
  }
}

std::optional<Verdict> JobScheduler::lookup(const JobKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  return store_.lookup(key);
}

std::optional<JobStatus> JobScheduler::poll(const JobKey& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::shared_ptr<InFlight>& f : inflight_) {
    if (f->key == key) {
      JobStatus status;
      status.state = f->state;
      return status;
    }
  }
  // The most recent outcome wins; a stored one is read back below.
  bool computed = false;
  for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
    if (it->key != key) continue;
    if (!it->stored) return it->status;
    computed = true;
    break;
  }
  if (std::optional<Verdict> v = store_.lookup(key)) {
    JobStatus status;
    status.state = JobState::kDone;
    status.from_cache = !computed;
    status.verdict = std::move(*v);
    return status;
  }
  return std::nullopt;
}

Metrics JobScheduler::metrics() const {
  // Worker-side counters first, without mu_: the collect reads a
  // consistent cut of every worker's published record and never stalls a
  // worker (workers publish wait-free and don't retry either).
  concurrent::ContentionCounters cc;
  const std::vector<std::uint64_t> totals = worker_stats_.collect(&cc);
  const std::uint64_t retries =
      collect_retries_.fetch_add(cc.snapshot_retries,
                                 std::memory_order_relaxed) +
      cc.snapshot_retries;

  std::lock_guard<std::mutex> lock(mu_);
  Metrics m = metrics_;
  m.resumed_jobs = totals[kWcResumed];
  m.partial_checkpoints = totals[kWcPartial];
  m.completed = totals[kWcCompleted];
  m.static_decisions = totals[kWcStaticDecisions];
  m.cancelled = totals[kWcCancelled];
  m.failed = totals[kWcFailed];
  m.evictions = totals[kWcEvictions];
  m.queue_ns_total = totals[kWcQueueNs];
  m.queue_count = totals[kWcQueueCount];
  m.run_ns_total = totals[kWcRunNs];
  m.run_count = totals[kWcRunCount];
  m.append_ns_total = totals[kWcAppendNs];
  m.append_count = totals[kWcAppendCount];
  m.snapshot_retries = retries;
  m.queue_depth = queue_.size();
  m.in_flight = inflight_.size() - queue_.size();
  m.store_records = store_.size();
  m.store_bytes = store_.file_bytes();
  return m;
}

void JobScheduler::drain() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;  // already drained
    stopping_ = true;
    if (cancel_all_) {
      for (const std::shared_ptr<InFlight>& f : inflight_) {
        f->cancel.store(true, std::memory_order_relaxed);
      }
    }
  }
  work_cv_.notify_all();
  timer_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
  workers_.clear();
  timer_cv_.notify_all();
  if (timer_.joinable()) timer_.join();
}

void JobScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancel_all_ = true;
  }
  drain();
}

}  // namespace wfregs::service
