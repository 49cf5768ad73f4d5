// The batched job scheduler: a bounded submission queue in front of a
// worker pool that reuses the exhaustive explorers, with
//
//   * cache-first admission -- a submitted key already in the verdict
//     store is answered immediately (hit), never queued;
//   * in-flight deduplication -- identical keys submitted while a job is
//     queued or running coalesce onto the one computation and share its
//     result;
//   * per-job deadlines and config budgets -- the config budget is part of
//     the job's options (and so of its key); the wall-clock deadline is
//     enforced by a timer thread flipping the job's cancel flag, which the
//     explorers poll cooperatively (ExploreLimits::cancel).  Cancelled and
//     incomplete verdicts are reported but NEVER cached: only complete,
//     deterministic results enter the store;
//   * graceful drain -- drain() stops admission, lets the queue empty and
//     joins the workers; shutdown() additionally cancels running jobs.
//
// The runner is injectable so the unit tests can drive coalescing, queue
// bounds and cancellation with gated fake jobs; default_runner() dispatches
// to verify_linearizable / verify_regular / check_consensus.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "wfregs/concurrent/snapshot.hpp"
#include "wfregs/service/job.hpp"
#include "wfregs/storage/options.hpp"
#include "wfregs/service/metrics.hpp"
#include "wfregs/service/store.hpp"
#include "wfregs/service/verdict.hpp"

namespace wfregs::service {

struct SchedulerOptions {
  /// Worker threads computing verdicts.
  int workers = 1;
  /// Bounded submission queue: submissions beyond this many waiting jobs
  /// are rejected (try_submit returns rejected, submit throws).
  std::size_t queue_capacity = 256;
  /// Verdict log path; empty = in-memory cache only.
  std::string store_path;
  /// Explorer threads per verification (VerifyOptions::threads); 1 keeps
  /// worker-level parallelism the only parallelism.
  int explore_threads = 1;
  /// Default wall-clock deadline per job; zero = none.
  std::chrono::milliseconds default_deadline{0};
  /// Finished job statuses kept for poll(): uncacheable outcomes
  /// (cancelled / failed / incomplete verdicts) and a verdict-less mark for
  /// each verdict computed into the store; older entries are evicted.
  std::size_t status_history = 1024;
  /// Out-of-core template applied to every computed job.  When
  /// storage.checkpoint_dir is non-empty, each job runs with these storage
  /// options and its checkpoint directory specialized to
  /// `<checkpoint_dir>/<job_key_hex(key)>`.  A deadline-cancelled job then
  /// leaves a resumable checkpoint (its status-history verdict carries
  /// Provenance::kPartial); resubmitting the same key resumes the
  /// exploration instead of recomputing.  The per-job directory is removed
  /// once a complete verdict is cached.
  storage::StorageOptions storage;
};

enum class JobState : std::uint8_t {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,       ///< verdict available (poll .verdict)
  kCancelled = 3,  ///< deadline or shutdown; verdict has complete=false
  kFailed = 4,     ///< runner threw; detail in verdict.detail
};

const char* job_state_name(JobState s);

struct JobStatus {
  JobState state = JobState::kQueued;
  /// The key's latest submission was answered from the store rather than
  /// computed.  A computed verdict reads false until its status-history
  /// entry is evicted.
  bool from_cache = false;
  Verdict verdict;  ///< meaningful for kDone / kCancelled / kFailed
};

/// submit() / try_submit() outcome: the job's key, how it was admitted, and
/// a future for its verdict (already satisfied for cache hits).
struct Submitted {
  JobKey key;
  bool cached = false;     ///< answered from the store
  bool coalesced = false;  ///< joined an identical in-flight job
  bool rejected = false;   ///< queue full (try_submit only); future invalid
  std::shared_future<Verdict> result;
};

class JobScheduler {
 public:
  /// Computes a verdict; must poll `cancel` cooperatively (the default
  /// runner wires it into ExploreLimits::cancel).
  using Runner =
      std::function<Verdict(const VerifyJob&, const std::atomic<bool>& cancel)>;

  /// The real thing: dispatch on job.kind to the library verifiers, with
  /// `explore_threads` explorer workers and the standard static precheck
  /// when job.precheck is set.
  static Runner default_runner(int explore_threads);

  explicit JobScheduler(SchedulerOptions options, Runner runner = {});
  ~JobScheduler();  ///< shutdown(): cancels running jobs and joins

  JobScheduler(const JobScheduler&) = delete;
  JobScheduler& operator=(const JobScheduler&) = delete;

  /// Admits `job`; throws std::runtime_error when the queue is full or the
  /// scheduler is draining.
  Submitted submit(const VerifyJob& job);

  /// As submit(), but reports a full queue as .rejected instead of
  /// throwing.
  Submitted try_submit(const VerifyJob& job);

  /// Pure cache probe (no admission, no metrics beyond the probe).
  std::optional<Verdict> lookup(const JobKey& key) const;

  /// Status of a known key: in-flight state, recent uncacheable outcome, or
  /// stored verdict (from_cache says whether the latest submission computed
  /// it).  nullopt = never seen (or evicted).
  std::optional<JobStatus> poll(const JobKey& key) const;

  Metrics metrics() const;

  /// Stops admission, waits for the queue to empty and every running job
  /// to finish, joins the pool.  Idempotent.
  void drain();

  /// drain(), but first cancels queued and running jobs.  Idempotent.
  void shutdown();

 private:
  struct InFlight;
  /// Counters each worker publishes through worker_stats_ (wait-free; see
  /// wfregs/concurrent/snapshot.hpp) instead of mutating Metrics under mu_.
  static constexpr std::size_t kWorkerCounters = 13;
  /// `<storage.checkpoint_dir>/<job_key_hex(key)>`; empty when out-of-core
  /// checkpointing is off.
  std::string job_checkpoint_dir(const JobKey& key) const;
  void worker_main(std::size_t wid);
  void timer_main();
  Submitted admit(const VerifyJob& job, bool reject_when_full);
  void finish(const std::shared_ptr<InFlight>& job, Verdict verdict,
              JobState state, concurrent::StatsSnapshot::Writer& w);
  /// Appends to recent_; `verdict` == nullptr marks a verdict computed
  /// into the store.
  void remember_status(const JobKey& key, JobState state,
                       const Verdict* verdict,
                       concurrent::StatsSnapshot::Writer& w);

  SchedulerOptions options_;
  Runner runner_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;    ///< workers wait for queue items
  std::condition_variable drain_cv_;   ///< drain() waits for quiescence
  std::condition_variable timer_cv_;   ///< timer waits for next deadline
  bool stopping_ = false;              ///< no new admissions
  bool cancel_all_ = false;            ///< shutdown(): abandon the queue

  VerdictStore store_;
  std::deque<std::shared_ptr<InFlight>> queue_;
  /// Key -> queued/running job, the coalescing map.
  std::vector<std::shared_ptr<InFlight>> inflight_;
  /// Recently finished statuses, newest last (bounded by
  /// options_.status_history; evictions counted).  A stored entry keeps no
  /// verdict: poll() reads it from store_.
  struct Recent {
    JobKey key;
    JobStatus status;
    bool stored = false;
  };
  std::deque<Recent> recent_;

  /// Admission-side counters only (submitted / hits / misses / coalesced /
  /// rejected / lookup latency): inherently serialized under mu_ anyway, so
  /// they stay there.  Worker-side counters live in worker_stats_.
  Metrics metrics_;
  /// One wait-free writer slot per worker (completion / cancellation /
  /// failure / eviction counts and queue / run / append latencies);
  /// metrics() collects a consistent cut without touching mu_ or stalling
  /// any worker.
  concurrent::StatsSnapshot worker_stats_;
  /// Cumulative collect invalidations across metrics() calls (the
  /// Metrics::snapshot_retries source).
  mutable std::atomic<std::uint64_t> collect_retries_{0};
  std::vector<std::thread> workers_;
  std::thread timer_;
};

}  // namespace wfregs::service
