// Service metrics: a plain snapshot struct dumpable as JSON.  The
// scheduler fills the admission-side counters under its lock and collects
// the worker-side counters from its wait-free StatsSnapshot aggregator
// (wfregs/concurrent/snapshot.hpp).  This is the daemon's `stats` response
// and the E13 bench's hit/miss counter source.
#pragma once

#include <cstdint>
#include <string>

namespace wfregs::service {

struct Metrics {
  // Counters (monotone over the scheduler's lifetime).
  std::uint64_t submitted = 0;      ///< submit() calls accepted
  std::uint64_t cache_hits = 0;     ///< answered from the verdict store
  std::uint64_t cache_misses = 0;   ///< scheduled for computation
  std::uint64_t coalesced = 0;      ///< joined an identical in-flight job
  std::uint64_t rejected = 0;       ///< bounced off the full queue
  std::uint64_t completed = 0;      ///< verdicts computed to completion
  std::uint64_t static_decisions = 0;  ///< verdicts decided by the certified
                                       ///< static fast-path (no exploration)
  std::uint64_t cancelled = 0;      ///< deadline / shutdown cancellations
  std::uint64_t failed = 0;         ///< runner raised an exception
  std::uint64_t evictions = 0;      ///< finished-job entries aged out of the
                                    ///< in-memory status table
  std::uint64_t resumed_jobs = 0;   ///< computed verdicts that resumed from
                                    ///< an out-of-core checkpoint
  std::uint64_t partial_checkpoints = 0;  ///< cancelled jobs that left a
                                          ///< resumable checkpoint behind
                                          ///< (Provenance::kPartial)
  // Gauges (instantaneous).
  std::uint64_t queue_depth = 0;    ///< jobs waiting for a worker
  std::uint64_t in_flight = 0;      ///< jobs currently running
  std::uint64_t store_records = 0;  ///< distinct verdicts in the store
  std::uint64_t store_bytes = 0;    ///< on-disk log size

  // Per-stage latency: totals in nanoseconds plus sample counts, so
  // consumers can form means without the scheduler guessing at quantiles.
  std::uint64_t lookup_ns_total = 0;  ///< submit-time store probes
  std::uint64_t lookup_count = 0;
  std::uint64_t queue_ns_total = 0;   ///< submit -> worker pickup
  std::uint64_t queue_count = 0;
  std::uint64_t run_ns_total = 0;     ///< worker pickup -> verdict
  std::uint64_t run_count = 0;
  std::uint64_t append_ns_total = 0;  ///< store append
  std::uint64_t append_count = 0;

  /// Snapshot collects invalidated by a concurrent worker publication while
  /// assembling this (or an earlier) metrics() reply -- the scheduler's
  /// live-read contention signal from the wait-free aggregator.
  std::uint64_t snapshot_retries = 0;
};

/// One JSON object with every field above.
std::string metrics_to_json(const Metrics& m);

}  // namespace wfregs::service
