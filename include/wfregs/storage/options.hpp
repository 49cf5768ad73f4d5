// Out-of-core exploration options: the one knob block threaded from the CLI
// through VerifyOptions and ExploreOptions down to the storage-backed
// sequential explorer (src/runtime/explorer.cpp).
//
// Storage options are EXECUTION parameters, not job identity: like
// VerifyOptions::threads, they are never serialized into a job's canonical
// text, so the same JobKey may run in-core today and under a 64 MiB budget
// tomorrow and hit the same verdict cache entry.  This is load-bearing for
// resume: resubmitting a job under different storage settings must find the
// same checkpoint directory.
#pragma once

#include <cstddef>
#include <string>

namespace wfregs::storage {

struct StorageOptions {
  /// Memory budget for interned configuration storage, in bytes.  0 = no
  /// budget (nothing is evicted).  When positive, the explorer keeps at most
  /// this many bytes of arena segments resident and evicts the
  /// least-recently-used segments to their disk backing with
  /// madvise(MADV_DONTNEED).  Budgets below two arena segments are treated
  /// as two segments (the currently-written segment plus one being read can
  /// never be evicted).
  std::size_t memory_budget_bytes = 0;

  /// Directory for the arena's backing files.  Empty with a budget set: a
  /// private directory under the system temp dir is created and removed
  /// with the exploration.  Empty without a budget: the arena stays
  /// anonymous (plain mmap, no files, eviction disabled).
  std::string spill_dir;

  /// Size of one mmap'd arena segment.  Eviction granularity and the unit
  /// of residency accounting; must be a multiple of the page size.
  std::size_t arena_segment_bytes = std::size_t{1} << 20;

  /// Delta-chain length bound: a full keyframe is stored at least every
  /// this many parent links, so decoding any config replays at most this
  /// many deltas.
  std::size_t keyframe_interval = 32;

  /// Directory for crash-safe frontier checkpoints.  Empty = checkpointing
  /// (and resume) disabled.
  std::string checkpoint_dir;

  /// Write a checkpoint every this many newly interned configurations.
  std::size_t checkpoint_every_configs = 65536;

  /// When true (the default) and checkpoint_dir holds a compatible
  /// checkpoint, the exploration resumes from it instead of starting fresh.
  /// Fingerprint mismatches (different root / reduction / tracking /
  /// max_depth) always start fresh.
  bool resume = true;

  /// Optional directory whose checkpoint state seeds checkpoint_dir before
  /// opening (frontier.log / arena.log are copied in, overwriting).  The
  /// run itself always checkpoints into checkpoint_dir; resume_from is a
  /// read-only source, useful for resuming from a snapshotted copy.
  std::string resume_from;

  /// True when any storage machinery is requested; the explorers dispatch
  /// to the out-of-core engine iff this holds.
  bool enabled() const {
    return memory_budget_bytes != 0 || !spill_dir.empty() ||
           !checkpoint_dir.empty();
  }
};

}  // namespace wfregs::storage
