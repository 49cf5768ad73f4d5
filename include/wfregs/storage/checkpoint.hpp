// FrontierCheckpoint: crash-safe snapshots of an exploration's frontier and
// interner manifest, written to two RecordLogs (record_log.hpp -- the same
// CRC'd append-only log the VerdictStore uses, with torn-tail truncation on
// open) under the file magic "WFRLOG01".  Payloads are encoded with the
// shared byte codec (bytes.hpp); a malformed one is an unusable snapshot.
//
// A checkpoint directory holds two logs:
//
//   * arena.log    -- key batches: each record carries the configurations
//     interned since the previous checkpoint as (parent id, words) in id
//     order, so replaying the batches rebuilds the interner manifest (and
//     the delta codec re-compresses on the fly);
//   * frontier.log -- snapshot records: exploration counters, the DFS stack
//     (each frame's interned id, enumeration position and partial DP
//     state), and the per-node DP table, all bound to a fingerprint of the
//     root configuration + exploration shape.
//
// WRITE ORDER INVARIANT: the key batch is appended and fdatasync'd BEFORE
// the snapshot that references it.  A crash can therefore leave (a) a torn
// batch -- dropped by CRC replay, losing only the snapshot that was never
// written; or (b) a batch without its snapshot -- truncated away on open.
// Every surviving snapshot has its full key prefix on disk, and open()
// resumes from the newest one, truncating both logs to its boundary so the
// exploration continues as if the crash never happened.  Final snapshots
// (finished = true) compact the directory to a single record embedding the
// complete outcome, which lets re-runs and resubmissions short-circuit.
//
// The snapshot fingerprint covers the root key, access-bounds tracking and
// max_depth -- NOT max_configs or the cancel flag, so a run interrupted by a
// budget or deadline resumes under a new budget.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wfregs/storage/record_log.hpp"

namespace wfregs::storage {

/// The file magic of both checkpoint logs.
inline constexpr LogMagic kCheckpointLogMagic = {'W', 'F', 'R', 'L',
                                                 'O', 'G', '0', '1'};

/// One suspended DFS frame: the node's interned id, where its child
/// enumeration stands (steps[step_idx], nondeterministic choice `choice`),
/// and the partial longest-path DP accumulated from the children already
/// explored.
struct FrameSnap {
  std::uint32_t id = 0;
  std::uint32_t step_idx = 0;
  std::int32_t choice = 0;
  std::int32_t depth_from = 0;
  std::vector<std::uint64_t> acc_from;
  std::vector<std::uint64_t> inv_from;
};

struct FrontierSnapshot {
  std::uint64_t fp_hi = 0;
  std::uint64_t fp_lo = 0;
  bool finished = false;
  bool wait_free = true;
  bool complete = true;
  bool has_violation = false;
  std::string violation;
  std::uint64_t configs = 0;
  std::uint64_t edges = 0;
  std::uint64_t terminals = 0;
  std::int32_t depth = 0;  ///< meaningful on finished snapshots only
  std::uint32_t interned = 0;
  /// DFS stack, root first.  Empty on finished snapshots.
  std::vector<FrameSnap> frames;
  /// Per-node DP (indexed by interned id; entries of on-path ids -- the
  /// frame ids -- are placeholders).  node_acc/node_inv are flattened
  /// interned x acc_len / interned x inv_len, empty when not tracking.
  std::vector<std::int32_t> node_depth_from;
  std::uint32_t acc_len = 0;
  std::uint32_t inv_len = 0;
  std::vector<std::uint64_t> node_acc;
  std::vector<std::uint64_t> node_inv;
  /// Finished-snapshot outcome extras.
  std::vector<std::uint64_t> max_accesses;
  std::vector<std::vector<std::uint64_t>> max_accesses_by_inv;
};

/// What `wfregs_cli checkpoint-info` prints.
struct CheckpointInfo {
  bool present = false;
  bool finished = false;
  std::uint64_t fp_hi = 0;
  std::uint64_t fp_lo = 0;
  std::uint64_t configs = 0;
  std::uint64_t edges = 0;
  std::uint64_t terminals = 0;
  std::uint32_t interned = 0;
  std::uint32_t frames = 0;
  std::uint32_t snapshots = 0;  ///< snapshot records on disk
  std::uint64_t frontier_bytes = 0;
  std::uint64_t arena_bytes = 0;
  std::uint64_t dropped_bytes = 0;  ///< torn-tail bytes across both logs
};

class FrontierCheckpoint {
 public:
  /// Creates `dir` when missing.  No file is touched until open().
  explicit FrontierCheckpoint(std::string dir);
  ~FrontierCheckpoint();

  /// Receives one interned key during resume, in id order.
  using KeyCallback = std::function<void(
      std::uint32_t id, std::uint32_t parent,
      std::span<const std::uint64_t> words)>;

  /// Provides key `id` during a checkpoint write: fill `parent` and `words`
  /// with the id's parent and decoded key.
  using KeySource = std::function<void(std::uint32_t id, std::uint32_t* parent,
                                       std::vector<std::uint64_t>* words)>;

  /// Opens (and heals) both logs, reading each once.  When the newest
  /// usable snapshot matches the fingerprint, feeds its interned keys
  /// through `key_cb` in id order, truncates both logs to that snapshot's
  /// boundary and returns it (finished snapshots return immediately with no
  /// keys fed -- the stored outcome stands on its own).  Otherwise both
  /// logs are reset empty and nullopt is returned.
  std::optional<FrontierSnapshot> open(std::uint64_t fp_hi,
                                       std::uint64_t fp_lo,
                                       const KeyCallback& key_cb);

  /// Durably appends the keys [keys_on_disk, snap.interned) -- pulled from
  /// `src` -- as one batch, then the snapshot record (see the write-order
  /// invariant above).
  void write_snapshot(const FrontierSnapshot& snap, const KeySource& src);

  /// Compacts the directory to this finished snapshot alone.
  void write_final(const FrontierSnapshot& snap);

  /// Keys already durable in arena.log (resume sets this to the restored
  /// snapshot's interned count).
  std::uint32_t keys_on_disk() const { return keys_on_disk_; }

  const std::string& dir() const { return dir_; }

  /// Inspects a checkpoint directory without mutating it.
  static CheckpointInfo info(const std::string& dir);

 private:
  std::string dir_;
  std::unique_ptr<RecordLog> frontier_;
  std::unique_ptr<RecordLog> arena_;
  std::uint32_t keys_on_disk_ = 0;
};

}  // namespace wfregs::storage
