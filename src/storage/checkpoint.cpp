#include "wfregs/storage/checkpoint.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "wfregs/storage/bytes.hpp"

namespace wfregs::storage {

namespace {

constexpr std::uint32_t kTagSnapshot = 1;
constexpr std::uint32_t kTagKeyBatch = 2;
// 2: key batches hold byte-packed configuration keys (engine.hpp).
// 3: frames no longer carry a sleep mask (sleep sets are gone).  A snapshot
// of any other version is ignored, so the run starts from the root.
constexpr std::uint32_t kSnapshotVersion = 3;

const char* kFrontierName = "frontier.log";
const char* kArenaName = "arena.log";

std::string frontier_path(const std::string& dir) {
  return (std::filesystem::path(dir) / kFrontierName).string();
}
std::string arena_path(const std::string& dir) {
  return (std::filesystem::path(dir) / kArenaName).string();
}

std::vector<std::uint8_t> encode_snapshot(const FrontierSnapshot& s) {
  std::vector<std::uint8_t> b;
  put_u32(b, kSnapshotVersion);
  put_u64(b, s.fp_hi);
  put_u64(b, s.fp_lo);
  put_u8(b, s.finished ? 1 : 0);
  put_u8(b, s.wait_free ? 1 : 0);
  put_u8(b, s.complete ? 1 : 0);
  put_u8(b, s.has_violation ? 1 : 0);
  put_bytes(b, s.violation);
  put_u64(b, s.configs);
  put_u64(b, s.edges);
  put_u64(b, s.terminals);
  put_u32(b, static_cast<std::uint32_t>(s.depth));
  put_u32(b, s.interned);
  put_u32(b, static_cast<std::uint32_t>(s.frames.size()));
  for (const FrameSnap& f : s.frames) {
    put_u32(b, f.id);
    put_u32(b, f.step_idx);
    put_u32(b, static_cast<std::uint32_t>(f.choice));
    put_u32(b, static_cast<std::uint32_t>(f.depth_from));
    put_u64s(b, f.acc_from);
    put_u64s(b, f.inv_from);
  }
  put_u32(b, static_cast<std::uint32_t>(s.node_depth_from.size()));
  for (const std::int32_t d : s.node_depth_from) {
    put_u32(b, static_cast<std::uint32_t>(d));
  }
  put_u32(b, s.acc_len);
  put_u32(b, s.inv_len);
  put_u64s(b, s.node_acc);
  put_u64s(b, s.node_inv);
  put_u64s(b, s.max_accesses);
  put_u32(b, static_cast<std::uint32_t>(s.max_accesses_by_inv.size()));
  for (const auto& v : s.max_accesses_by_inv) put_u64s(b, v);
  return b;
}

/// A frame takes at least its four u32 fields and two empty vectors.
constexpr std::size_t kMinFrameBytes = 6 * 4;

/// Decodes a snapshot record; a malformed payload is an unusable snapshot
/// (nullopt, skipped like a torn record).
std::optional<FrontierSnapshot> decode_snapshot(
    const std::vector<std::uint8_t>& payload) try {
  ByteReader r(payload.data(), payload.size(), "checkpoint snapshot");
  if (r.u32() != kSnapshotVersion) return std::nullopt;
  FrontierSnapshot s;
  s.fp_hi = r.u64();
  s.fp_lo = r.u64();
  s.finished = r.u8() != 0;
  s.wait_free = r.u8() != 0;
  s.complete = r.u8() != 0;
  s.has_violation = r.u8() != 0;
  s.violation = r.string();
  s.configs = r.u64();
  s.edges = r.u64();
  s.terminals = r.u64();
  s.depth = static_cast<std::int32_t>(r.u32());
  s.interned = r.u32();
  s.frames.resize(r.count(kMinFrameBytes));
  for (FrameSnap& f : s.frames) {
    f.id = r.u32();
    f.step_idx = r.u32();
    f.choice = static_cast<std::int32_t>(r.u32());
    f.depth_from = static_cast<std::int32_t>(r.u32());
    f.acc_from = r.u64s();
    f.inv_from = r.u64s();
  }
  s.node_depth_from.resize(r.count(4));
  for (std::int32_t& d : s.node_depth_from) {
    d = static_cast<std::int32_t>(r.u32());
  }
  s.acc_len = r.u32();
  s.inv_len = r.u32();
  s.node_acc = r.u64s();
  s.node_inv = r.u64s();
  s.max_accesses = r.u64s();
  s.max_accesses_by_inv.resize(r.count(4));
  for (auto& v : s.max_accesses_by_inv) v = r.u64s();
  return s;
} catch (const DecodeError&) {
  return std::nullopt;
}

/// A key batch's (base id, key count); nullopt when malformed.
std::optional<std::pair<std::uint32_t, std::uint32_t>> batch_range(
    const LogRecord& rec) try {
  ByteReader r(rec.payload.data(), rec.payload.size(), "checkpoint batch");
  const std::uint32_t base = r.u32();
  return std::pair{base, r.u32()};
} catch (const DecodeError&) {
  return std::nullopt;
}

/// Feeds the batch's keys through `cb`; false on a malformed payload.  The
/// callback's own errors propagate.
bool feed_batch(const LogRecord& rec,
                const FrontierCheckpoint::KeyCallback& cb) try {
  ByteReader r(rec.payload.data(), rec.payload.size(), "checkpoint batch");
  const std::uint32_t base = r.u32();
  const std::uint32_t count = r.u32();
  std::vector<std::uint64_t> words;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t parent = r.u32();
    words = r.u64s();
    cb(base + k, parent, words);
  }
  return true;
} catch (const DecodeError&) {
  return false;
}

}  // namespace

FrontierCheckpoint::FrontierCheckpoint(std::string dir)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

FrontierCheckpoint::~FrontierCheckpoint() = default;

std::optional<FrontierSnapshot> FrontierCheckpoint::open(
    std::uint64_t fp_hi, std::uint64_t fp_lo, const KeyCallback& key_cb) {
  // Opening replays each log once, truncates any torn tail and hands over
  // the CRC-clean records.
  frontier_ = std::make_unique<RecordLog>(frontier_path(dir_),
                                          kCheckpointLogMagic);
  arena_ = std::make_unique<RecordLog>(arena_path(dir_), kCheckpointLogMagic);
  const std::vector<LogRecord> snapshots = frontier_->take_records();
  const std::vector<LogRecord> batches_on_disk = arena_->take_records();

  // Index the arena batches: contiguous key coverage from id 0, and the
  // log offset at each batch boundary (snapshot boundaries align with batch
  // boundaries -- one batch is written per checkpoint).
  std::uint32_t keys_available = 0;
  std::vector<const LogRecord*> batches;
  std::vector<std::uint64_t> boundary_offset = {kRecordLogHeaderBytes};
  for (const LogRecord& rec : batches_on_disk) {
    if (rec.tag != kTagKeyBatch) break;
    const auto range = batch_range(rec);
    if (!range || range->first != keys_available) break;
    keys_available += range->second;
    batches.push_back(&rec);
    boundary_offset.push_back(rec.end_offset);
  }

  // Newest usable snapshot: fingerprint match, and every interned key
  // durable at a batch boundary.  A finished snapshot needs no keys.
  std::optional<FrontierSnapshot> chosen;
  std::uint64_t chosen_frontier_end = kRecordLogHeaderBytes;
  std::size_t chosen_batches = 0;
  for (const LogRecord& rec : snapshots) {
    if (rec.tag != kTagSnapshot) continue;
    auto snap = decode_snapshot(rec.payload);
    if (!snap || snap->fp_hi != fp_hi || snap->fp_lo != fp_lo) continue;
    if (snap->finished) {
      chosen = std::move(snap);
      return chosen;  // outcome stands on its own; logs untouched
    }
    std::uint32_t covered = 0;
    std::size_t nbatches = 0;
    while (nbatches < batches.size() && covered < snap->interned) {
      covered += batch_range(*batches[nbatches])->second;
      ++nbatches;
    }
    if (covered != snap->interned) continue;  // keys lost past this one
    chosen = std::move(snap);
    chosen_frontier_end = rec.end_offset;
    chosen_batches = nbatches;
  }

  if (!chosen) {
    frontier_->truncate_to(kRecordLogHeaderBytes);
    arena_->truncate_to(kRecordLogHeaderBytes);
    keys_on_disk_ = 0;
    return std::nullopt;
  }

  for (std::size_t k = 0; k < chosen_batches; ++k) {
    if (!feed_batch(*batches[k], key_cb)) {
      // CRC said clean but the payload shape is wrong: corrupt beyond
      // recovery -- start fresh rather than resume from garbage.
      frontier_->truncate_to(kRecordLogHeaderBytes);
      arena_->truncate_to(kRecordLogHeaderBytes);
      keys_on_disk_ = 0;
      return std::nullopt;
    }
  }
  frontier_->truncate_to(chosen_frontier_end);
  arena_->truncate_to(boundary_offset[chosen_batches]);
  keys_on_disk_ = chosen->interned;
  return chosen;
}

void FrontierCheckpoint::write_snapshot(const FrontierSnapshot& snap,
                                        const KeySource& src) {
  if (!frontier_ || !arena_) {
    throw std::runtime_error("FrontierCheckpoint: write before open");
  }
  if (snap.interned > keys_on_disk_) {
    std::vector<std::uint8_t> batch;
    put_u32(batch, keys_on_disk_);
    put_u32(batch, snap.interned - keys_on_disk_);
    std::uint32_t parent = 0;
    std::vector<std::uint64_t> words;
    for (std::uint32_t id = keys_on_disk_; id < snap.interned; ++id) {
      src(id, &parent, &words);
      put_u32(batch, parent);
      put_u64s(batch, words);
    }
    arena_->append(kTagKeyBatch, batch.data(), batch.size());
    arena_->sync();  // keys durable BEFORE the snapshot referencing them
    keys_on_disk_ = snap.interned;
  }
  const std::vector<std::uint8_t> payload = encode_snapshot(snap);
  frontier_->append(kTagSnapshot, payload.data(), payload.size());
  frontier_->sync();
}

void FrontierCheckpoint::write_final(const FrontierSnapshot& snap) {
  if (!frontier_ || !arena_) {
    throw std::runtime_error("FrontierCheckpoint: write before open");
  }
  // The finished record embeds the whole outcome; the manifest and the
  // snapshot history have nothing left to add, so compact them away.
  arena_->truncate_to(kRecordLogHeaderBytes);
  frontier_->truncate_to(kRecordLogHeaderBytes);
  keys_on_disk_ = 0;
  const std::vector<std::uint8_t> payload = encode_snapshot(snap);
  frontier_->append(kTagSnapshot, payload.data(), payload.size());
  frontier_->sync();
}

CheckpointInfo FrontierCheckpoint::info(const std::string& dir) {
  CheckpointInfo out;
  const LogContents fc =
      read_record_log(frontier_path(dir), kCheckpointLogMagic);
  const LogContents ac = read_record_log(arena_path(dir), kCheckpointLogMagic);
  out.frontier_bytes = fc.file_bytes;
  out.arena_bytes = ac.file_bytes;
  out.dropped_bytes = fc.dropped_bytes + ac.dropped_bytes;
  if (!fc.present) return out;
  for (const LogRecord& rec : fc.records) {
    if (rec.tag != kTagSnapshot) continue;
    auto snap = decode_snapshot(rec.payload);
    if (!snap) continue;
    ++out.snapshots;
    out.present = true;
    out.finished = snap->finished;
    out.fp_hi = snap->fp_hi;
    out.fp_lo = snap->fp_lo;
    out.configs = snap->configs;
    out.edges = snap->edges;
    out.terminals = snap->terminals;
    out.interned = snap->interned;
    out.frames = static_cast<std::uint32_t>(snap->frames.size());
  }
  return out;
}

}  // namespace wfregs::storage
