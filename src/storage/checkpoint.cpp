#include "wfregs/storage/checkpoint.hpp"

#include <cstring>
#include <filesystem>
#include <stdexcept>

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

// ---- little-endian payload serialization -----------------------------------

void put_u32(std::vector<std::uint8_t>& b, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) b.push_back((v >> (8 * k)) & 0xFF);
}
void put_u64(std::vector<std::uint8_t>& b, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) b.push_back((v >> (8 * k)) & 0xFF);
}
void put_i32(std::vector<std::uint8_t>& b, std::int32_t v) {
  put_u32(b, static_cast<std::uint32_t>(v));
}
void put_u64vec(std::vector<std::uint8_t>& b,
                const std::vector<std::uint64_t>& v) {
  put_u32(b, static_cast<std::uint32_t>(v.size()));
  for (const std::uint64_t w : v) put_u64(b, w);
}
void put_string(std::vector<std::uint8_t>& b, const std::string& s) {
  put_u32(b, static_cast<std::uint32_t>(s.size()));
  b.insert(b.end(), s.begin(), s.end());
}

/// Bounds-checked reader: every get_* returns false on underrun, and the
/// caller treats a malformed payload as an unusable snapshot (skipped, like
/// a torn record).
struct Reader {
  const std::uint8_t* p;
  std::size_t n;
  bool ok = true;

  bool take(std::size_t k) {
    if (!ok || n < k) {
      ok = false;
      return false;
    }
    return true;
  }
  std::uint32_t get_u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(p[k]) << (8 * k);
    p += 4;
    n -= 4;
    return v;
  }
  std::uint64_t get_u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(p[k]) << (8 * k);
    p += 8;
    n -= 8;
    return v;
  }
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::vector<std::uint64_t> get_u64vec() {
    std::vector<std::uint64_t> v;
    const std::uint32_t count = get_u32();
    if (!take(static_cast<std::size_t>(count) * 8)) return v;
    v.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k) v.push_back(get_u64());
    return v;
  }
  std::string get_string() {
    const std::uint32_t count = get_u32();
    if (!take(count)) return {};
    std::string s(reinterpret_cast<const char*>(p), count);
    p += count;
    n -= count;
    return s;
  }
};

std::vector<std::uint8_t> encode_snapshot(const FrontierSnapshot& s) {
  std::vector<std::uint8_t> b;
  put_u32(b, kSnapshotVersion);
  put_u64(b, s.fp_hi);
  put_u64(b, s.fp_lo);
  b.push_back(s.finished ? 1 : 0);
  b.push_back(s.wait_free ? 1 : 0);
  b.push_back(s.complete ? 1 : 0);
  b.push_back(s.has_violation ? 1 : 0);
  put_string(b, s.violation);
  put_u64(b, s.configs);
  put_u64(b, s.edges);
  put_u64(b, s.terminals);
  put_i32(b, s.depth);
  put_u32(b, s.interned);
  put_u32(b, static_cast<std::uint32_t>(s.frames.size()));
  for (const FrameSnap& f : s.frames) {
    put_u32(b, f.id);
    put_u32(b, f.step_idx);
    put_i32(b, f.choice);
    put_i32(b, f.depth_from);
    put_u64vec(b, f.acc_from);
    put_u64vec(b, f.inv_from);
  }
  put_u32(b, static_cast<std::uint32_t>(s.node_depth_from.size()));
  for (const std::int32_t d : s.node_depth_from) put_i32(b, d);
  put_u32(b, s.acc_len);
  put_u32(b, s.inv_len);
  put_u64vec(b, s.node_acc);
  put_u64vec(b, s.node_inv);
  put_u64vec(b, s.max_accesses);
  put_u32(b, static_cast<std::uint32_t>(s.max_accesses_by_inv.size()));
  for (const auto& v : s.max_accesses_by_inv) put_u64vec(b, v);
  return b;
}

std::optional<FrontierSnapshot> decode_snapshot(
    const std::vector<std::uint8_t>& payload) {
  Reader r{payload.data(), payload.size()};
  if (r.get_u32() != kSnapshotVersion) return std::nullopt;
  FrontierSnapshot s;
  s.fp_hi = r.get_u64();
  s.fp_lo = r.get_u64();
  if (!r.take(4)) return std::nullopt;
  s.finished = r.p[0] != 0;
  s.wait_free = r.p[1] != 0;
  s.complete = r.p[2] != 0;
  s.has_violation = r.p[3] != 0;
  r.p += 4;
  r.n -= 4;
  s.violation = r.get_string();
  s.configs = r.get_u64();
  s.edges = r.get_u64();
  s.terminals = r.get_u64();
  s.depth = r.get_i32();
  s.interned = r.get_u32();
  const std::uint32_t nframes = r.get_u32();
  if (!r.ok || nframes > (std::uint32_t{1} << 24)) return std::nullopt;
  s.frames.resize(nframes);
  for (FrameSnap& f : s.frames) {
    f.id = r.get_u32();
    f.step_idx = r.get_u32();
    f.choice = r.get_i32();
    f.depth_from = r.get_i32();
    f.acc_from = r.get_u64vec();
    f.inv_from = r.get_u64vec();
  }
  const std::uint32_t nnodes = r.get_u32();
  if (!r.ok || !r.take(static_cast<std::size_t>(nnodes) * 4)) {
    return std::nullopt;
  }
  s.node_depth_from.resize(nnodes);
  for (std::uint32_t k = 0; k < nnodes; ++k) {
    s.node_depth_from[k] = r.get_i32();
  }
  s.acc_len = r.get_u32();
  s.inv_len = r.get_u32();
  s.node_acc = r.get_u64vec();
  s.node_inv = r.get_u64vec();
  s.max_accesses = r.get_u64vec();
  const std::uint32_t nby = r.get_u32();
  if (!r.ok || nby > (std::uint32_t{1} << 24)) return std::nullopt;
  s.max_accesses_by_inv.resize(nby);
  for (auto& v : s.max_accesses_by_inv) v = r.get_u64vec();
  if (!r.ok) return std::nullopt;
  return s;
}

struct ParsedBatch {
  std::uint32_t base = 0;
  std::uint32_t count = 0;
  std::uint64_t end_offset = 0;
  std::vector<std::uint8_t> payload;  // kept encoded; decoded on feed
};

std::optional<ParsedBatch> parse_batch_header(const LogRecord& rec) {
  Reader r{rec.payload.data(), rec.payload.size()};
  ParsedBatch b;
  b.base = r.get_u32();
  b.count = r.get_u32();
  if (!r.ok) return std::nullopt;
  b.end_offset = rec.end_offset;
  return b;
}

/// Feeds the batch's keys through `cb`; false on a malformed payload.
bool feed_batch(const LogRecord& rec,
                const FrontierCheckpoint::KeyCallback& cb) {
  Reader r{rec.payload.data(), rec.payload.size()};
  const std::uint32_t base = r.get_u32();
  const std::uint32_t count = r.get_u32();
  std::vector<std::uint64_t> words;
  for (std::uint32_t k = 0; k < count; ++k) {
    const std::uint32_t parent = r.get_u32();
    words = r.get_u64vec();
    if (!r.ok) return false;
    cb(base + k, parent, words);
  }
  return r.ok;
}

}  // namespace

FrontierCheckpoint::FrontierCheckpoint(std::string dir)
    : dir_(std::move(dir)) {
  std::filesystem::create_directories(dir_);
}

FrontierCheckpoint::~FrontierCheckpoint() = default;

std::optional<FrontierSnapshot> FrontierCheckpoint::open(
    std::uint64_t fp_hi, std::uint64_t fp_lo, bool resume,
    const KeyCallback& key_cb) {
  // The writers validate the headers and truncate any torn tail; the reads
  // below then see only CRC-clean records.
  frontier_ = std::make_unique<RecordLogWriter>(frontier_path(dir_));
  arena_ = std::make_unique<RecordLogWriter>(arena_path(dir_));
  const LogContents fc = read_record_log(frontier_->path());
  const LogContents ac = read_record_log(arena_->path());

  // Index the arena batches: contiguous key coverage from id 0, and the
  // log offset at each batch boundary (snapshot boundaries align with batch
  // boundaries -- one batch is written per checkpoint).
  std::uint32_t keys_available = 0;
  std::vector<const LogRecord*> batches;
  std::vector<std::uint64_t> boundary_offset = {kRecordLogHeaderBytes};
  for (const LogRecord& rec : ac.records) {
    if (rec.tag != kTagKeyBatch) break;
    const auto b = parse_batch_header(rec);
    if (!b || b->base != keys_available) break;
    keys_available += b->count;
    batches.push_back(&rec);
    boundary_offset.push_back(rec.end_offset);
  }

  // Newest usable snapshot: fingerprint match, and every interned key
  // durable at a batch boundary.  A finished snapshot needs no keys.
  std::optional<FrontierSnapshot> chosen;
  std::uint64_t chosen_frontier_end = kRecordLogHeaderBytes;
  std::size_t chosen_batches = 0;
  if (resume) {
    for (const LogRecord& rec : fc.records) {
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
        covered += parse_batch_header(*batches[nbatches])->count;
        ++nbatches;
      }
      if (covered != snap->interned) continue;  // keys lost past this one
      chosen = std::move(snap);
      chosen_frontier_end = rec.end_offset;
      chosen_batches = nbatches;
    }
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
      put_u64vec(batch, words);
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
  const LogContents fc = read_record_log(frontier_path(dir));
  const LogContents ac = read_record_log(arena_path(dir));
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
