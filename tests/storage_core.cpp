// Unit tests for the storage layer's building blocks: record logs (CRC'd
// append-only files with torn-tail truncation, byte-granular), the
// SpillArena (budget-driven eviction must never corrupt appended data), the
// DeltaCodec (round-trip under bounded parent chains) and the OocInterner
// (ConfigInterner's find/intern contract over spilled storage).
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "wfregs/runtime/config_intern.hpp"
#include "wfregs/storage/checkpoint.hpp"
#include "wfregs/storage/delta_codec.hpp"
#include "wfregs/storage/ooc_interner.hpp"
#include "wfregs/storage/record_log.hpp"
#include "wfregs/storage/spill_arena.hpp"

namespace wfregs::storage {
namespace {

namespace fs = std::filesystem;

/// Unique scratch directory per test, removed on destruction.
struct TempDir {
  fs::path path;
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("wfregs-storage-test-") + info->test_suite_name() +
            "-" + info->name() + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const std::string& name) const {
    return (path / name).string();
  }
};

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(Crc32, KnownVector) {
  // The standard CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const std::string msg = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(msg.data()),
                  msg.size()),
            0xCBF43926u);
}

TEST(RecordLog, RoundTrip) {
  TempDir tmp;
  const std::string path = tmp.file("log");
  {
    RecordLog w(path, kCheckpointLogMagic);
    const auto a = bytes_of("alpha");
    const auto b = bytes_of("");
    const auto c = bytes_of(std::string(3000, 'x'));
    w.append(1, a.data(), a.size());
    w.append(7, b.data(), b.size());
    w.append(2, c.data(), c.size());
    w.sync();
  }
  const LogContents log = read_record_log(path, kCheckpointLogMagic);
  ASSERT_TRUE(log.present);
  ASSERT_EQ(log.records.size(), 3u);
  EXPECT_EQ(log.records[0].tag, 1u);
  EXPECT_EQ(log.records[0].payload, bytes_of("alpha"));
  EXPECT_EQ(log.records[1].tag, 7u);
  EXPECT_TRUE(log.records[1].payload.empty());
  EXPECT_EQ(log.records[2].payload.size(), 3000u);
  EXPECT_EQ(log.dropped_bytes, 0u);
  EXPECT_EQ(log.records[2].end_offset, log.file_bytes);
}

TEST(RecordLog, MissingAndHeaderless) {
  TempDir tmp;
  EXPECT_FALSE(read_record_log(tmp.file("nope"), kCheckpointLogMagic).present);
  std::ofstream(tmp.file("junk")) << "not a log";
  const LogContents junk =
      read_record_log(tmp.file("junk"), kCheckpointLogMagic);
  EXPECT_FALSE(junk.present);
  EXPECT_EQ(junk.file_bytes, 9u);
}

TEST(RecordLog, TornTailTruncationAtEveryByte) {
  // Two good records followed by a third; truncating the file anywhere
  // strictly inside the third record must recover exactly the first two,
  // and reopening a writer must heal the file to that boundary.
  TempDir tmp;
  const std::string path = tmp.file("log");
  std::uint64_t two_records_end = 0;
  {
    RecordLog w(path, kCheckpointLogMagic);
    const auto a = bytes_of("first");
    const auto b = bytes_of("second-record");
    const auto c = bytes_of("third, to be torn");
    w.append(1, a.data(), a.size());
    w.append(2, b.data(), b.size());
    two_records_end = w.file_bytes();
    w.append(3, c.data(), c.size());
  }
  const std::uint64_t full = fs::file_size(path);
  std::vector<char> image(full);
  std::ifstream(path, std::ios::binary).read(image.data(), image.size());
  for (std::uint64_t cut = two_records_end + 1; cut < full; ++cut) {
    const std::string torn = tmp.file("torn");
    std::ofstream(torn, std::ios::binary)
        .write(image.data(), static_cast<std::streamsize>(cut));
    const LogContents log = read_record_log(torn, kCheckpointLogMagic);
    ASSERT_TRUE(log.present) << "cut at " << cut;
    ASSERT_EQ(log.records.size(), 2u) << "cut at " << cut;
    EXPECT_EQ(log.dropped_bytes, cut - two_records_end) << "cut at " << cut;
    RecordLog heal(torn, kCheckpointLogMagic);
    EXPECT_EQ(heal.file_bytes(), two_records_end) << "cut at " << cut;
  }
}

TEST(RecordLog, CorruptPayloadDropsTail) {
  TempDir tmp;
  const std::string path = tmp.file("log");
  {
    RecordLog w(path, kCheckpointLogMagic);
    const auto a = bytes_of("kept");
    const auto b = bytes_of("to-be-corrupted");
    w.append(1, a.data(), a.size());
    w.append(2, b.data(), b.size());
  }
  // Flip one byte inside the LAST record's payload: CRC fails, the record
  // and everything after it is dropped, the first record survives.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-3, std::ios::end);
  f.put('!');
  f.close();
  const LogContents log = read_record_log(path, kCheckpointLogMagic);
  ASSERT_TRUE(log.present);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].payload, bytes_of("kept"));
  EXPECT_GT(log.dropped_bytes, 0u);
}

TEST(RecordLog, TruncateToClearsAndRepositions) {
  TempDir tmp;
  const std::string path = tmp.file("log");
  RecordLog w(path, kCheckpointLogMagic);
  const auto a = bytes_of("payload");
  w.append(1, a.data(), a.size());
  w.truncate_to(kRecordLogHeaderBytes);
  w.append(9, a.data(), a.size());
  w.sync();
  const LogContents log = read_record_log(path, kCheckpointLogMagic);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].tag, 9u);
}

TEST(RecordLog, ReadAtRechecksTheRecordAndAForeignMagicIsRefused) {
  TempDir tmp;
  const std::string path = tmp.file("log");
  const auto a = bytes_of("first");
  const auto b = bytes_of("second");
  {
    RecordLog w(path, kCheckpointLogMagic);
    EXPECT_EQ(w.append(1, a.data(), a.size()), kRecordLogHeaderBytes);
    const std::uint64_t at_b = w.append(2, b.data(), b.size());
    EXPECT_EQ(at_b, kRecordLogHeaderBytes + kRecordFrameBytes + a.size());
    EXPECT_EQ(w.read_at(at_b, 2, 6), b);
    EXPECT_FALSE(w.read_at(at_b, 1, 6).has_value());  // another tag
    EXPECT_FALSE(w.read_at(at_b, 2, 5).has_value());  // another length
    EXPECT_FALSE(w.read_at(at_b - 1, 2, 6).has_value());  // no record there
    EXPECT_THROW(w.read_at(at_b, 2, 4096), std::runtime_error);  // past end
  }
  // A log of another kind is refused and left byte for byte as it was.
  const auto image = [&] {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>{std::istreambuf_iterator<char>(in), {}};
  };
  const std::vector<char> before = image();
  const LogMagic other = {'O', 'T', 'H', 'E', 'R', 'L', 'O', 'G'};
  EXPECT_THROW(RecordLog(path, other), std::runtime_error);
  EXPECT_FALSE(read_record_log(path, other).present);
  EXPECT_EQ(image(), before);
  // An empty path is an anonymous log with the same read-back check.
  RecordLog anonymous("", kCheckpointLogMagic);
  const std::uint64_t at = anonymous.append(3, a.data(), a.size());
  EXPECT_EQ(anonymous.read_at(at, 3, 5), a);
}

TEST(SpillArena, EvictionPreservesData) {
  // Budget of 2 pages, many pages of appended runs: every append past the
  // budget evicts, every historical view refaults, and the words read back
  // must be exactly the words written.
  TempDir tmp;
  SpillArena::Options opt;
  opt.segment_bytes = 4096;
  opt.budget_bytes = 2 * 4096;
  opt.dir = tmp.file("arena");
  SpillArena arena(opt);
  std::mt19937_64 rng(42);
  std::vector<std::vector<std::uint64_t>> runs;
  std::vector<std::uint64_t> handles;
  for (int k = 0; k < 400; ++k) {
    std::vector<std::uint64_t> run(1 + rng() % 100);
    for (auto& w : run) w = rng();
    handles.push_back(arena.append(run));
    runs.push_back(std::move(run));
  }
  EXPECT_GT(arena.stats().segments, 4u);
  EXPECT_GT(arena.stats().evictions, 0u);
  EXPECT_LE(arena.stats().resident_bytes, opt.budget_bytes);
  // Read back in a hostile order (repeatedly jumping across segments).
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < runs.size(); ++k) {
      const std::size_t idx =
          (pass == 0) ? runs.size() - 1 - k : (k * 7919) % runs.size();
      const auto view = arena.view(handles[idx], runs[idx].size());
      ASSERT_TRUE(std::equal(view.begin(), view.end(), runs[idx].begin()))
          << "run " << idx << " pass " << pass;
    }
  }
  EXPECT_GT(arena.stats().refaults, 0u);
  const ArenaGlobalStats global = arena_global_stats();
  EXPECT_GE(global.evictions, arena.stats().evictions);
  EXPECT_GE(global.total_bytes, arena.stats().total_bytes);
}

TEST(SpillArena, AnonymousModeNeverEvicts) {
  SpillArena::Options opt;  // no dir, no budget
  opt.segment_bytes = 4096;
  SpillArena arena(opt);
  std::vector<std::uint64_t> run(100, 0xabcdefull);
  std::vector<std::uint64_t> handles;
  for (int k = 0; k < 50; ++k) handles.push_back(arena.append(run));
  EXPECT_EQ(arena.stats().evictions, 0u);
  for (const auto h : handles) {
    const auto view = arena.view(h, run.size());
    EXPECT_EQ(view[0], 0xabcdefull);
  }
}

TEST(SpillArena, RunLargerThanSegmentThrows) {
  SpillArena::Options opt;
  opt.segment_bytes = 4096;
  SpillArena arena(opt);
  const std::vector<std::uint64_t> run(4096 / 8 + 1, 1);
  EXPECT_THROW(arena.append(run), std::runtime_error);
}

TEST(DeltaCodec, RoundTripWithBoundedChains) {
  SpillArena arena({});
  const std::size_t interval = 8;
  DeltaCodec codec(&arena, interval);
  std::mt19937_64 rng(7);
  // A chain of 200 keys, each differing from its parent in 1-3 words out of
  // 40: deltas everywhere except the periodic keyframes.
  std::vector<std::vector<std::uint64_t>> keys;
  keys.emplace_back(40);
  for (auto& w : keys.back()) w = rng();
  ASSERT_EQ(codec.append(keys[0], DeltaCodec::kNoParent, {}), 0u);
  for (std::uint32_t k = 1; k < 200; ++k) {
    std::vector<std::uint64_t> next = keys[k - 1];
    const int changes = 1 + static_cast<int>(rng() % 3);
    for (int c = 0; c < changes; ++c) next[rng() % next.size()] = rng();
    ASSERT_EQ(codec.append(next, k - 1, keys[k - 1]), k);
    keys.push_back(std::move(next));
  }
  for (std::uint32_t k = 0; k < 200; ++k) {
    std::vector<std::uint64_t> got;
    codec.decode_into(k, got);
    ASSERT_EQ(got, keys[k]) << "id " << k;
  }
  EXPECT_GT(codec.deltas(), codec.keyframes());
  EXPECT_LT(codec.encoded_words(), codec.raw_words());
  // The interval bounds every chain: at least ceil(200/interval) keyframes.
  EXPECT_GE(codec.keyframes(), 200 / interval);
}

TEST(DeltaCodec, KeyframeWhenShapeChangesOrDeltaTooBig) {
  SpillArena arena({});
  DeltaCodec codec(&arena, 32);
  const std::vector<std::uint64_t> a(10, 1);
  std::vector<std::uint64_t> b(12, 2);   // different length: keyframe
  std::vector<std::uint64_t> c(12, 3);   // every word differs: keyframe
  codec.append(a, DeltaCodec::kNoParent, {});
  codec.append(b, 0, a);
  codec.append(c, 1, b);
  EXPECT_EQ(codec.keyframes(), 3u);
  std::vector<std::uint64_t> got;
  codec.decode_into(2, got);
  EXPECT_EQ(got, c);
}

TEST(DeltaCodec, DecodesParentWhenCallerLacksWords) {
  SpillArena arena({});
  DeltaCodec codec(&arena, 32);
  std::vector<std::uint64_t> a(10, 1);
  std::vector<std::uint64_t> b = a;
  b[3] = 99;
  codec.append(a, DeltaCodec::kNoParent, {});
  codec.append(b, 0, {});  // parent words not supplied: codec decodes id 0
  std::vector<std::uint64_t> got;
  codec.decode_into(1, got);
  EXPECT_EQ(got, b);
}

TEST(OocInterner, FindInternContract) {
  // Differential against a plain map: dense ids in insertion order,
  // find-after-intern hits, re-intern returns the original id.
  TempDir tmp;
  SpillArena::Options opt;
  opt.segment_bytes = 4096;
  opt.budget_bytes = 2 * 4096;
  opt.dir = tmp.file("arena");
  SpillArena arena(opt);
  OocInterner interner(&arena, 8);
  std::mt19937_64 rng(11);
  std::vector<std::vector<std::uint64_t>> keys;
  std::vector<std::uint64_t> cur(20);
  for (auto& w : cur) w = rng();
  for (std::uint32_t k = 0; k < 2000; ++k) {
    keys.push_back(cur);
    const std::uint64_t h = config_hash_words(cur);
    EXPECT_EQ(interner.find(cur, h), OocInterner::kNotFound);
    const std::uint32_t parent = k == 0 ? DeltaCodec::kNoParent : k - 1;
    EXPECT_EQ(interner.intern(cur, h, parent,
                              k == 0 ? std::span<const std::uint64_t>{}
                                     : std::span<const std::uint64_t>(
                                           keys[k - 1])),
              k);
    cur[rng() % cur.size()] = rng();
  }
  ASSERT_EQ(interner.size(), 2000u);
  for (std::uint32_t k = 0; k < 2000; ++k) {
    const std::uint64_t h = config_hash_words(keys[k]);
    EXPECT_EQ(interner.find(keys[k], h), k);
    EXPECT_EQ(interner.intern(keys[k], h, DeltaCodec::kNoParent, {}), k);
  }
  EXPECT_EQ(interner.size(), 2000u);
  EXPECT_GT(arena.stats().evictions, 0u);
}

TEST(FrontierCheckpoint, WriteOpenRoundTrip) {
  TempDir tmp;
  const std::string dir = tmp.file("ckpt");
  FrontierSnapshot snap;
  snap.fp_hi = 0x1111;
  snap.fp_lo = 0x2222;
  snap.configs = 3;
  snap.edges = 5;
  snap.terminals = 1;
  snap.interned = 3;
  snap.node_depth_from = {-1, 2, 0};
  FrameSnap frame;
  frame.id = 0;
  frame.step_idx = 1;
  frame.choice = 2;
  frame.depth_from = 4;
  frame.acc_from = {7, 8};
  snap.frames.push_back(frame);
  const std::vector<std::vector<std::uint64_t>> keys = {
      {1, 2, 3}, {1, 2, 4}, {9, 9, 9, 9}};
  {
    FrontierCheckpoint ckpt(dir);
    const auto none = ckpt.open(0x1111, 0x2222,
                                [](std::uint32_t, std::uint32_t,
                                   std::span<const std::uint64_t>) {});
    EXPECT_FALSE(none.has_value());
    ckpt.write_snapshot(snap, [&](std::uint32_t id, std::uint32_t* parent,
                                  std::vector<std::uint64_t>* words) {
      *parent = id == 0 ? DeltaCodec::kNoParent : id - 1;
      *words = keys[id];
    });
  }
  std::vector<std::uint32_t> fed_ids, fed_parents;
  std::vector<std::vector<std::uint64_t>> fed_words;
  FrontierCheckpoint reopened(dir);
  const auto got = reopened.open(
      0x1111, 0x2222,
      [&](std::uint32_t id, std::uint32_t parent,
          std::span<const std::uint64_t> words) {
        fed_ids.push_back(id);
        fed_parents.push_back(parent);
        fed_words.emplace_back(words.begin(), words.end());
      });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->configs, 3u);
  EXPECT_EQ(got->edges, 5u);
  ASSERT_EQ(got->frames.size(), 1u);
  EXPECT_EQ(got->frames[0].step_idx, 1u);
  EXPECT_EQ(got->frames[0].choice, 2);
  EXPECT_EQ(got->frames[0].depth_from, 4);
  EXPECT_EQ(got->frames[0].acc_from, frame.acc_from);
  EXPECT_TRUE(got->frames[0].inv_from.empty());
  EXPECT_EQ(got->node_depth_from, snap.node_depth_from);
  EXPECT_EQ(fed_ids, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(fed_parents[0], DeltaCodec::kNoParent);
  EXPECT_EQ(fed_words, keys);
  EXPECT_EQ(reopened.keys_on_disk(), 3u);
  const CheckpointInfo info = FrontierCheckpoint::info(dir);
  EXPECT_TRUE(info.present);
  EXPECT_FALSE(info.finished);
  EXPECT_EQ(info.interned, 3u);
  EXPECT_EQ(info.frames, 1u);
}

TEST(FrontierCheckpoint, FingerprintMismatchStartsFresh) {
  TempDir tmp;
  const std::string dir = tmp.file("ckpt");
  FrontierSnapshot snap;
  snap.fp_hi = 1;
  snap.fp_lo = 2;
  snap.interned = 1;
  snap.node_depth_from = {-1};
  snap.frames.emplace_back();
  {
    FrontierCheckpoint ckpt(dir);
    ckpt.open(1, 2,
              [](std::uint32_t, std::uint32_t,
                 std::span<const std::uint64_t>) {});
    ckpt.write_snapshot(snap, [](std::uint32_t, std::uint32_t* parent,
                                 std::vector<std::uint64_t>* words) {
      *parent = DeltaCodec::kNoParent;
      *words = {42};
    });
  }
  int fed = 0;
  FrontierCheckpoint other(dir);
  const auto got = other.open(3, 4,
                              [&](std::uint32_t, std::uint32_t,
                                  std::span<const std::uint64_t>) { ++fed; });
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(fed, 0);
  EXPECT_EQ(other.keys_on_disk(), 0u);
}

TEST(FrontierCheckpoint, FinalSnapshotShortCircuits) {
  TempDir tmp;
  const std::string dir = tmp.file("ckpt");
  FrontierSnapshot fin;
  fin.fp_hi = 5;
  fin.fp_lo = 6;
  fin.finished = true;
  fin.wait_free = false;
  fin.configs = 123;
  fin.edges = 456;
  fin.depth = 9;
  {
    FrontierCheckpoint ckpt(dir);
    ckpt.open(5, 6,
              [](std::uint32_t, std::uint32_t,
                 std::span<const std::uint64_t>) {});
    fin.interned = 123;
    ckpt.write_final(fin);
  }
  int fed = 0;
  FrontierCheckpoint reopened(dir);
  const auto got = reopened.open(5, 6,
                                 [&](std::uint32_t, std::uint32_t,
                                     std::span<const std::uint64_t>) {
                                   ++fed;
                                 });
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->finished);
  EXPECT_FALSE(got->wait_free);
  EXPECT_EQ(got->configs, 123u);
  EXPECT_EQ(got->depth, 9);
  EXPECT_EQ(fed, 0);
  const CheckpointInfo info = FrontierCheckpoint::info(dir);
  EXPECT_TRUE(info.finished);
}

TEST(FrontierCheckpoint, TornFrontierTailFallsBackToPriorSnapshot) {
  // Two snapshots; tearing the second one's frontier record must resume
  // from the first, with the arena log truncated to the first's batch.
  TempDir tmp;
  const std::string dir = tmp.file("ckpt");
  const std::vector<std::vector<std::uint64_t>> keys = {
      {1}, {2}, {3}, {4}};
  const auto src = [&](std::uint32_t id, std::uint32_t* parent,
                       std::vector<std::uint64_t>* words) {
    *parent = DeltaCodec::kNoParent;
    *words = keys[id];
  };
  std::uint64_t first_end = 0;
  {
    FrontierCheckpoint ckpt(dir);
    ckpt.open(7, 8,
              [](std::uint32_t, std::uint32_t,
                 std::span<const std::uint64_t>) {});
    FrontierSnapshot snap;
    snap.fp_hi = 7;
    snap.fp_lo = 8;
    snap.configs = 2;
    snap.interned = 2;
    snap.node_depth_from = {-1, 0};
    snap.frames.emplace_back();
    ckpt.write_snapshot(snap, src);
    first_end = fs::file_size(fs::path(dir) / "frontier.log");
    snap.configs = 4;
    snap.interned = 4;
    snap.node_depth_from = {-1, 0, 0, 0};
    ckpt.write_snapshot(snap, src);
  }
  const fs::path frontier = fs::path(dir) / "frontier.log";
  fs::resize_file(frontier, first_end + 5);  // tear the second record
  std::vector<std::uint32_t> fed;
  FrontierCheckpoint reopened(dir);
  const auto got = reopened.open(7, 8,
                                 [&](std::uint32_t id, std::uint32_t,
                                     std::span<const std::uint64_t>) {
                                   fed.push_back(id);
                                 });
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->configs, 2u);
  EXPECT_EQ(fed, (std::vector<std::uint32_t>{0, 1}));
}

}  // namespace
}  // namespace wfregs::storage
