// Tests for the persistent verdict store: round-trips, reopen persistence,
// last-writer-wins, byte-granular torn-tail recovery, and real crash safety
// (a forked writer SIGKILLed mid-append).
#include "wfregs/service/store.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "wfregs/storage/record_log.hpp"

namespace wfregs::service {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "wfregs_store_" + std::to_string(::getpid()) +
         "_" + name;
}

/// A synthetic verdict whose every field is a function of `i`, so crash
/// tests can validate content, not just presence.
Verdict verdict_of(std::uint64_t i) {
  Verdict v;
  v.kind = static_cast<JobKind>(i % 3);
  v.ok = i % 2 == 0;
  v.wait_free = i % 3 != 0;
  v.complete = true;
  v.detail = "record " + std::to_string(i);
  v.stats.configs = i * 17 + 1;
  v.stats.edges = i * 5;
  v.stats.terminals = i + 2;
  v.stats.interned_configs = i * 17 + 1;
  v.stats.depth = static_cast<int>(i % 40);
  v.stats.max_accesses = {i, i + 1};
  v.stats.max_accesses_by_inv = {{i}, {i, i * 2}};
  v.provenance = i % 2 == 0 ? Provenance::kExplored : Provenance::kStatic;
  return v;
}

JobKey key_of(std::uint64_t i) {
  return hash_job_text("store-test-" + std::to_string(i));
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes,
                std::size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(len));
}

/// Rewrites the record at byte `offset` of a log image as an earlier
/// encoding would have left it: payload version byte 2, CRC recomputed, so
/// the record is intact but stale.
void downgrade_record(std::vector<char>* log, std::size_t offset) {
  auto* rec = reinterpret_cast<std::uint8_t*>(log->data() + offset);
  std::uint32_t len = 0;
  for (int k = 0; k < 4; ++k) len |= std::uint32_t{rec[4 + k]} << (8 * k);
  std::uint8_t* payload = rec + 28;  // magic, len, key_hi, key_lo, crc
  payload[0] = 2;
  const std::uint32_t crc = storage::crc32(payload, len);
  for (int k = 0; k < 4; ++k) rec[24 + k] = (crc >> (8 * k)) & 0xFF;
}

TEST(VerdictStore, InMemoryRoundTrip) {
  VerdictStore store("");
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.file_bytes(), 0u);
  for (std::uint64_t i = 0; i < 50; ++i) store.put(key_of(i), verdict_of(i));
  EXPECT_EQ(store.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto got = store.lookup(key_of(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_TRUE(*got == verdict_of(i)) << i;
  }
  EXPECT_FALSE(store.lookup(key_of(999)).has_value());
}

TEST(VerdictStore, ProvenanceSurvivesEncodingAndRejectsUnknownValues) {
  // verdict_of alternates kExplored / kStatic, so the round-trip above
  // already covers both; here the byte itself: version 2 placed it right
  // after the flags byte, and the decoder must reject values outside the
  // enum rather than aliasing them onto a real provenance.
  Verdict v = verdict_of(7);
  ASSERT_EQ(v.provenance, Provenance::kStatic);
  std::vector<std::uint8_t> bytes = encode_verdict(v);
  EXPECT_TRUE(decode_verdict(bytes.data(), bytes.size()) == v);
  bytes[3] = 0xFF;  // version, kind, flags, provenance, ...
  EXPECT_THROW(decode_verdict(bytes.data(), bytes.size()),
               std::runtime_error);
}

TEST(VerdictStore, DecisionProjectionMasksEverythingButTheDecision) {
  // A statically decided verdict and an explored one for the same job agree
  // as decisions: equal projections (and equal projection bytes) despite
  // different stats, detail and provenance.
  Verdict statically;
  statically.kind = JobKind::kConsensus;
  statically.ok = false;
  statically.wait_free = true;
  statically.complete = true;
  statically.detail = "statically refuted";
  statically.provenance = Provenance::kStatic;
  Verdict explored = statically;
  explored.detail = "agreement violated at depth 3";
  explored.provenance = Provenance::kExplored;
  explored.stats.configs = 412;
  explored.stats.depth = 9;
  EXPECT_FALSE(statically == explored);
  EXPECT_TRUE(decision_projection(statically) ==
              decision_projection(explored));
  EXPECT_EQ(encode_verdict(decision_projection(statically)),
            encode_verdict(decision_projection(explored)));
  // But a flipped decision bit must show through the projection.
  explored.ok = true;
  EXPECT_FALSE(decision_projection(statically) ==
               decision_projection(explored));
}

TEST(VerdictStore, PersistsAcrossReopen) {
  const std::string path = temp_path("reopen.log");
  std::remove(path.c_str());
  {
    VerdictStore store(path);
    for (std::uint64_t i = 0; i < 20; ++i) store.put(key_of(i), verdict_of(i));
    EXPECT_GT(store.file_bytes(), 8u);
  }
  VerdictStore store(path);
  EXPECT_EQ(store.size(), 20u);
  EXPECT_EQ(store.recovered_drop(), 0u);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const auto got = store.lookup(key_of(i));
    ASSERT_TRUE(got.has_value()) << i;
    EXPECT_TRUE(*got == verdict_of(i)) << i;
  }
  std::remove(path.c_str());
}

TEST(VerdictStore, LastWriterWins) {
  const std::string path = temp_path("rewrite.log");
  std::remove(path.c_str());
  {
    VerdictStore store(path);
    store.put(key_of(0), verdict_of(0));
    store.put(key_of(0), verdict_of(7));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(*store.lookup(key_of(0)) == verdict_of(7));
  }
  // Both records are in the log; replay must also keep the later one.
  VerdictStore store(path);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(*store.lookup(key_of(0)) == verdict_of(7));
  std::remove(path.c_str());
}

TEST(VerdictStore, EarlierEncodingRecordsAreMissesNotErrors) {
  // A log written before a verdict-encoding bump: its records are intact
  // but stale.  Reopening must index only the current ones, a lookup of a
  // stale key must miss (so the job is recomputed) rather than throw, and
  // the fresh put must win across a further reopen.
  const std::string path = temp_path("stale.log");
  std::remove(path.c_str());
  {
    VerdictStore store(path);
    store.put(key_of(0), verdict_of(0));
    store.put(key_of(1), verdict_of(1));
  }
  std::vector<char> bytes = read_file(path);
  downgrade_record(&bytes, kStoreHeaderBytes);  // key 0's record
  write_file(path, bytes, bytes.size());
  {
    VerdictStore store(path);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(store.recovered_drop(), 0u);  // skipped, not truncated away
    EXPECT_FALSE(store.lookup(key_of(0)).has_value());
    EXPECT_FALSE(store.lookup_encoded(key_of(0)).has_value());
    EXPECT_TRUE(*store.lookup(key_of(1)) == verdict_of(1));
    store.put(key_of(0), verdict_of(0));
  }
  VerdictStore store(path);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(*store.lookup(key_of(0)) == verdict_of(0));
  std::remove(path.c_str());
}

TEST(VerdictStore, HitsAreByteIdenticalAfterReopen) {
  // The index keeps offsets, not payloads: every hit is read back from the
  // log, before and after a reopen, and must be the bytes put() encoded --
  // a re-put key included (its index entry moves to the later record).
  const std::string path = temp_path("bytes.log");
  std::remove(path.c_str());
  const auto expect_hits = [](const VerdictStore& store) {
    for (std::uint64_t i = 0; i < 30; ++i) {
      const std::uint64_t want = i == 3 ? 99 : i;
      const auto got = store.lookup_encoded(key_of(i));
      ASSERT_TRUE(got.has_value()) << i;
      EXPECT_TRUE(*got == encode_verdict(verdict_of(want))) << i;
      EXPECT_TRUE(*store.lookup(key_of(i)) == verdict_of(want)) << i;
    }
  };
  {
    VerdictStore store(path);
    for (std::uint64_t i = 0; i < 30; ++i) store.put(key_of(i), verdict_of(i));
    store.put(key_of(3), verdict_of(99));
    expect_hits(store);
  }
  const VerdictStore store(path);
  EXPECT_EQ(store.size(), 30u);
  expect_hits(store);
  std::remove(path.c_str());
}

TEST(VerdictStore, BytesChangedOnDiskAfterPutMakeLookupFail) {
  // A hit re-checks magic, length, key and CRC, so a record altered under
  // an open store is an error -- never a verdict, let alone a different
  // one.  Flip each byte of the middle record in turn (header and payload).
  const std::string path = temp_path("reread.log");
  std::remove(path.c_str());
  VerdictStore store(path);
  store.put(key_of(0), verdict_of(0));
  const std::size_t begin = store.file_bytes();
  store.put(key_of(1), verdict_of(1));
  const std::size_t end = store.file_bytes();
  store.put(key_of(2), verdict_of(2));
  const std::vector<char> good = read_file(path);
  for (std::size_t at = begin; at < end; ++at) {
    std::vector<char> bad = good;
    bad[at] ^= 0x5A;
    {
      // Overwrite in place: the store's descriptor must see the change.
      std::fstream out(path, std::ios::binary | std::ios::in | std::ios::out);
      out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    EXPECT_THROW(store.lookup(key_of(1)), std::runtime_error) << "byte " << at;
    EXPECT_THROW(store.lookup_encoded(key_of(1)), std::runtime_error)
        << "byte " << at;
    EXPECT_TRUE(*store.lookup(key_of(0)) == verdict_of(0));
    EXPECT_TRUE(*store.lookup(key_of(2)) == verdict_of(2));
  }
  // A merge of the good payload repairs the key: the damaged record fails
  // its check, so the merge appends a fresh one and repoints the index.
  EXPECT_TRUE(store.merge_encoded(key_of(1), encode_verdict(verdict_of(1))));
  EXPECT_TRUE(*store.lookup(key_of(1)) == verdict_of(1));
  std::remove(path.c_str());
}

TEST(VerdictStore, ForeignFileIsRefusedAndItsDescriptorClosed) {
  const std::string path = temp_path("foreign.log");
  write_file(path, {'n', 'o', 't', ' ', 'a', ' ', 'l', 'o', 'g'}, 9);
  const auto open_fds = [] {
    return std::distance(std::filesystem::directory_iterator("/proc/self/fd"),
                         std::filesystem::directory_iterator{});
  };
  const auto before = open_fds();
  EXPECT_THROW(VerdictStore{path}, std::runtime_error);
  EXPECT_EQ(open_fds(), before);
  std::remove(path.c_str());
}

TEST(VerdictStore, TornTailTruncatedAtEveryByte) {
  const std::string path = temp_path("torn.log");
  std::remove(path.c_str());
  std::vector<std::size_t> boundaries;  // file size after header, rec 0, 1, 2
  {
    VerdictStore store(path);
    boundaries.push_back(store.file_bytes());
    for (std::uint64_t i = 0; i < 3; ++i) {
      store.put(key_of(i), verdict_of(i));
      boundaries.push_back(store.file_bytes());
    }
  }
  const std::vector<char> full = read_file(path);
  ASSERT_EQ(full.size(), boundaries.back());

  const std::string torn = temp_path("torn_cut.log");
  for (std::size_t len = boundaries.front(); len < full.size(); ++len) {
    write_file(torn, full, len);
    VerdictStore store(torn);
    // Every record wholly inside the prefix survives; the torn one is gone.
    std::size_t expect = 0;
    while (expect + 1 < boundaries.size() && boundaries[expect + 1] <= len) {
      ++expect;
    }
    ASSERT_EQ(store.size(), expect) << "prefix length " << len;
    for (std::uint64_t i = 0; i < expect; ++i) {
      const auto got = store.lookup(key_of(i));
      ASSERT_TRUE(got.has_value()) << "prefix " << len << " record " << i;
      EXPECT_TRUE(*got == verdict_of(i));
    }
    EXPECT_FALSE(store.lookup(key_of(expect)).has_value());
    const bool at_boundary = len == boundaries[expect];
    EXPECT_EQ(store.recovered_drop() > 0, !at_boundary)
        << "prefix length " << len;
  }
  std::remove(path.c_str());
  std::remove(torn.c_str());
}

TEST(VerdictStore, CorruptPayloadByteDropsOnlyTheTail) {
  const std::string path = temp_path("corrupt.log");
  std::remove(path.c_str());
  std::size_t second_boundary = 0;
  {
    VerdictStore store(path);
    store.put(key_of(0), verdict_of(0));
    store.put(key_of(1), verdict_of(1));
    second_boundary = store.file_bytes();
    store.put(key_of(2), verdict_of(2));
  }
  std::vector<char> bytes = read_file(path);
  bytes[second_boundary + 30] ^= 0x5A;  // a payload byte of record 2
  write_file(path, bytes, bytes.size());
  VerdictStore store(path);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_GT(store.recovered_drop(), 0u);
  EXPECT_TRUE(*store.lookup(key_of(0)) == verdict_of(0));
  EXPECT_TRUE(*store.lookup(key_of(1)) == verdict_of(1));
  EXPECT_FALSE(store.lookup(key_of(2)).has_value());
  // The truncated log appends cleanly again.
  store.put(key_of(2), verdict_of(2));
  EXPECT_EQ(store.size(), 3u);
  std::remove(path.c_str());
}

TEST(VerdictStore, SigkillMidAppendRecoversEveryCommittedRecord) {
  const std::string path = temp_path("sigkill.log");
  std::remove(path.c_str());
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: append records as fast as possible until killed.
    VerdictStore store(path);
    for (std::uint64_t i = 0;; ++i) store.put(key_of(i), verdict_of(i));
    ::_exit(0);  // unreachable
  }
  // Let the child commit a bunch of records mid-stream, then kill it hard.
  ::usleep(100 * 1000);
  ASSERT_EQ(::kill(child, SIGKILL), 0);
  int wstatus = 0;
  ASSERT_EQ(::waitpid(child, &wstatus, 0), child);
  ASSERT_TRUE(WIFSIGNALED(wstatus));

  // Restart: every committed record must decode with the right content, and
  // the committed set must be a prefix (no holes).
  VerdictStore store(path);
  const std::size_t n = store.size();
  EXPECT_GT(n, 0u) << "child was killed before committing anything";
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto got = store.lookup(key_of(i));
    ASSERT_TRUE(got.has_value()) << "hole at record " << i << " of " << n;
    EXPECT_TRUE(*got == verdict_of(i)) << i;
  }
  EXPECT_FALSE(store.lookup(key_of(n)).has_value());
  // And the recovered log keeps accepting appends.
  store.put(key_of(n), verdict_of(n));
  EXPECT_TRUE(*store.lookup(key_of(n)) == verdict_of(n));
  std::remove(path.c_str());
}

/// Merges every committed record of the log at `src` into `dst` (what
/// `wfregs_cli store-merge` does).  Returns the number of records applied.
std::size_t merge_log_into(VerdictStore* dst, const std::string& src) {
  const std::vector<char> bytes = read_file(src);
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  EXPECT_TRUE(check_store_header(data, bytes.size()));
  std::vector<StoreRecord> records;
  parse_store_records(data + kStoreHeaderBytes,
                      bytes.size() - kStoreHeaderBytes, &records);
  std::size_t applied = 0;
  for (const StoreRecord& record : records) {
    if (dst->merge_encoded(record.key, record.payload)) ++applied;
  }
  return applied;
}

TEST(VerdictStoreMerge, DisjointLogsMergeByteIdenticalToASingleStore) {
  // Differential: 10 verdicts written to one store must equal, per key and
  // as ENCODED BYTES, the merge of two disjoint 5-verdict logs.
  const std::string all = temp_path("merge_all.log");
  const std::string a = temp_path("merge_a.log");
  const std::string b = temp_path("merge_b.log");
  const std::string merged = temp_path("merge_dst.log");
  for (const auto* p : {&all, &a, &b, &merged}) std::remove(p->c_str());
  {
    VerdictStore single(all);
    VerdictStore left(a);
    VerdictStore right(b);
    for (std::uint64_t i = 0; i < 10; ++i) {
      single.put(key_of(i), verdict_of(i));
      (i % 2 == 0 ? left : right).put(key_of(i), verdict_of(i));
    }
  }
  VerdictStore dst(merged);
  EXPECT_EQ(merge_log_into(&dst, a), 5u);
  EXPECT_EQ(merge_log_into(&dst, b), 5u);
  const VerdictStore reference(all);
  ASSERT_EQ(dst.size(), reference.size());
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto got = dst.lookup_encoded(key_of(i));
    const auto want = reference.lookup_encoded(key_of(i));
    ASSERT_TRUE(got.has_value() && want.has_value()) << "key " << i;
    EXPECT_EQ(*got, *want) << "key " << i << " not byte-identical";
  }
  for (const auto* p : {&all, &a, &b, &merged}) std::remove(p->c_str());
}

TEST(VerdictStoreMerge, OverlappingLogsMergeIdempotently) {
  // Keys 0..6 and 3..9 overlap on 3..6; the overlap must be skipped (no
  // log growth) and the result must still match the single-store run.
  const std::string a = temp_path("overlap_a.log");
  const std::string b = temp_path("overlap_b.log");
  const std::string merged = temp_path("overlap_dst.log");
  for (const auto* p : {&a, &b, &merged}) std::remove(p->c_str());
  {
    VerdictStore left(a);
    VerdictStore right(b);
    for (std::uint64_t i = 0; i < 7; ++i) left.put(key_of(i), verdict_of(i));
    for (std::uint64_t i = 3; i < 10; ++i) right.put(key_of(i), verdict_of(i));
  }
  VerdictStore dst(merged);
  EXPECT_EQ(merge_log_into(&dst, a), 7u);
  EXPECT_EQ(merge_log_into(&dst, b), 3u);  // 3..6 already present: skipped
  EXPECT_EQ(dst.size(), 10u);
  const std::uint64_t bytes_after_merge = dst.file_bytes();
  // Re-merging either source is a no-op: zero applied, zero growth.
  EXPECT_EQ(merge_log_into(&dst, a), 0u);
  EXPECT_EQ(merge_log_into(&dst, b), 0u);
  EXPECT_EQ(dst.file_bytes(), bytes_after_merge);
  for (std::uint64_t i = 0; i < 10; ++i) {
    const auto got = dst.lookup_encoded(key_of(i));
    ASSERT_TRUE(got.has_value()) << "key " << i;
    EXPECT_EQ(*got, encode_verdict(verdict_of(i))) << "key " << i;
  }
  for (const auto* p : {&a, &b, &merged}) std::remove(p->c_str());
}

TEST(VerdictStoreMerge, TornTailOnOneSideDropsOnlyTheTornRecord) {
  // One source log loses the back half of its final record (mid-append
  // crash); the merge must land every committed record and silently skip
  // the torn one -- parse_store_records applies the same recovery rule as
  // open()-time replay.
  const std::string a = temp_path("torn_a.log");
  const std::string b = temp_path("torn_b.log");
  const std::string merged = temp_path("torn_dst.log");
  for (const auto* p : {&a, &b, &merged}) std::remove(p->c_str());
  {
    VerdictStore left(a);
    VerdictStore right(b);
    for (std::uint64_t i = 0; i < 4; ++i) left.put(key_of(i), verdict_of(i));
    for (std::uint64_t i = 4; i < 8; ++i) right.put(key_of(i), verdict_of(i));
  }
  const std::vector<char> bytes = read_file(b);
  write_file(b, bytes, bytes.size() - 7);  // tear the last record
  VerdictStore dst(merged);
  EXPECT_EQ(merge_log_into(&dst, a), 4u);
  EXPECT_EQ(merge_log_into(&dst, b), 3u);  // torn record 7 dropped
  EXPECT_EQ(dst.size(), 7u);
  EXPECT_FALSE(dst.lookup_encoded(key_of(7)).has_value());
  for (std::uint64_t i = 0; i < 7; ++i) {
    const auto got = dst.lookup_encoded(key_of(i));
    ASSERT_TRUE(got.has_value()) << "key " << i;
    EXPECT_EQ(*got, encode_verdict(verdict_of(i))) << "key " << i;
  }
  for (const auto* p : {&a, &b, &merged}) std::remove(p->c_str());
}

TEST(VerdictStoreMerge, EarlierEncodingRecordsAreSkippedNotFatal) {
  VerdictStore dst("");
  std::vector<std::uint8_t> stale = encode_verdict(verdict_of(0));
  stale[0] = 2;
  EXPECT_FALSE(dst.merge_encoded(key_of(0), stale));
  EXPECT_EQ(dst.size(), 0u);
  // The current record of the same key still merges afterwards.
  EXPECT_TRUE(dst.merge_encoded(key_of(0), encode_verdict(verdict_of(0))));
  EXPECT_TRUE(*dst.lookup(key_of(0)) == verdict_of(0));
}

TEST(VerdictStoreMerge, PutEncodedRejectsMalformedPayloads) {
  VerdictStore store("");
  EXPECT_THROW(store.put_encoded(key_of(0), {0x01, 0x02, 0x03}),
               std::runtime_error);
  EXPECT_EQ(store.size(), 0u);  // nothing committed
  // A valid payload through the encoded path reads back byte-identical.
  const std::vector<std::uint8_t> payload = encode_verdict(verdict_of(1));
  store.put_encoded(key_of(1), payload);
  EXPECT_EQ(store.lookup_encoded(key_of(1)), payload);
}

}  // namespace
}  // namespace wfregs::service
