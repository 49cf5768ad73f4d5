// The persistent verdict store: a storage::RecordLog (record_log.hpp, the
// one crash-safe log) with an in-memory open-addressing index (the
// ConfigInterner idiom: dense record ids, power-of-two probe table, linear
// probing over cached key hashes).  The index holds each record's key, file
// offset and payload length -- never the payload -- so its RAM per record
// does not grow with the verdict size.  A hit reads the record back with
// one pread() and checks its framing, CRC and key again; a mismatch or an
// I/O error throws instead of returning a verdict.
//
// On-disk layout: a RecordLog with file magic "WFVSTOR2" whose records all
// carry kVerdictTag and the payload
//
//   key_hi:u64  key_lo:u64  verdict bytes (encode_verdict output)
//
// little-endian, so the record's CRC covers the key as well as the verdict.
// Records are committed by a single write; open() replays the log once and
// TRUNCATES at the first torn or corrupt record (short framing, short
// payload, bad magic, bad CRC, another tag, a payload shorter than a key),
// so a crash -- SIGKILL mid-append included -- loses at most the record
// being written and every earlier verdict survives.  Duplicate keys keep
// the later record (last-writer-wins replay), which makes concatenated logs
// well-defined.  A record whose verdict has an earlier encoding version is
// skipped at replay (not indexed, left in the file): its job misses and is
// recomputed, and the fresh record is the one indexed.  A file of another
// kind -- a "WFVSTOR1" store of the earlier layout, a checkpoint log -- is
// refused and left untouched; a store is a cache, so its jobs recompute.
//
// Thread-safety: none here; JobScheduler serializes access under its own
// lock.  An empty path gives an in-memory store: the same log, written to
// an anonymous memfd that nothing persists.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "wfregs/service/job.hpp"
#include "wfregs/service/verdict.hpp"
#include "wfregs/storage/record_log.hpp"

namespace wfregs::service {

/// The store log's file magic and the tag of its records.
inline constexpr storage::LogMagic kVerdictLogMagic = {'W', 'F', 'V', 'S',
                                                       'T', 'O', 'R', '2'};
inline constexpr std::uint32_t kVerdictTag = 1;

/// A verdict record's payload, split: the job key and the encode_verdict
/// bytes (a view into the payload).
struct VerdictRecord {
  JobKey key;
  std::span<const std::uint8_t> verdict;
};

/// Splits `rec`; nullopt when it is not a verdict record (another tag, or a
/// payload shorter than a key), which replay treats as corrupt.  Shared by
/// open()-time replay and `wfregs_cli store-merge`.
std::optional<VerdictRecord> parse_verdict_record(
    const storage::LogRecord& rec);

class VerdictStore {
 public:
  /// Opens (creating if absent) the log at `path`, replaying and
  /// truncating as described above.  Empty path = an in-memory log.
  /// Throws std::runtime_error when the file cannot be opened or created.
  explicit VerdictStore(std::string path);

  VerdictStore(const VerdictStore&) = delete;
  VerdictStore& operator=(const VerdictStore&) = delete;

  /// The stored verdict for `key`, if any.  Throws std::runtime_error when
  /// the record no longer matches what put() wrote (see the header).
  std::optional<Verdict> lookup(const JobKey& key) const;

  /// Raw encoded payload for `key` (the bit-identity probe used by the
  /// coherence tests and the E13 bench); checked and throwing like
  /// lookup().
  std::optional<std::vector<std::uint8_t>> lookup_encoded(
      const JobKey& key) const;

  /// Appends (key, verdict) to the log and indexes it.  A re-put of an
  /// existing key appends a fresh record and repoints the index (last
  /// writer wins).  Throws std::runtime_error on I/O failure.
  void put(const JobKey& key, const Verdict& verdict);

  /// As put(), but with the already-encoded payload -- the merge path: a
  /// record copied from another store lands byte-identical, never
  /// re-encoded.  The payload is validated by decoding before it is
  /// committed (a corrupt source must not poison the log).
  void put_encoded(const JobKey& key, std::span<const std::uint8_t> payload);

  /// Idempotent, conflict-free merge of one record: a key we already hold
  /// with the identical payload is skipped (no append, no log growth on
  /// repeated syncs); a new key -- or, degenerately, a differing payload
  /// for a known key, impossible for honest content-addressed stores, or a
  /// held record that fails its read-time check -- is put_encoded.  Returns
  /// true when the record was applied.  A payload of an earlier verdict
  /// encoding version is skipped (false), as replay() skips it.
  bool merge_encoded(const JobKey& key, std::span<const std::uint8_t> payload);

  /// Records currently indexed (distinct keys).
  std::size_t size() const { return records_.size(); }

  /// Bytes in the on-disk log (header included); 0 for in-memory stores.
  std::uint64_t file_bytes() const {
    return log_.path().empty() ? 0 : log_.file_bytes();
  }

  /// Records dropped by torn-tail recovery at open().
  std::size_t recovered_drop() const { return recovered_drop_; }

  const std::string& path() const { return log_.path(); }

 private:
  /// Where one indexed record lives in the log.
  struct Record {
    JobKey key;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;  ///< record payload bytes, key included
  };

  std::uint32_t find_slot(const JobKey& key) const;
  /// Indexes `record`, repointing an existing entry for its key.
  void index_record(const Record& record);
  void grow();
  /// The verdict bytes of `record`, or nullopt when the bytes at its offset
  /// are no longer the record put() wrote; throws on I/O errors.
  std::optional<std::vector<std::uint8_t>> read_verdict(
      const Record& record) const;

  storage::RecordLog log_;
  std::size_t recovered_drop_ = 0;

  // Record id -> Record; the probe table maps key hashes to id+1 (0 =
  // empty slot), ConfigInterner-style.
  std::vector<Record> records_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};

}  // namespace wfregs::service
