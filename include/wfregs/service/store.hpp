// The persistent verdict store: an append-only, CRC-checked record log with
// an in-memory open-addressing index (the ConfigInterner idiom: dense
// record ids, power-of-two probe table, linear probing over cached key
// hashes).  The index holds each record's key, file offset and payload
// length -- never the payload -- so its RAM per record does not grow with
// the verdict size.  A hit reads the record back with pread() and checks
// its magic, length, key and CRC again; a mismatch or an I/O error throws
// instead of returning a verdict.
//
// On-disk layout:
//
//   file   := header record*
//   header := "WFVSTOR1" (8 bytes)
//   record := magic:u32 ('W''F''V''1' LE)
//             payload_len:u32
//             key_hi:u64  key_lo:u64
//             crc32:u32 (of the payload bytes)
//             payload bytes (encode_verdict output)
//
// All integers little-endian.  Records are committed by a single append +
// flush; open() replays the log and TRUNCATES at the first torn or
// corrupt record (short header, short payload, bad magic, bad CRC), so a
// crash -- SIGKILL mid-append included -- loses at most the record being
// written and every earlier verdict survives.  Duplicate keys keep the
// later record (last-writer-wins replay), which makes concatenated logs
// well-defined.  A record whose payload has an earlier verdict encoding
// version is skipped at replay (not indexed, left in the file): its job
// misses and is recomputed, and the fresh record is the one indexed.
//
// Thread-safety: none here; JobScheduler serializes access under its own
// lock.  An empty path gives an in-memory store: the same log, written to
// an anonymous memfd that nothing persists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wfregs/service/job.hpp"
#include "wfregs/service/verdict.hpp"

namespace wfregs::service {

/// One committed record parsed out of a record stream (the log minus its
/// 8-byte file header): the key and the raw encode_verdict payload.
struct StoreRecord {
  JobKey key;
  std::vector<std::uint8_t> payload;
};

/// Bytes of the "WFVSTOR1" file header every log starts with.
inline constexpr std::size_t kStoreHeaderBytes = 8;

/// Parses a record stream, appending committed records to *out in log
/// order (duplicates included -- the caller applies last-writer-wins).
/// Returns the number of bytes consumed; parsing stops at the first torn
/// or corrupt record (short header, short payload, bad magic, bad CRC),
/// exactly the recovery rule replay() applies.  This is the shared parser
/// behind open()-time replay and `wfregs_cli store-merge`.
std::size_t parse_store_records(const std::uint8_t* data, std::size_t size,
                                std::vector<StoreRecord>* out);

/// Validates that `data` starts with the store file header.
bool check_store_header(const std::uint8_t* data, std::size_t size);

class VerdictStore {
 public:
  /// Opens (creating if absent) the log at `path`, replaying and
  /// truncating as described above.  Empty path = an in-memory log.
  /// Throws std::runtime_error when the file cannot be opened or created.
  explicit VerdictStore(std::string path);
  ~VerdictStore();

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
  void put_encoded(const JobKey& key, std::vector<std::uint8_t> payload);

  /// Idempotent, conflict-free merge of one record: a key we already hold
  /// with the identical payload is skipped (no append, no log growth on
  /// repeated syncs); a new key -- or, degenerately, a differing payload
  /// for a known key, impossible for honest content-addressed stores, or a
  /// held record that fails its read-time check -- is put_encoded.  Returns
  /// true when the record was applied.  A payload of an earlier verdict
  /// encoding version is skipped (false), as replay() skips it.
  bool merge_encoded(const JobKey& key,
                     const std::vector<std::uint8_t>& payload);

  /// Records currently indexed (distinct keys).
  std::size_t size() const { return records_.size(); }

  /// Bytes in the on-disk log (header included); 0 for in-memory stores.
  std::uint64_t file_bytes() const { return path_.empty() ? 0 : end_; }

  /// Records dropped by torn-tail recovery at open().
  std::size_t recovered_drop() const { return recovered_drop_; }

  const std::string& path() const { return path_; }

 private:
  /// Where one indexed record lives in the log: `offset` is its header's.
  struct Record {
    JobKey key;
    std::uint64_t offset = 0;
    std::uint32_t len = 0;  ///< payload bytes
  };

  std::uint32_t find_slot(const JobKey& key) const;
  /// Indexes `record`, repointing an existing entry for its key.
  void index_record(const Record& record);
  void grow();
  void replay();
  Record append_record(const JobKey& key,
                       const std::vector<std::uint8_t>& payload);
  /// Reads `record` back into *payload.  False when the bytes at its
  /// offset are no longer the record put() wrote; throws on I/O errors.
  bool read_payload(const Record& record,
                    std::vector<std::uint8_t>* payload) const;

  std::string path_;
  int fd_ = -1;
  std::uint64_t end_ = 0;  ///< log size; the next record's offset
  std::size_t recovered_drop_ = 0;

  // Record id -> Record; the probe table maps key hashes to id+1 (0 =
  // empty slot), ConfigInterner-style.
  std::vector<Record> records_;
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};

}  // namespace wfregs::service
