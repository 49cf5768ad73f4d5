// The one crash-safe log: an append-only file of CRC'd records, written one
// write() per record and replayed with torn-tail truncation.  The verdict
// store (service/store.hpp) and the checkpoint logs (checkpoint.hpp) are
// both RecordLogs; they differ only in their file magic and in what their
// payloads hold.
//
// File layout: an 8-byte, per-kind file magic followed by records
//
//   [magic u32 "WFR1"] [tag u32] [payload_len u32] [crc32 u32] [payload...]
//
// all little-endian (bytes.hpp).  `tag` is caller-defined.  The CRC covers
// the payload; a record whose magic, length or CRC does not check ends the
// valid prefix.  Opening a log replays it once, hands the CRC-clean records
// to the caller and truncates everything after them, so every append lands
// on a clean record boundary and a crash loses at most the record being
// written.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace wfregs::storage {

/// Standard CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

/// The 8 bytes a log file starts with; they name what the log holds.
using LogMagic = std::array<char, 8>;

/// Size of the file magic.
inline constexpr std::size_t kRecordLogHeaderBytes = 8;
/// Size of a record's framing: magic, tag, payload_len, crc32.
inline constexpr std::size_t kRecordFrameBytes = 16;

struct LogRecord {
  std::uint32_t tag = 0;
  std::vector<std::uint8_t> payload;
  /// Byte offset of the record's framing from the start of the file.
  std::uint64_t offset = 0;
  /// Byte offset one past the record's end: the truncation point that keeps
  /// this record and drops everything after it.
  std::uint64_t end_offset = 0;
};

struct LogContents {
  /// True when the file exists and starts with the expected magic.
  bool present = false;
  /// The CRC-clean prefix, in file order.
  std::vector<LogRecord> records;
  /// Total file bytes and how many trailing bytes failed validation (torn
  /// or corrupt tail).
  std::uint64_t file_bytes = 0;
  std::uint64_t dropped_bytes = 0;
};

/// Replays `path` without changing it.  A missing file, or one that does not
/// start with `magic`, is present == false (file_bytes still set).
LogContents read_record_log(const std::string& path, const LogMagic& magic);

class RecordLog {
 public:
  /// Opens (or creates) the log at `path`; an empty path gives an anonymous
  /// memfd that nothing persists.  An empty file gets `magic` written; any
  /// other file must start with it, or the constructor throws
  /// std::runtime_error and leaves the file untouched.  The file is then
  /// replayed once (take_records()) and its torn tail truncated.  Throws
  /// std::runtime_error on I/O failure.
  RecordLog(std::string path, const LogMagic& magic);
  ~RecordLog();
  RecordLog(const RecordLog&) = delete;
  RecordLog& operator=(const RecordLog&) = delete;

  /// The CRC-clean records found at open, in file order, moved out to the
  /// caller (a second call returns none).
  std::vector<LogRecord> take_records() {
    return std::exchange(replayed_, {});
  }

  /// Bytes truncated at open as a torn or corrupt tail.
  std::uint64_t dropped_bytes() const { return dropped_bytes_; }

  /// Appends one record with a single write at the end of the log and
  /// returns its offset.  A SIGKILL between appends never tears a record;
  /// a machine crash can leave a prefix, which the next open truncates.
  std::uint64_t append(std::uint32_t tag, const std::uint8_t* payload,
                       std::size_t payload_len);

  /// Reads the record at `offset` back with a single pread and re-checks
  /// its magic, tag, length and CRC: the payload when they match what
  /// append() wrote, nullopt when they do not.  Throws std::runtime_error on
  /// an I/O error or a record that lies past the end of the log.
  std::optional<std::vector<std::uint8_t>> read_at(
      std::uint64_t offset, std::uint32_t tag, std::uint32_t payload_len) const;

  /// fdatasync the log: on return every previously appended record is
  /// durable.
  void sync();

  /// Truncates the file to `bytes` (a record boundary, or
  /// kRecordLogHeaderBytes to clear the log); the next append lands there.
  void truncate_to(std::uint64_t bytes);

  std::uint64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

 private:
  /// Writes `size` bytes at the end of the log and advances it.
  void append_bytes(const std::uint8_t* data, std::size_t size);

  std::string path_;
  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
  std::vector<LogRecord> replayed_;
  std::uint64_t dropped_bytes_ = 0;
};

}  // namespace wfregs::storage
