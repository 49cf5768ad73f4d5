#include "wfregs/storage/record_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace wfregs::storage {

namespace {

constexpr char kHeader[8] = {'W', 'F', 'R', 'L', 'O', 'G', '0', '1'};
constexpr std::uint32_t kRecordMagic = 0x31524657u;  // "WFR1" little-endian
/// magic + tag + payload_len + crc32.
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 4 + 4;

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(p[k]) << (8 * k);
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) p[k] = (v >> (8 * k)) & 0xFF;
}

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("record log: write failed: ") +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

std::vector<std::uint8_t> read_whole(int fd) {
  std::vector<std::uint8_t> data;
  std::array<std::uint8_t, 65536> buf;
  for (;;) {
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("record log: read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) break;
    data.insert(data.end(), buf.data(), buf.data() + n);
  }
  return data;
}

/// Longest valid record prefix of data[pos..); appends parsed records.
std::size_t parse_records(const std::uint8_t* data, std::size_t size,
                          std::size_t pos, std::vector<LogRecord>* out) {
  while (pos < size) {
    if (size - pos < kRecordHeaderBytes) break;  // torn header
    const std::uint8_t* rec = data + pos;
    if (load_u32(rec) != kRecordMagic) break;  // corrupt magic
    const std::uint32_t payload_len = load_u32(rec + 8);
    if (size - pos - kRecordHeaderBytes < payload_len) break;  // torn payload
    const std::uint8_t* payload = rec + kRecordHeaderBytes;
    if (crc32(payload, payload_len) != load_u32(rec + 12)) break;  // corrupt
    LogRecord record;
    record.tag = load_u32(rec + 4);
    record.payload.assign(payload, payload + payload_len);
    pos += kRecordHeaderBytes + payload_len;
    record.end_offset = pos;
    out->push_back(std::move(record));
  }
  return pos;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[n] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t k = 0; k < size; ++k) {
    c = table[(c ^ data[k]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

LogContents read_record_log(const std::string& path) {
  LogContents out;
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return out;  // missing: present == false, zero bytes
  std::vector<std::uint8_t> data;
  try {
    data = read_whole(fd);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  out.file_bytes = data.size();
  if (data.size() < kRecordLogHeaderBytes ||
      std::memcmp(data.data(), kHeader, sizeof(kHeader)) != 0) {
    return out;  // not a record log
  }
  out.present = true;
  const std::size_t committed = parse_records(
      data.data(), data.size(), kRecordLogHeaderBytes, &out.records);
  out.dropped_bytes = data.size() - committed;
  return out;
}

RecordLogWriter::RecordLogWriter(std::string path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error("record log: cannot open " + path_ + ": " +
                             std::strerror(errno));
  }
  std::vector<std::uint8_t> data = read_whole(fd_);
  if (data.empty()) {
    write_all(fd_, reinterpret_cast<const std::uint8_t*>(kHeader),
              sizeof(kHeader));
    file_bytes_ = sizeof(kHeader);
    return;
  }
  if (data.size() < kRecordLogHeaderBytes ||
      std::memcmp(data.data(), kHeader, sizeof(kHeader)) != 0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("record log: " + path_ +
                             " is not a record log (bad header)");
  }
  std::vector<LogRecord> records;
  const std::size_t committed = parse_records(
      data.data(), data.size(), kRecordLogHeaderBytes, &records);
  truncate_to(committed);
}

RecordLogWriter::~RecordLogWriter() {
  if (fd_ >= 0) ::close(fd_);
}

void RecordLogWriter::append(std::uint32_t tag, const std::uint8_t* payload,
                             std::size_t payload_len) {
  std::vector<std::uint8_t> rec(kRecordHeaderBytes + payload_len);
  store_u32(rec.data(), kRecordMagic);
  store_u32(rec.data() + 4, tag);
  store_u32(rec.data() + 8, static_cast<std::uint32_t>(payload_len));
  store_u32(rec.data() + 12, crc32(payload, payload_len));
  if (payload_len > 0) {  // an empty payload may come as a null pointer
    std::memcpy(rec.data() + kRecordHeaderBytes, payload, payload_len);
  }
  write_all(fd_, rec.data(), rec.size());
  file_bytes_ += rec.size();
}

void RecordLogWriter::sync() {
  if (::fdatasync(fd_) != 0 && errno != EINVAL && errno != ENOSYS) {
    throw std::runtime_error(std::string("record log: fdatasync failed: ") +
                             std::strerror(errno));
  }
}

void RecordLogWriter::truncate_to(std::uint64_t bytes) {
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    throw std::runtime_error(std::string("record log: truncate failed: ") +
                             std::strerror(errno));
  }
  if (::lseek(fd_, static_cast<off_t>(bytes), SEEK_SET) < 0) {
    throw std::runtime_error(std::string("record log: seek failed: ") +
                             std::strerror(errno));
  }
  file_bytes_ = bytes;
}

}  // namespace wfregs::storage
