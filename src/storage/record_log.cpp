#include "wfregs/storage/record_log.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "wfregs/storage/bytes.hpp"

namespace wfregs::storage {

namespace {

constexpr std::uint32_t kRecordMagic = 0x31524657u;  // "WFR1" little-endian

[[noreturn]] void fail_errno(const std::string& what) {
  throw std::runtime_error("record log: " + what + ": " +
                           std::strerror(errno));
}

std::vector<std::uint8_t> read_whole(int fd) {
  std::vector<std::uint8_t> data;
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("read failed");
    }
    if (n == 0) break;
    data.insert(data.end(), buf, buf + n);
  }
  return data;
}

bool has_magic(const std::vector<std::uint8_t>& data, const LogMagic& magic) {
  return data.size() >= magic.size() &&
         std::memcmp(data.data(), magic.data(), magic.size()) == 0;
}

/// The longest CRC-clean record prefix of a file image that starts with its
/// magic; returns the bytes it covers.
std::uint64_t replay(const std::vector<std::uint8_t>& data,
                     std::vector<LogRecord>* out) {
  ByteReader in(data.data() + kRecordLogHeaderBytes,
                data.size() - kRecordLogHeaderBytes, "record log");
  std::uint64_t pos = kRecordLogHeaderBytes;
  while (in.remaining() >= kRecordFrameBytes) {
    LogRecord record;
    const std::uint32_t magic = in.u32();
    record.tag = in.u32();
    const std::uint32_t len = in.u32();
    const std::uint32_t crc = in.u32();
    if (magic != kRecordMagic || in.remaining() < len) break;
    const auto payload = in.bytes(len);
    if (crc32(payload.data(), len) != crc) break;
    record.payload.assign(payload.begin(), payload.end());
    record.offset = pos;
    pos += kRecordFrameBytes + len;
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

LogContents read_record_log(const std::string& path, const LogMagic& magic) {
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
  if (!has_magic(data, magic)) return out;
  out.present = true;
  out.dropped_bytes = data.size() - replay(data, &out.records);
  return out;
}

RecordLog::RecordLog(std::string path, const LogMagic& magic)
    : path_(std::move(path)) {
  fd_ = path_.empty()
            ? ::memfd_create("wfregs-record-log", MFD_CLOEXEC)
            : ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    fail_errno("cannot open " +
               (path_.empty() ? std::string("an in-memory log") : path_));
  }
  try {
    std::vector<std::uint8_t> data = read_whole(fd_);
    if (data.empty()) {
      append_bytes(reinterpret_cast<const std::uint8_t*>(magic.data()),
                   magic.size());
      return;
    }
    if (!has_magic(data, magic)) {
      throw std::runtime_error("record log: " + path_ +
                               " is not a log of this kind (bad header)");
    }
    const std::uint64_t committed = replay(data, &replayed_);
    dropped_bytes_ = data.size() - committed;
    file_bytes_ = data.size();
    if (dropped_bytes_ > 0) truncate_to(committed);
  } catch (...) {
    ::close(fd_);  // the destructor does not run for a throwing constructor
    throw;
  }
}

RecordLog::~RecordLog() { ::close(fd_); }

void RecordLog::append_bytes(const std::uint8_t* data, std::size_t size) {
  std::uint64_t at = file_bytes_;
  while (size > 0) {
    const ssize_t n = ::pwrite(fd_, data, size, static_cast<off_t>(at));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("write failed");
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    at += static_cast<std::uint64_t>(n);
  }
  file_bytes_ = at;
}

std::uint64_t RecordLog::append(std::uint32_t tag, const std::uint8_t* payload,
                                std::size_t payload_len) {
  std::vector<std::uint8_t> rec;
  rec.reserve(kRecordFrameBytes + payload_len);
  put_u32(rec, kRecordMagic);
  put_u32(rec, tag);
  put_u32(rec, static_cast<std::uint32_t>(payload_len));
  put_u32(rec, crc32(payload, payload_len));
  if (payload_len > 0) {  // an empty payload may come as a null pointer
    rec.insert(rec.end(), payload, payload + payload_len);
  }
  const std::uint64_t offset = file_bytes_;
  append_bytes(rec.data(), rec.size());
  return offset;
}

std::optional<std::vector<std::uint8_t>> RecordLog::read_at(
    std::uint64_t offset, std::uint32_t tag, std::uint32_t payload_len) const {
  std::vector<std::uint8_t> rec(kRecordFrameBytes + payload_len);
  std::size_t got = 0;
  while (got < rec.size()) {
    const ssize_t n = ::pread(fd_, rec.data() + got, rec.size() - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("read failed");
    }
    if (n == 0) {
      throw std::runtime_error("record log: record at offset " +
                               std::to_string(offset) +
                               " lies past the end of the log");
    }
    got += static_cast<std::size_t>(n);
  }
  ByteReader in(rec.data(), rec.size(), "record log");
  const std::uint32_t magic = in.u32();
  const std::uint32_t got_tag = in.u32();
  const std::uint32_t len = in.u32();
  const std::uint32_t crc = in.u32();
  if (magic != kRecordMagic || got_tag != tag || len != payload_len ||
      crc32(rec.data() + kRecordFrameBytes, payload_len) != crc) {
    return std::nullopt;
  }
  rec.erase(rec.begin(), rec.begin() + kRecordFrameBytes);
  return rec;
}

void RecordLog::sync() {
  if (::fdatasync(fd_) != 0 && errno != EINVAL && errno != ENOSYS) {
    fail_errno("fdatasync failed");
  }
}

void RecordLog::truncate_to(std::uint64_t bytes) {
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    fail_errno("truncate failed");
  }
  file_bytes_ = bytes;
}

}  // namespace wfregs::storage
