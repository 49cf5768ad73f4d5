#include "wfregs/service/store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "wfregs/runtime/config_intern.hpp"
#include "wfregs/storage/record_log.hpp"

namespace wfregs::service {

namespace {

constexpr char kHeader[8] = {'W', 'F', 'V', 'S', 'T', 'O', 'R', '1'};
constexpr std::uint32_t kRecordMagic = 0x31564657u;  // "WFV1" little-endian
/// magic + payload_len + key_hi + key_lo + crc32.
constexpr std::size_t kRecordHeaderBytes = 4 + 4 + 8 + 8 + 4;

/// Standard CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320): the
/// canonical implementation now lives in the storage layer (shared with the
/// checkpoint record logs); the byte format is unchanged.
using storage::crc32;

std::uint32_t load_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int k = 0; k < 4; ++k) v |= static_cast<std::uint32_t>(p[k]) << (8 * k);
  return v;
}

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int k = 0; k < 8; ++k) v |= static_cast<std::uint64_t>(p[k]) << (8 * k);
  return v;
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) p[k] = (v >> (8 * k)) & 0xFF;
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) p[k] = (v >> (8 * k)) & 0xFF;
}

void pwrite_all(int fd, const std::uint8_t* data, std::size_t size,
                std::uint64_t offset) {
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, data, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("VerdictStore: write failed: ") +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
    offset += static_cast<std::uint64_t>(n);
  }
}

std::uint64_t key_probe_hash(const JobKey& key) {
  const std::array<std::uint64_t, 2> words = {key.hi, key.lo};
  return config_hash_words(words);
}

}  // namespace

std::size_t parse_store_records(const std::uint8_t* data, std::size_t size,
                                std::vector<StoreRecord>* out) {
  std::size_t pos = 0;
  while (pos < size) {
    if (size - pos < kRecordHeaderBytes) break;  // torn header
    const std::uint8_t* rec = data + pos;
    if (load_u32(rec) != kRecordMagic) break;  // corrupt magic
    const std::uint32_t payload_len = load_u32(rec + 4);
    if (size - pos - kRecordHeaderBytes < payload_len) break;  // torn
    StoreRecord record;
    record.key.hi = load_u64(rec + 8);
    record.key.lo = load_u64(rec + 16);
    const std::uint32_t crc = load_u32(rec + 24);
    const std::uint8_t* payload = rec + kRecordHeaderBytes;
    if (crc32(payload, payload_len) != crc) break;  // corrupt payload
    record.payload.assign(payload, payload + payload_len);
    out->push_back(std::move(record));
    pos += kRecordHeaderBytes + payload_len;
  }
  return pos;
}

bool check_store_header(const std::uint8_t* data, std::size_t size) {
  static_assert(sizeof(kHeader) == kStoreHeaderBytes);
  return size >= sizeof(kHeader) &&
         std::memcmp(data, kHeader, sizeof(kHeader)) == 0;
}

VerdictStore::VerdictStore(std::string path) : path_(std::move(path)) {
  slots_.assign(64, 0);
  mask_ = slots_.size() - 1;
  // An in-memory store is the same log over an anonymous file, so hits are
  // read back and checked exactly as they are from a file on disk.
  fd_ = path_.empty()
            ? ::memfd_create("wfregs-verdicts", MFD_CLOEXEC)
            : ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    throw std::runtime_error(
        "VerdictStore: cannot open " +
        (path_.empty() ? std::string("an in-memory log") : path_) + ": " +
        std::strerror(errno));
  }
  try {
    replay();
  } catch (...) {
    ::close(fd_);  // the destructor does not run for a throwing constructor
    throw;
  }
}

VerdictStore::~VerdictStore() { ::close(fd_); }

void VerdictStore::replay() {
  // Read the whole file; an empty file gets the header written, anything
  // else must start with it.
  std::vector<std::uint8_t> data;
  {
    std::array<std::uint8_t, 65536> buf;
    for (;;) {
      const ssize_t n = ::read(fd_, buf.data(), buf.size());
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("VerdictStore: read failed: ") +
                                 std::strerror(errno));
      }
      if (n == 0) break;
      data.insert(data.end(), buf.data(), buf.data() + n);
    }
  }
  if (data.empty()) {
    pwrite_all(fd_, reinterpret_cast<const std::uint8_t*>(kHeader),
               sizeof(kHeader), 0);
    end_ = sizeof(kHeader);
    return;
  }
  if (!check_store_header(data.data(), data.size())) {
    throw std::runtime_error("VerdictStore: " + path_ +
                             " is not a verdict log (bad header)");
  }

  std::vector<StoreRecord> records;
  const std::size_t committed =
      sizeof(kHeader) + parse_store_records(data.data() + sizeof(kHeader),
                                            data.size() - sizeof(kHeader),
                                            &records);
  // Committed records are contiguous from the header on: index each by its
  // offset (last writer wins on duplicate keys).  A record of an earlier
  // verdict encoding stays in the log but is not indexed, so its job is a
  // miss and is recomputed.
  std::uint64_t offset = sizeof(kHeader);
  for (const StoreRecord& record : records) {
    const auto len = static_cast<std::uint32_t>(record.payload.size());
    if (verdict_version_current(record.payload.data(), len)) {
      index_record(Record{record.key, offset, len});
    }
    offset += kRecordHeaderBytes + len;
  }
  if (committed < data.size()) {
    // Torn or corrupt tail: drop it so the next append lands on a clean
    // record boundary.
    recovered_drop_ = 1;
    if (::ftruncate(fd_, static_cast<off_t>(committed)) != 0) {
      throw std::runtime_error(
          std::string("VerdictStore: truncate failed: ") +
          std::strerror(errno));
    }
  }
  end_ = committed;
}

std::uint32_t VerdictStore::find_slot(const JobKey& key) const {
  std::size_t slot = key_probe_hash(key) & mask_;
  while (slots_[slot] != 0 && !(records_[slots_[slot] - 1].key == key)) {
    slot = (slot + 1) & mask_;
  }
  return static_cast<std::uint32_t>(slot);
}

void VerdictStore::index_record(const Record& record) {
  const std::uint32_t slot = find_slot(record.key);
  if (slots_[slot] != 0) {
    records_[slots_[slot] - 1] = record;
    return;
  }
  records_.push_back(record);
  if ((records_.size() + 1) * 4 >= slots_.size() * 3) grow();
  slots_[find_slot(record.key)] = static_cast<std::uint32_t>(records_.size());
}

void VerdictStore::grow() {
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(old.size() * 2, 0);
  mask_ = slots_.size() - 1;
  for (const std::uint32_t id : old) {
    if (id != 0) slots_[find_slot(records_[id - 1].key)] = id;
  }
}

bool VerdictStore::read_payload(const Record& record,
                                std::vector<std::uint8_t>* payload) const {
  std::vector<std::uint8_t> rec(kRecordHeaderBytes + record.len);
  std::size_t got = 0;
  while (got < rec.size()) {
    const ssize_t n =
        ::pread(fd_, rec.data() + got, rec.size() - got,
                static_cast<off_t>(record.offset + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("VerdictStore: read failed: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      throw std::runtime_error("VerdictStore: record at offset " +
                               std::to_string(record.offset) +
                               " lies past the end of the log");
    }
    got += static_cast<std::size_t>(n);
  }
  const std::uint8_t* payload_bytes = rec.data() + kRecordHeaderBytes;
  if (load_u32(rec.data()) != kRecordMagic ||
      load_u32(rec.data() + 4) != record.len ||
      load_u64(rec.data() + 8) != record.key.hi ||
      load_u64(rec.data() + 16) != record.key.lo ||
      load_u32(rec.data() + 24) != crc32(payload_bytes, record.len)) {
    return false;
  }
  payload->assign(payload_bytes, payload_bytes + record.len);
  return true;
}

std::optional<std::vector<std::uint8_t>> VerdictStore::lookup_encoded(
    const JobKey& key) const {
  const std::uint32_t slot = find_slot(key);
  if (slots_[slot] == 0) return std::nullopt;
  const Record& record = records_[slots_[slot] - 1];
  std::vector<std::uint8_t> payload;
  if (!read_payload(record, &payload)) {
    throw std::runtime_error("VerdictStore: record at offset " +
                             std::to_string(record.offset) +
                             " changed on disk (magic, key or CRC mismatch)");
  }
  return payload;
}

std::optional<Verdict> VerdictStore::lookup(const JobKey& key) const {
  const auto bytes = lookup_encoded(key);
  if (!bytes) return std::nullopt;
  return decode_verdict(bytes->data(), bytes->size());
}

void VerdictStore::put(const JobKey& key, const Verdict& verdict) {
  put_encoded(key, encode_verdict(verdict));
}

void VerdictStore::put_encoded(const JobKey& key,
                               std::vector<std::uint8_t> payload) {
  // Validate before committing: a malformed payload (a bad merge source)
  // must fail loudly, not poison the log.
  decode_verdict(payload.data(), payload.size());
  index_record(append_record(key, payload));
}

bool VerdictStore::merge_encoded(const JobKey& key,
                                 const std::vector<std::uint8_t>& payload) {
  if (!verdict_version_current(payload.data(), payload.size())) return false;
  const std::uint32_t slot = find_slot(key);
  if (slots_[slot] != 0) {
    std::vector<std::uint8_t> held;
    if (read_payload(records_[slots_[slot] - 1], &held) && held == payload) {
      return false;  // idempotent: identical record already committed
    }
  }
  put_encoded(key, payload);
  return true;
}

VerdictStore::Record VerdictStore::append_record(
    const JobKey& key, const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> rec(kRecordHeaderBytes + payload.size());
  store_u32(rec.data(), kRecordMagic);
  store_u32(rec.data() + 4, static_cast<std::uint32_t>(payload.size()));
  store_u64(rec.data() + 8, key.hi);
  store_u64(rec.data() + 16, key.lo);
  store_u32(rec.data() + 24, crc32(payload.data(), payload.size()));
  std::memcpy(rec.data() + kRecordHeaderBytes, payload.data(), payload.size());
  // One write per record at the end of the log: the kernel sees the whole
  // record at once, so a SIGKILL between records never tears one (a machine
  // crash can still leave a prefix, which replay() truncates).
  pwrite_all(fd_, rec.data(), rec.size(), end_);
  const Record record{key, end_, static_cast<std::uint32_t>(payload.size())};
  end_ += rec.size();
  return record;
}

}  // namespace wfregs::service
