#include "wfregs/service/store.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "wfregs/runtime/config_intern.hpp"
#include "wfregs/storage/bytes.hpp"

namespace wfregs::service {

namespace {

/// key_hi + key_lo ahead of the verdict bytes.
constexpr std::size_t kKeyBytes = 16;

std::uint64_t key_probe_hash(const JobKey& key) {
  const std::array<std::uint64_t, 2> words = {key.hi, key.lo};
  return config_hash_words(words);
}

}  // namespace

std::optional<VerdictRecord> parse_verdict_record(
    const storage::LogRecord& rec) {
  if (rec.tag != kVerdictTag || rec.payload.size() < kKeyBytes) {
    return std::nullopt;
  }
  storage::ByteReader in(rec.payload.data(), kKeyBytes, "verdict record");
  VerdictRecord out;
  out.key.hi = in.u64();
  out.key.lo = in.u64();
  out.verdict = std::span(rec.payload).subspan(kKeyBytes);
  return out;
}

VerdictStore::VerdictStore(std::string path)
    : log_(std::move(path), kVerdictLogMagic) {
  slots_.assign(64, 0);
  mask_ = slots_.size() - 1;
  // Index each committed record by its offset (last writer wins on
  // duplicate keys).  A record of an earlier verdict encoding stays in the
  // log but is not indexed, so its job is a miss and is recomputed; a
  // record that is not a verdict record is corrupt and truncated away with
  // everything after it.
  for (const storage::LogRecord& rec : log_.take_records()) {
    const auto record = parse_verdict_record(rec);
    if (!record) {
      log_.truncate_to(rec.offset);
      recovered_drop_ = 1;
      break;
    }
    if (verdict_version_current(record->verdict.data(),
                                record->verdict.size())) {
      index_record(Record{record->key, rec.offset,
                          static_cast<std::uint32_t>(rec.payload.size())});
    }
  }
  if (log_.dropped_bytes() > 0) recovered_drop_ = 1;
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

std::optional<std::vector<std::uint8_t>> VerdictStore::read_verdict(
    const Record& record) const {
  auto payload = log_.read_at(record.offset, kVerdictTag, record.len);
  if (!payload) return std::nullopt;
  storage::ByteReader in(payload->data(), payload->size(), "verdict record");
  const JobKey key{in.u64(), in.u64()};
  if (!(key == record.key)) return std::nullopt;
  payload->erase(payload->begin(), payload->begin() + kKeyBytes);
  return payload;
}

std::optional<std::vector<std::uint8_t>> VerdictStore::lookup_encoded(
    const JobKey& key) const {
  const std::uint32_t slot = find_slot(key);
  if (slots_[slot] == 0) return std::nullopt;
  const Record& record = records_[slots_[slot] - 1];
  auto verdict = read_verdict(record);
  if (!verdict) {
    throw std::runtime_error("VerdictStore: record at offset " +
                             std::to_string(record.offset) +
                             " changed on disk (framing, CRC or key mismatch)");
  }
  return verdict;
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
                               std::span<const std::uint8_t> payload) {
  // Validate before committing: a malformed payload (a bad merge source)
  // must fail loudly, not poison the log.
  decode_verdict(payload.data(), payload.size());
  std::vector<std::uint8_t> rec;
  rec.reserve(kKeyBytes + payload.size());
  storage::put_u64(rec, key.hi);
  storage::put_u64(rec, key.lo);
  rec.insert(rec.end(), payload.begin(), payload.end());
  const std::uint64_t offset = log_.append(kVerdictTag, rec.data(), rec.size());
  index_record(Record{key, offset, static_cast<std::uint32_t>(rec.size())});
}

bool VerdictStore::merge_encoded(const JobKey& key,
                                 std::span<const std::uint8_t> payload) {
  if (!verdict_version_current(payload.data(), payload.size())) return false;
  const std::uint32_t slot = find_slot(key);
  if (slots_[slot] != 0) {
    const auto held = read_verdict(records_[slots_[slot] - 1]);
    if (held && std::equal(held->begin(), held->end(), payload.begin(),
                           payload.end())) {
      return false;  // idempotent: identical record already committed
    }
  }
  put_encoded(key, payload);
  return true;
}

}  // namespace wfregs::service
