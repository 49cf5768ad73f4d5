// The little-endian byte codec behind every binary format in the repo: the
// record-log framing, the verdict store's key, encode_verdict, the
// checkpoint snapshots and key batches, and the wire protocol's frame
// length and batches.
//
// Writers append to any byte container (std::vector<std::uint8_t> or
// std::string).  ByteReader is the one way to read such bytes back: every
// read is bounds-checked, and every count is checked as count x width
// against the bytes that remain BEFORE anything is reserved, so a hostile
// count cannot allocate.  A failed check throws DecodeError (a
// std::runtime_error) naming the decoder; callers whose rule is
// "malformed -> unusable" catch it at their boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace wfregs::storage {

/// What ByteReader throws on malformed bytes.
struct DecodeError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

template <class Out>
void put_u8(Out& out, std::uint8_t v) {
  out.push_back(static_cast<typename Out::value_type>(v));
}

template <class Out>
void put_u32(Out& out, std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    put_u8(out, static_cast<std::uint8_t>(v >> (8 * k)));
  }
}

template <class Out>
void put_u64(Out& out, std::uint64_t v) {
  for (int k = 0; k < 8; ++k) {
    put_u8(out, static_cast<std::uint8_t>(v >> (8 * k)));
  }
}

/// len:u32 then the bytes.
template <class Out, class Bytes>
void put_bytes(Out& out, const Bytes& bytes) {
  put_u32(out, static_cast<std::uint32_t>(bytes.size()));
  out.insert(out.end(), bytes.begin(), bytes.end());
}

/// count:u32 then each value as a u64.
template <class Out, class Words>
void put_u64s(Out& out, const Words& words) {
  put_u32(out, static_cast<std::uint32_t>(words.size()));
  for (const auto w : words) put_u64(out, w);
}

class ByteReader {
 public:
  /// `what` prefixes every error message (the decoder's name).
  ByteReader(const void* data, std::size_t size, const char* what)
      : p_(static_cast<const std::uint8_t*>(data)), n_(size), what_(what) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() {
    const std::uint8_t* b = take(4);
    std::uint32_t v = 0;
    for (int k = 0; k < 4; ++k) {
      v |= static_cast<std::uint32_t>(b[k]) << (8 * k);
    }
    return v;
  }
  std::uint64_t u64() {
    const std::uint8_t* b = take(8);
    std::uint64_t v = 0;
    for (int k = 0; k < 8; ++k) {
      v |= static_cast<std::uint64_t>(b[k]) << (8 * k);
    }
    return v;
  }

  /// A u32 count of items that each take at least `width` bytes; throws
  /// unless count x width bytes remain.
  std::uint32_t count(std::size_t width) {
    const std::uint32_t c = u32();
    if (static_cast<std::uint64_t>(c) * width > n_) {
      fail("count exceeds payload");
    }
    return c;
  }

  /// The next `len` bytes, unread.
  std::span<const std::uint8_t> bytes(std::size_t len) {
    return {take(len), len};
  }
  /// put_bytes' inverse.
  std::string string() {
    const std::span<const std::uint8_t> b = bytes(count(1));
    return {reinterpret_cast<const char*>(b.data()), b.size()};
  }
  /// put_u64s' inverse.
  std::vector<std::uint64_t> u64s() {
    std::vector<std::uint64_t> v(count(8));
    for (std::uint64_t& w : v) w = u64();
    return v;
  }

  std::size_t remaining() const { return n_; }
  /// Throws unless every byte was read.
  void expect_done() const {
    if (n_ != 0) fail("trailing bytes");
  }

 private:
  const std::uint8_t* take(std::size_t len) {
    if (len > n_) fail("truncated payload");
    const std::uint8_t* at = p_;
    p_ += len;
    n_ -= len;
    return at;
  }
  [[noreturn]] void fail(const char* why) const {
    throw DecodeError(std::string(what_) + ": " + why);
  }

  const std::uint8_t* p_;
  std::size_t n_;
  const char* what_;
};

}  // namespace wfregs::storage
