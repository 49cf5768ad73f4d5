#include "wfregs/service/protocol.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "wfregs/storage/bytes.hpp"

namespace wfregs::service {

namespace {

void write_all(int fd, const std::uint8_t* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write_frame: ") +
                               std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
}

/// Reads exactly `size` bytes; returns false on EOF before the first byte,
/// throws on error or EOF mid-read.
bool read_all(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, data + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("read_frame: ") +
                               std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0) return false;
      throw std::runtime_error("read_frame: EOF mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

void write_frame(int fd, const Frame& frame) {
  std::vector<std::uint8_t> buf;
  buf.reserve(5 + frame.payload.size());
  storage::put_u32(buf, static_cast<std::uint32_t>(1 + frame.payload.size()));
  storage::put_u8(buf, static_cast<std::uint8_t>(frame.type));
  buf.insert(buf.end(), frame.payload.begin(), frame.payload.end());
  write_all(fd, buf.data(), buf.size());
}

std::optional<Frame> read_frame(int fd) {
  std::uint8_t head[4];
  if (!read_all(fd, head, 4)) return std::nullopt;
  const std::uint32_t len =
      storage::ByteReader(head, sizeof(head), "read_frame").u32();
  if (len < 1) throw std::runtime_error("read_frame: zero-length frame");
  if (len > kMaxFrame) throw std::runtime_error("read_frame: oversized frame");
  std::vector<std::uint8_t> body(len);
  if (!read_all(fd, body.data(), body.size())) {
    throw std::runtime_error("read_frame: EOF mid-frame");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(body[0]);
  frame.payload.assign(reinterpret_cast<const char*>(body.data() + 1),
                       body.size() - 1);
  return frame;
}

std::string pack_batch(const std::vector<std::string>& items) {
  std::string out;
  std::size_t total = 4;
  for (const std::string& item : items) total += 4 + item.size();
  out.reserve(total);
  storage::put_u32(out, static_cast<std::uint32_t>(items.size()));
  for (const std::string& item : items) storage::put_bytes(out, item);
  return out;
}

std::vector<std::string> unpack_batch(const std::string& payload) {
  storage::ByteReader in(payload.data(), payload.size(), "unpack_batch");
  // Each item costs at least its 4-byte length prefix.
  std::vector<std::string> items(in.count(4));
  for (std::string& item : items) item = in.string();
  in.expect_done();
  return items;
}

}  // namespace wfregs::service
