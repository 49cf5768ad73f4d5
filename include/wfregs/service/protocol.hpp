// The wfregsd wire protocol: length-prefixed frames over a stream socket
// (Unix-domain or TCP -- see transport.hpp for endpoint addressing).
//
//   frame  := len:u32 (LE, = 1 + payload size) type:u8 payload
//
// Request types (client -> daemon):
//   kSubmit      payload = canonical job text (print_job output)
//   kPoll        payload = 32-hex-digit job key
//   kStats       payload empty
//   kShutdown    payload empty (daemon drains and exits)
//   kBatchSubmit payload = pack_batch(job texts); one reply frame carries
//                a JSON array of per-job submit objects, in order
//   kBatchPoll   payload = pack_batch(32-hex keys); one reply frame
//                carries a JSON array of per-key poll objects, in order
//
// Response types (daemon -> client):
//   kReply    payload = one JSON value; every request gets exactly one
//   kError    payload = human-readable message (protocol/parse errors)
//
// Reply shapes:
//   submit -> {"key":"<hex>","status":"cached|queued|coalesced|rejected",
//              "verdict":{...}}          (verdict only when cached)
//   poll   -> {"key":"<hex>","status":"queued|running|done|cancelled|
//              failed|unknown","from_cache":0|1,"verdict":{...}}
//   stats  -> the metrics_to_json object
//   shutdown -> {"status":"draining"}
//
// "rejected" is the backpressure verdict (the EAGAIN of this protocol): the
// bounded admission queue is full and the client should retry later --
// never an unbounded queue on the server side.
//
// Frames are capped at kMaxFrame to keep a bad length prefix from
// allocating unbounded memory.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace wfregs::service {

enum class FrameType : std::uint8_t {
  kSubmit = 1,
  kPoll = 2,
  kStats = 3,
  kShutdown = 4,
  kBatchSubmit = 5,
  kBatchPoll = 6,
  kReply = 0x81,
  kError = 0xFF,
};

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// 16 MiB: far above any real job text, far below a memory hazard.
inline constexpr std::uint32_t kMaxFrame = 16u << 20;

/// Blocking full-frame write on `fd`; throws std::runtime_error on I/O
/// failure (EINTR retried).
void write_frame(int fd, const Frame& frame);

/// Blocking full-frame read; nullopt on clean EOF at a frame boundary,
/// throws on I/O failure, oversized length, or mid-frame EOF.
std::optional<Frame> read_frame(int fd);

/// Packs items (arbitrary bytes, job text or binary verdicts alike) as
///   count:u32 (item_len:u32 item_bytes)*
/// -- the payload format of every batch frame.
std::string pack_batch(const std::vector<std::string>& items);

/// Inverse of pack_batch; throws std::runtime_error on truncated or
/// malformed payloads (the count and every length prefix are validated
/// against the payload size).
std::vector<std::string> unpack_batch(const std::string& payload);

}  // namespace wfregs::service
