// Transport for the service layer: endpoint addressing (Unix-domain or
// TCP), an incremental frame parser, and the poll()-based event loop the
// daemon (wfregsd) serves on.
//
// Endpoints are spelled as strings so every flag and API that used to take
// a socket path keeps working:
//
//   /tmp/wfregsd.sock          Unix-domain socket (bare path, the old form)
//   unix:/tmp/wfregsd.sock     the same, explicit
//   tcp:127.0.0.1:7461         TCP over loopback (numeric host only)
//   tcp:7461                   TCP, host defaults to 127.0.0.1
//
// TCP listeners may bind port 0 (ephemeral); local_tcp_port() reads the
// kernel-assigned port back so tests and in-process daemons never race on a
// fixed port.
//
// The EventLoop is the boson event_loop shape: one thread, one poll() over
// every listener and connection, per-connection input/output buffers.  A
// readable connection is drained to EAGAIN and EVERY complete frame in the
// buffer is dispatched in that same wakeup -- a client that pipelines N
// frames in one send() gets N replies without waiting on further poll
// cycles (see tests/service_daemon.cpp, PipelinedFrames*).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "wfregs/service/protocol.hpp"

namespace wfregs::service {

struct Endpoint {
  enum class Kind : std::uint8_t { kUnix = 0, kTcp = 1 };
  Kind kind = Kind::kUnix;
  std::string path;         ///< kUnix: the socket path
  std::string host;         ///< kTcp: numeric address, e.g. "127.0.0.1"
  std::uint16_t port = 0;   ///< kTcp: port (0 = ephemeral when listening)
};

/// Parses the endpoint spellings above; throws std::runtime_error on a
/// malformed spec (empty, bad port, non-numeric TCP host).
Endpoint parse_endpoint(const std::string& spec);

/// The canonical spelling ("unix:<path>" / "tcp:<host>:<port>").
std::string endpoint_to_string(const Endpoint& ep);

/// Binds + listens; returns the CLOEXEC listening fd.  Unix listeners
/// unlink a stale socket first; TCP listeners set SO_REUSEADDR.  Throws on
/// failure.
int listen_endpoint(const Endpoint& ep);

/// Blocking connect; returns the CLOEXEC fd (TCP_NODELAY on TCP -- the
/// frames are small and latency-bound).  Throws on failure.
int connect_endpoint(const Endpoint& ep);

/// The kernel-assigned local port of a bound TCP fd (for port-0 listeners).
std::uint16_t local_tcp_port(int fd);

void set_nonblocking(int fd, bool on);

/// Incremental frame parser: feed() bytes as they arrive, next() yields
/// complete frames.  Throws std::runtime_error on a malformed length
/// prefix (zero or beyond kMaxFrame) -- the caller should drop the
/// connection, exactly like read_frame().
class FrameSplitter {
 public:
  void feed(const char* data, std::size_t n) { buf_.append(data, n); }

  /// Extracts the next complete frame into *out; false = need more bytes.
  bool next(Frame* out);

  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  ///< consumed prefix, compacted lazily
};

/// Nonblocking read of everything currently available on `fd` into the
/// splitter.  Returns false when the peer closed or the connection errored
/// (the fd should be dropped); true means the connection is still open
/// (possibly with zero new bytes).
bool read_available(int fd, FrameSplitter* in);

/// Single-threaded poll() event loop over listeners and framed
/// connections.  Not thread-safe: construct, add listeners and step() from
/// one thread.  Connections are identified by a monotonically increasing
/// id (never reused), so a handler holding a stale id simply no-ops.
class EventLoop {
 public:
  /// Called once per complete frame (every buffered frame per wakeup).
  using FrameHandler = std::function<void(std::uint64_t conn, Frame&& frame)>;

  explicit EventLoop(FrameHandler on_frame);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Adds a listening fd (takes ownership; made nonblocking).
  void add_listener(int fd);

  /// Queues a frame on `conn`; flushed opportunistically and under
  /// POLLOUT.  Unknown ids are ignored (the connection already closed).
  void send(std::uint64_t conn, const Frame& frame);

  /// One poll cycle: accept, read (dispatching every buffered frame),
  /// flush.  Returns after `timeout` when nothing happens.
  void step(std::chrono::milliseconds timeout);

  /// Best-effort blocking flush of every pending output buffer (bounded by
  /// `deadline`); used on shutdown so final replies are not lost.
  void flush_all(std::chrono::milliseconds deadline);

 private:
  struct Conn {
    int fd = -1;
    FrameSplitter in;
    std::string out;
    std::size_t out_pos = 0;  ///< flushed prefix of `out`
  };

  /// Takes ownership of an accepted connection fd; returns its id.
  std::uint64_t adopt(int fd);
  bool flush_conn(Conn* c);  ///< false = fatal write error
  void drop(std::uint64_t id);

  FrameHandler on_frame_;
  std::vector<int> listeners_;
  std::map<std::uint64_t, Conn> conns_;
  std::uint64_t next_id_ = 1;
};

}  // namespace wfregs::service
