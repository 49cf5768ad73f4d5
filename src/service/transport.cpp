#include "wfregs/service/transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

namespace wfregs::service {

namespace {

int checked_socket(int domain) {
  const int fd = ::socket(domain, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  }
  return fd;
}

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("bad unix socket path: " + path);
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return addr;
}

sockaddr_in tcp_addr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw std::runtime_error("bad tcp host (numeric IPv4 only): " + ep.host);
  }
  return addr;
}

std::uint16_t parse_port(const std::string& text) {
  if (text.empty()) throw std::runtime_error("empty tcp port");
  char* end = nullptr;
  const long port = std::strtol(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || port < 0 || port > 65535) {
    throw std::runtime_error("bad tcp port: " + text);
  }
  return static_cast<std::uint16_t>(port);
}

}  // namespace

Endpoint parse_endpoint(const std::string& spec) {
  Endpoint ep;
  if (spec.rfind("tcp:", 0) == 0) {
    ep.kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      ep.host = "127.0.0.1";
      ep.port = parse_port(rest);
    } else {
      ep.host = rest.substr(0, colon);
      ep.port = parse_port(rest.substr(colon + 1));
    }
    if (ep.host.empty()) ep.host = "127.0.0.1";
    return ep;
  }
  ep.kind = Endpoint::Kind::kUnix;
  ep.path = spec.rfind("unix:", 0) == 0 ? spec.substr(5) : spec;
  if (ep.path.empty()) throw std::runtime_error("empty endpoint: " + spec);
  return ep;
}

std::string endpoint_to_string(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kTcp) {
    return "tcp:" + ep.host + ":" + std::to_string(ep.port);
  }
  return "unix:" + ep.path;
}

int listen_endpoint(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_addr(ep.path);
    const int fd = checked_socket(AF_UNIX);
    ::unlink(ep.path.c_str());  // stale socket from a crash
    if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd, 128) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("cannot listen on " + endpoint_to_string(ep) +
                               ": " + err);
    }
    return fd;
  }
  const sockaddr_in addr = tcp_addr(ep);
  const int fd = checked_socket(AF_INET);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd, 128) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot listen on " + endpoint_to_string(ep) +
                             ": " + err);
  }
  return fd;
}

int connect_endpoint(const Endpoint& ep) {
  if (ep.kind == Endpoint::Kind::kUnix) {
    const sockaddr_un addr = unix_addr(ep.path);
    const int fd = checked_socket(AF_UNIX);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      const std::string err = std::strerror(errno);
      ::close(fd);
      throw std::runtime_error("cannot connect to " + endpoint_to_string(ep) +
                               ": " + err);
    }
    return fd;
  }
  const sockaddr_in addr = tcp_addr(ep);
  const int fd = checked_socket(AF_INET);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("cannot connect to " + endpoint_to_string(ep) +
                             ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::uint16_t local_tcp_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw std::runtime_error(std::string("getsockname: ") +
                             std::strerror(errno));
  }
  return ntohs(addr.sin_port);
}

void set_nonblocking(int fd, bool on) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 ||
      ::fcntl(fd, F_SETFL, on ? (flags | O_NONBLOCK)
                              : (flags & ~O_NONBLOCK)) < 0) {
    throw std::runtime_error(std::string("fcntl(O_NONBLOCK): ") +
                             std::strerror(errno));
  }
}

bool FrameSplitter::next(Frame* out) {
  if (buf_.size() - pos_ < 4) return false;
  const auto* head = reinterpret_cast<const std::uint8_t*>(buf_.data() + pos_);
  std::uint32_t len = 0;
  for (int k = 0; k < 4; ++k) {
    len |= static_cast<std::uint32_t>(head[k]) << (8 * k);
  }
  if (len < 1) throw std::runtime_error("frame: zero-length frame");
  if (len > kMaxFrame) throw std::runtime_error("frame: oversized frame");
  if (buf_.size() - pos_ < 4 + static_cast<std::size_t>(len)) return false;
  out->type = static_cast<FrameType>(head[4]);
  out->payload.assign(buf_, pos_ + 5, len - 1);
  pos_ += 4 + static_cast<std::size_t>(len);
  // Compact once the consumed prefix dominates, keeping feed() amortized
  // linear without erasing per frame.
  if (pos_ > 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

bool read_available(int fd, FrameSplitter* in) {
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      in->feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // hard error: drop the connection
  }
}

EventLoop::EventLoop(FrameHandler on_frame) : on_frame_(std::move(on_frame)) {}

EventLoop::~EventLoop() {
  for (const int fd : listeners_) ::close(fd);
  for (auto& [id, c] : conns_) ::close(c.fd);
}

void EventLoop::add_listener(int fd) {
  set_nonblocking(fd, true);
  listeners_.push_back(fd);
}

std::uint64_t EventLoop::adopt(int fd) {
  set_nonblocking(fd, true);
  const std::uint64_t id = next_id_++;
  conns_[id].fd = fd;
  return id;
}

void EventLoop::send(std::uint64_t conn, const Frame& frame) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return;
  std::string& out = it->second.out;
  const std::uint32_t len =
      static_cast<std::uint32_t>(1 + frame.payload.size());
  for (int k = 0; k < 4; ++k) {
    out.push_back(static_cast<char>((len >> (8 * k)) & 0xFF));
  }
  out.push_back(static_cast<char>(frame.type));
  out.append(frame.payload);
}

bool EventLoop::flush_conn(Conn* c) {
  while (c->out_pos < c->out.size()) {
    const ssize_t n = ::write(c->fd, c->out.data() + c->out_pos,
                              c->out.size() - c->out_pos);
    if (n > 0) {
      c->out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;
  }
  if (c->out_pos == c->out.size() && c->out_pos > 0) {
    c->out.clear();
    c->out_pos = 0;
  }
  return true;
}

void EventLoop::drop(std::uint64_t id) {
  const auto it = conns_.find(id);
  if (it == conns_.end()) return;
  ::close(it->second.fd);
  conns_.erase(it);
}

void EventLoop::step(std::chrono::milliseconds timeout) {
  std::vector<pollfd> pfds;
  std::vector<std::uint64_t> ids;  // ids[k - listeners] for conn pfds
  pfds.reserve(listeners_.size() + conns_.size());
  for (const int fd : listeners_) {
    pfds.push_back({fd, POLLIN, 0});
  }
  for (const auto& [id, c] : conns_) {
    short events = POLLIN;
    if (c.out_pos < c.out.size()) events |= POLLOUT;
    pfds.push_back({c.fd, events, 0});
    ids.push_back(id);
  }

  const int r = ::poll(pfds.data(), pfds.size(),
                       static_cast<int>(timeout.count()));
  if (r < 0) {
    if (errno == EINTR) return;
    throw std::runtime_error(std::string("EventLoop: poll: ") +
                             std::strerror(errno));
  }
  if (r == 0) return;

  // Accept every pending connection on every ready listener.
  for (std::size_t k = 0; k < listeners_.size(); ++k) {
    if ((pfds[k].revents & POLLIN) == 0) continue;
    for (;;) {
      const int fd = ::accept(listeners_[k], nullptr, nullptr);
      if (fd < 0) break;  // EAGAIN, EINTR, transient failure: next step
      adopt(fd);
    }
  }

  for (std::size_t k = 0; k < ids.size(); ++k) {
    const pollfd& p = pfds[listeners_.size() + k];
    const std::uint64_t id = ids[k];
    const auto it = conns_.find(id);

    if (p.revents & (POLLIN | POLLHUP | POLLERR)) {
      const bool open = read_available(it->second.fd, &it->second.in);
      // Dispatch EVERY complete frame buffered on this connection: a
      // pipelined client must not be latency-bound on poll wakeups.
      bool framing_ok = true;
      for (;;) {
        Frame frame;
        bool have = false;
        try {
          have = it->second.in.next(&frame);
        } catch (const std::exception&) {
          framing_ok = false;  // malformed length prefix
        }
        if (!framing_ok || !have) break;
        on_frame_(id, std::move(frame));
      }
      if (!open || !framing_ok) {
        // Peer EOF / error / protocol violation: flush what we owe (error
        // replies included), then drop.
        flush_conn(&it->second);
        drop(id);
        continue;
      }
    }

    if (!flush_conn(&it->second)) drop(id);
  }
}

void EventLoop::flush_all(std::chrono::milliseconds deadline) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  for (auto& [id, c] : conns_) {
    set_nonblocking(c.fd, true);
    while (c.out_pos < c.out.size() &&
           std::chrono::steady_clock::now() < until) {
      pollfd p{c.fd, POLLOUT, 0};
      if (::poll(&p, 1, 50) <= 0) continue;
      if (!flush_conn(&c)) break;
    }
  }
}

}  // namespace wfregs::service
