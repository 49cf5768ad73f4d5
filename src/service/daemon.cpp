#include "wfregs/service/daemon.hpp"

#include <unistd.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "wfregs/service/protocol.hpp"

namespace wfregs::service {

Daemon::Daemon(DaemonOptions options) : options_(std::move(options)) {
  if (options_.socket_path.empty() && options_.tcp.empty()) {
    throw std::runtime_error("Daemon: no listener configured");
  }
  loop_ = std::make_unique<EventLoop>(
      [this](std::uint64_t conn, Frame&& frame) {
        on_frame(conn, std::move(frame));
      });
  if (!options_.socket_path.empty()) {
    Endpoint ep;
    ep.kind = Endpoint::Kind::kUnix;
    ep.path = options_.socket_path;
    loop_->add_listener(listen_endpoint(ep));
  }
  if (!options_.tcp.empty()) {
    const Endpoint ep = parse_endpoint(options_.tcp);
    if (ep.kind != Endpoint::Kind::kTcp) {
      throw std::runtime_error("Daemon: tcp option must be a tcp: endpoint");
    }
    const int fd = listen_endpoint(ep);
    tcp_port_ = local_tcp_port(fd);
    loop_->add_listener(fd);
  }
  scheduler_ = std::make_unique<JobScheduler>(options_.scheduler);
}

Daemon::~Daemon() {
  loop_.reset();  // close fds before unlinking the socket
  if (!options_.socket_path.empty()) ::unlink(options_.socket_path.c_str());
}

std::uint64_t Daemon::run() {
  while (!stopping_) {
    if (stop_.load(std::memory_order_acquire)) stopping_ = true;
    loop_->step(std::chrono::milliseconds(100));
  }
  // Final replies (the shutdown acknowledgement included) must reach their
  // clients before the scheduler drain blocks us.
  loop_->flush_all(std::chrono::milliseconds(500));
  scheduler_->drain();
  return served_;
}

void Daemon::on_frame(std::uint64_t conn, Frame&& frame) {
  bool shutdown_requested = false;
  Frame reply;
  try {
    reply.type = FrameType::kReply;
    reply.payload = handle_request(frame, &shutdown_requested);
  } catch (const std::exception& e) {
    reply.type = FrameType::kError;
    reply.payload = e.what();
  }
  loop_->send(conn, reply);
  ++served_;
  if (shutdown_requested) stopping_ = true;
}

std::string Daemon::submit_one(const std::string& text) {
  const VerifyJob job = parse_job(text);
  const Submitted s = scheduler_->try_submit(job);
  std::ostringstream out;
  out << "{\"key\":\"" << job_key_hex(s.key) << "\",\"status\":\"";
  if (s.cached) {
    out << "cached\",\"verdict\":" << verdict_to_json(s.result.get());
  } else if (s.coalesced) {
    out << "coalesced\"";
  } else if (s.rejected) {
    out << "rejected\"";
  } else {
    out << "queued\"";
  }
  out << "}";
  return out.str();
}

std::string Daemon::poll_one(const std::string& hex) {
  const JobKey key = parse_job_key(hex);
  const std::optional<JobStatus> status = scheduler_->poll(key);
  std::ostringstream out;
  out << "{\"key\":\"" << job_key_hex(key) << "\",\"status\":\"";
  if (!status) {
    out << "unknown\"}";
    return out.str();
  }
  out << job_state_name(status->state)
      << "\",\"from_cache\":" << (status->from_cache ? 1 : 0);
  if (status->state == JobState::kDone ||
      status->state == JobState::kCancelled ||
      status->state == JobState::kFailed) {
    out << ",\"verdict\":" << verdict_to_json(status->verdict);
  }
  out << "}";
  return out.str();
}

std::string Daemon::handle_request(const Frame& request, bool* shutdown) {
  switch (request.type) {
    case FrameType::kSubmit:
      return submit_one(request.payload);
    case FrameType::kPoll:
      return poll_one(request.payload);
    case FrameType::kBatchSubmit: {
      const std::vector<std::string> items = unpack_batch(request.payload);
      std::ostringstream out;
      out << "[";
      for (std::size_t k = 0; k < items.size(); ++k) {
        if (k) out << ",";
        out << submit_one(items[k]);
      }
      out << "]";
      return out.str();
    }
    case FrameType::kBatchPoll: {
      const std::vector<std::string> items = unpack_batch(request.payload);
      std::ostringstream out;
      out << "[";
      for (std::size_t k = 0; k < items.size(); ++k) {
        if (k) out << ",";
        out << poll_one(items[k]);
      }
      out << "]";
      return out.str();
    }
    case FrameType::kStats:
      return metrics_to_json(scheduler_->metrics());
    case FrameType::kShutdown:
      *shutdown = true;
      return "{\"status\":\"draining\"}";
    default:
      throw std::runtime_error("unknown request frame type");
  }
}

}  // namespace wfregs::service
