// The daemon's client side: one blocking connection, one JSON reply per
// request.  wfregs_cli's --server mode is a thin wrapper over this.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "wfregs/service/job.hpp"

namespace wfregs::service {

class Client {
 public:
  /// Connects to a daemon; `endpoint` is any
  /// transport.hpp spec (a bare Unix socket path, "unix:<path>" or
  /// "tcp:<host>:<port>").  Throws std::runtime_error when the connection
  /// fails.
  explicit Client(const std::string& endpoint);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Submits canonical job text; returns the daemon's JSON reply.
  std::string submit(const std::string& job_text);

  /// Submits N jobs in ONE frame pair (kBatchSubmit); the reply is a JSON
  /// array of per-job submit objects, in order.
  std::string submit_batch(const std::vector<std::string>& job_texts);

  /// Polls a key (hex form); returns the daemon's JSON reply.
  std::string poll(const std::string& key_hex);

  /// Polls N keys in one frame pair; JSON array of poll objects, in order.
  std::string poll_batch(const std::vector<std::string>& key_hexes);

  /// Polls until the reply's status leaves queued/running, sleeping
  /// `interval` between probes.  Returns the final JSON reply.
  std::string wait(const std::string& key_hex,
                   std::chrono::milliseconds interval =
                       std::chrono::milliseconds(20));

  /// Metrics JSON.
  std::string stats();

  /// Asks the daemon to drain and exit; returns its acknowledgement.
  std::string shutdown();

 private:
  std::string roundtrip(std::uint8_t type, const std::string& payload);
  int fd_ = -1;
};

}  // namespace wfregs::service
