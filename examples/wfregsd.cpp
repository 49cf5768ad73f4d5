// wfregsd -- the verification daemon: serve framed requests on a Unix
// socket and/or a TCP endpoint, scheduling jobs on a local worker pool.
//
//     wfregsd --socket /tmp/wfregsd.sock [--listen-tcp 7461]
//             [--store verdicts.log] [--workers N] [--explore-threads N]
//             [--queue-capacity N] [--deadline-ms N]
//
// SIGINT / SIGTERM (or a client shutdown request) drain and exit cleanly;
// the final stats snapshot goes to stdout as JSON.
//
// Exit codes follow the CLI convention: 0 = clean shutdown, 2 = usage or
// startup error.
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <string>

#include "wfregs/service/daemon.hpp"
#include "wfregs/service/metrics.hpp"

namespace {

wfregs::service::Daemon* g_daemon = nullptr;

void on_signal(int) {
  // request_stop() is a single atomic store: safe from a signal handler.
  if (g_daemon != nullptr) g_daemon->request_stop();
}

bool parse_int_flag(const std::string& value, long min, long* out) {
  char* end = nullptr;
  const long n = std::strtol(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || n < min) return false;
  *out = n;
  return true;
}

/// --listen-tcp accepts "7461", "tcp:7461" or "tcp:host:port"; normalize to
/// an endpoint spec.
std::string normalize_tcp(const std::string& value) {
  if (value.rfind("tcp:", 0) == 0) return value;
  return "tcp:" + value;
}

int usage() {
  std::cerr
      << "usage: wfregsd [--socket <path>] [--listen-tcp <port>] "
         "[--store <path>]\n"
         "               [--workers N] [--explore-threads N] "
         "[--queue-capacity N] [--deadline-ms N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string listen_tcp;
  std::string store_path;
  wfregs::service::SchedulerOptions sched;

  for (int k = 1; k < argc; ++k) {
    const std::string flag = argv[k];
    const std::string value = k + 1 < argc ? argv[k + 1] : "";
    long n = 0;
    if (flag == "--socket" && !value.empty()) {
      socket_path = value;
      ++k;
    } else if (flag == "--listen-tcp" && !value.empty()) {
      listen_tcp = normalize_tcp(value);
      ++k;
    } else if (flag == "--store" && !value.empty()) {
      store_path = value;
      ++k;
    } else if (flag == "--workers" && parse_int_flag(value, 1, &n)) {
      sched.workers = static_cast<int>(n);
      ++k;
    } else if (flag == "--explore-threads" && parse_int_flag(value, 0, &n)) {
      sched.explore_threads = static_cast<int>(n);
      ++k;
    } else if (flag == "--queue-capacity" && parse_int_flag(value, 1, &n)) {
      sched.queue_capacity = static_cast<std::size_t>(n);
      ++k;
    } else if (flag == "--deadline-ms" && parse_int_flag(value, 0, &n)) {
      sched.default_deadline = std::chrono::milliseconds(n);
      ++k;
    } else {
      return usage();
    }
  }

  try {
    if (socket_path.empty() && listen_tcp.empty()) {
      std::cerr << "error: --socket or --listen-tcp is required\n";
      return 2;
    }
    wfregs::service::DaemonOptions options;
    options.socket_path = socket_path;
    options.tcp = listen_tcp;
    options.scheduler = sched;
    options.scheduler.store_path = store_path;
    wfregs::service::Daemon daemon(std::move(options));
    g_daemon = &daemon;
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::cerr << "wfregsd: listening";
    if (!socket_path.empty()) std::cerr << " on " << daemon.socket_path();
    if (daemon.tcp_port() != 0) std::cerr << " tcp:" << daemon.tcp_port();
    std::cerr << "\n";
    const std::uint64_t served = daemon.run();
    g_daemon = nullptr;
    std::cout << wfregs::service::metrics_to_json(daemon.scheduler().metrics())
              << "\n";
    std::cerr << "wfregsd: served " << served << " requests, bye\n";
  } catch (const std::exception& e) {
    std::cerr << "wfregsd: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
