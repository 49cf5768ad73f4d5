// The two workloads.  Each one sets up (several times, median reported),
// measures for --seconds with tracing off, and checks every verdict against
// its known answer.  A traced run (--trace 1) measures once untraced, once
// traced, then runs the identity contracts and the per-layer probes.
#include "workloads.hpp"

#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <utility>

#include "jobs.hpp"
#include "trace.hpp"
#include "wfregs/analysis/consensus_power.hpp"
#include "wfregs/analysis/lint.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/runtime/verify.hpp"
#include "wfregs/service/client.hpp"
#include "wfregs/service/daemon.hpp"
#include "wfregs/service/scheduler.hpp"
#include "wfregs/storage/spill_arena.hpp"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using wfregs::Implementation;
using wfregs::VerifyOptions;
using wfregs::service::Client;
using wfregs::service::Daemon;
using wfregs::service::DaemonOptions;
using wfregs::service::JobKind;
using wfregs::service::JobScheduler;
using wfregs::service::Metrics;
using wfregs::service::Provenance;
using wfregs::service::SchedulerOptions;
using wfregs::service::Submitted;
using wfregs::service::Verdict;
using wfregs::service::VerifyJob;
using Bytes = std::vector<std::uint8_t>;

/// Set-ups per run, whose median is reported (one set-up takes 1-20 ms, so
/// a median of few would follow single host stalls).
constexpr int kSetupRepeats = 21;
/// Fresh processes per run, whose median is reported.
constexpr int kColdRuns = 9;
/// deep_single: extra submissions of each repetition's text (answered from
/// its store), so the submit figures rest on enough samples.
constexpr int kResubmits = 8;
/// Cancels a verdict that has not arrived after this long: the parallel
/// explorer has been seen to spin without progress, and a run must end.
/// Every scheduler the benchmark builds, in this process or a cold child,
/// carries it.  The slowest verdict the benchmark asks for (the storage
/// probe's checkpointed run) takes about 5 s on a loaded host.
constexpr std::chrono::seconds kDeadline{30};
constexpr int kCallers = 4;  // batch_cold: closed-loop callers = jobs in flight
/// batch_cold: every pass re-submits the families with a distinct config
/// budget (part of the job key, never reached), so each job is a miss.
constexpr std::size_t kBaseMaxConfigs = 2000000;
constexpr int kOneUsePerPass = 40;

// ---- process facts -----------------------------------------------------------

double cpu_seconds() {
  double s = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    ::getrusage(who, &ru);
    s += static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  }
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double cores() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<double>(n) : 1.0;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary);
  out << data;
  if (!out) throw std::runtime_error("cannot write " + path);
}

/// Progress on stderr, so a slow or stuck stage is visible.
void note(const std::string& what) {
  static const Clock::time_point start = Clock::now();
  char stamp[32];
  std::snprintf(stamp, sizeof stamp, "[perfbench %8.2fs] ",
                ms_between(start, Clock::now()) / 1000.0);
  std::cerr << stamp << what << std::endl;
}

// ---- per-phase measurements ------------------------------------------------------

struct Phase {
  std::vector<double> verdict_ms, submit_ms, late_ms;
  std::uint64_t attempted = 0, failed = 0, completed = 0;
  std::vector<std::string> failures;
  double wall_s = 0, cpu_s = 0;
  double text_bytes = 0;
  std::uint64_t explored = 0, configs = 0, edges = 0, terminals = 0;
  /// Consensus zoo configs by protocol and reduction (sum, count), for the
  /// reduced-over-unreduced ratio.
  std::map<std::string, std::array<std::pair<double, double>, 3>> reduction;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  void merge(Phase&& o) {
    const auto append = [](std::vector<double>& dst, const std::vector<double>& src) {
      dst.insert(dst.end(), src.begin(), src.end());
    };
    append(verdict_ms, o.verdict_ms);
    append(submit_ms, o.submit_ms);
    append(late_ms, o.late_ms);
    attempted += o.attempted;
    failed += o.failed;
    completed += o.completed;
    for (auto& f : o.failures) {
      if (failures.size() < 20) failures.push_back(std::move(f));
    }
    text_bytes += o.text_bytes;
    explored += o.explored;
    configs += o.configs;
    edges += o.edges;
    terminals += o.terminals;
    for (auto& [k, arr] : o.reduction) {
      for (std::size_t r = 0; r < 3; ++r) {
        reduction[k][r].first += arr[r].first;
        reduction[k][r].second += arr[r].second;
      }
    }
  }
  void account(const Verdict& v) {
    if (v.provenance != Provenance::kExplored) return;
    ++explored;
    configs += v.stats.configs;
    edges += v.stats.edges;
    terminals += v.stats.terminals;
  }
};

/// Checks one verdict against its case; returns true when it matches.
bool check(Phase* ph, const Case& c, const Verdict& v) {
  if (matches(v, c.expect)) return true;
  ph->fail(c.label + ": got ok=" + std::to_string(v.ok) +
           " wait_free=" + std::to_string(v.wait_free) +
           " complete=" + std::to_string(v.complete) + ", known answer ok=" +
           std::to_string(c.expect.ok) + " (" + c.family + ")");
  return false;
}

Metrics metrics_delta(const Metrics& a, const Metrics& b) {
  Metrics d = b;
  d.submitted -= a.submitted;
  d.cache_hits -= a.cache_hits;
  d.cache_misses -= a.cache_misses;
  d.coalesced -= a.coalesced;
  d.rejected -= a.rejected;
  d.completed -= a.completed;
  d.static_decisions -= a.static_decisions;
  d.cancelled -= a.cancelled;
  d.failed -= a.failed;
  d.lookup_ns_total -= a.lookup_ns_total;
  d.lookup_count -= a.lookup_count;
  d.queue_ns_total -= a.queue_ns_total;
  d.queue_count -= a.queue_count;
  d.run_ns_total -= a.run_ns_total;
  d.run_count -= a.run_count;
  d.append_ns_total -= a.append_ns_total;
  d.append_count -= a.append_count;
  return d;
}

double per(std::uint64_t total, std::uint64_t count, double scale) {
  return count ? static_cast<double>(total) / static_cast<double>(count) /
                     scale
               : 0.0;
}

// ---- the runner, with spans around each layer in traced phases ----------------

void compile_types(const Implementation& impl) {
  for (const wfregs::ObjectDecl& o : impl.objects()) {
    if (o.is_base()) {
      (void)o.spec->compile();
    } else {
      compile_types(*o.impl);
    }
  }
}

/// typesys.compile_us: the mean time to compile every base type of a job,
/// over `texts`, in a pass of its own outside any timed phase.  The explorer
/// compiles the same types inside each verifier call; TypeSpec::compile()
/// keeps no cache, and each parse makes fresh types, so nothing is reused.
double compile_us(const std::vector<std::string>& texts) {
  double total = 0;
  for (const std::string& text : texts) {
    const VerifyJob job = wfregs::service::parse_job(text);
    const Clock::time_point t0 = Clock::now();
    compile_types(*job.impl);
    total += 1000.0 * ms_between(t0, Clock::now());
  }
  return texts.empty() ? 0.0 : total / static_cast<double>(texts.size());
}

/// The library's default runner, re-assembled from the public verifier
/// calls so spans can sit around each one (and the analysis hooks).  Used
/// only while tracing; the verdict bytes are checked equal to the library
/// runner's in every traced run.
Verdict traced_verify(const VerifyJob& job, const std::atomic<bool>& cancel,
                      int threads) {
  Span run("worker.run");
  VerifyOptions options = job.options;
  options.threads = threads;
  options.limits.cancel = &cancel;
  if (job.precheck) {
    options.static_precheck = [hook = wfregs::analysis::static_precheck()](
                                  const Implementation& impl) {
      Span s("analysis.precheck");
      return hook(impl);
    };
  }
  Verdict v;
  v.kind = job.kind;
  if (job.kind == JobKind::kLinearizable) {
    Span s("runtime.verify_linearizable");
    const wfregs::VerifyResult r =
        wfregs::verify_linearizable(job.impl, job.scripts, options);
    v.ok = r.ok;
    v.wait_free = r.wait_free;
    v.complete = r.complete;
    v.resumed = r.resumed;
    v.checkpointed = r.checkpointed;
    v.detail = r.detail;
    v.stats = r.stats;
    return v;
  }
  if (job.static_power) {
    options.static_consensus =
        [hook = wfregs::analysis::static_consensus_decider()](
            const Implementation& impl) {
          Span s("analysis.classify");
          return hook(impl);
        };
  }
  Span s("runtime.check_consensus");
  const wfregs::consensus::ConsensusCheckResult r =
      wfregs::consensus::check_consensus(job.impl, options);
  v.ok = r.solves;
  v.wait_free = r.wait_free;
  v.complete = r.complete;
  v.resumed = r.resumed;
  v.checkpointed = r.checkpointed;
  v.provenance = r.static_decision ? Provenance::kStatic : Provenance::kExplored;
  v.detail = r.detail;
  v.stats.configs = r.configs;
  v.stats.terminals = r.terminals;
  v.stats.interned_configs = r.configs;
  v.stats.depth = r.depth;
  v.stats.max_accesses = r.max_accesses;
  v.stats.max_accesses_by_inv = r.max_accesses_by_inv;
  return v;
}

JobScheduler::Runner bench_runner(int threads) {
  return [plain = JobScheduler::default_runner(threads), threads](
             const VerifyJob& job, const std::atomic<bool>& cancel) {
    if (!tracer().enabled() || job.kind == JobKind::kRegular) {
      return plain(job, cancel);
    }
    return traced_verify(job, cancel, threads);
  };
}

/// The library runner and the traced one must give identical bytes.
void check_traced_runner(Phase* ph, const Case& c, int threads) {
  const std::atomic<bool> no_cancel{false};
  const bool was = tracer().enabled();
  tracer().set_enabled(true);
  const Bytes traced = encode_verdict(traced_verify(c.job, no_cancel, threads));
  tracer().set_enabled(was);
  const Bytes plain =
      encode_verdict(JobScheduler::default_runner(threads)(c.job, no_cancel));
  if (traced != plain) ph->fail(c.label + ": traced runner bytes differ");
}

// ---- storage sampling (traced phases) ----------------------------------------------

class StorageSampler {
 public:
  explicit StorageSampler(std::string checkpoint_dir)
      : dir_(std::move(checkpoint_dir)),
        evictions0_(wfregs::storage::arena_global_stats().evictions),
        thread_([this] { loop(); }) {}
  ~StorageSampler() { finish(); }
  StorageSampler(const StorageSampler&) = delete;
  StorageSampler& operator=(const StorageSampler&) = delete;

  void finish() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
    evictions_ = wfregs::storage::arena_global_stats().evictions - evictions0_;
  }
  std::uint64_t max_total = 0, max_spilled = 0, max_checkpoint = 0;
  std::uint64_t evictions() const { return evictions_; }

 private:
  void loop() {
    while (!stop_.load()) {
      const auto s = wfregs::storage::arena_global_stats();
      max_total = std::max(max_total, s.total_bytes);
      max_spilled = std::max(max_spilled, s.spilled_bytes);
      if (!dir_.empty()) {
        std::error_code ec;
        std::uint64_t bytes = 0;
        for (fs::recursive_directory_iterator it(dir_, ec), end;
             !ec && it != end; it.increment(ec)) {
          std::error_code fe;
          if (it->is_regular_file(fe)) bytes += it->file_size(fe);
        }
        max_checkpoint = std::max(max_checkpoint, bytes);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  std::string dir_;
  std::uint64_t evictions0_;
  std::uint64_t evictions_ = 0;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// ---- cold processes ----------------------------------------------------------------

/// Starts this binary with `args`; its stdout goes to our stderr, so the
/// result line stays the last line of ours.
pid_t spawn_self(const std::vector<std::string>& args) {
  std::vector<std::string> all = {"perfbench"};
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : all) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  pid_t pid = 0;
  const int rc = ::posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                               argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) throw std::runtime_error("cannot spawn a child process");
  return pid;
}

/// Waits for `pid`; throws unless it exited 0.
void wait_child(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("child process failed");
  }
}

/// Runs this binary's `cold` mode with `args` (which name its `--out` file);
/// returns the ms from the spawn to the child holding its verdict.  The
/// child's exit, which frees everything it built, is not counted.
double spawn_cold(const std::vector<std::string>& args,
                  const std::string& out) {
  std::vector<std::string> all = {"cold"};
  all.insert(all.end(), args.begin(), args.end());
  const Clock::time_point t0 = Clock::now();
  wait_child(spawn_self(all));
  // steady_clock is CLOCK_MONOTONIC: one time line for every process.
  const Clock::time_point verdict{Clock::duration{std::stoll(read_file(out + ".t"))}};
  return ms_between(t0, verdict);
}

// ---- shared output -----------------------------------------------------------------

void add(RunResult* r, const std::string& name, double value,
         const std::string& unit) {
  r->metrics.push_back({name, value, unit});
}

std::string tail_json(const Tail& t) {
  return "{\"percentile\":\"" + t.label +
         "\",\"samples\":" + std::to_string(t.samples) + "}";
}

/// End-to-end metrics of an untraced phase.
void end_to_end(RunResult* r, const Phase& ph, double setup_s,
                const std::vector<double>& cold_ms, double rss_mb) {
  const Tail vt = tail_of(ph.verdict_ms);
  const Tail st = tail_of(ph.submit_ms);
  add(r, "setup_s", setup_s, "s");
  add(r, "jobs_per_s",
      ph.wall_s > 0 ? static_cast<double>(ph.completed) / ph.wall_s : 0.0,
      "1/s");
  add(r, "verdict_p50_ms", median(ph.verdict_ms), "ms");
  add(r, "verdict_tail_ms", vt.value, "ms");
  add(r, "cold_verdict_ms", median(cold_ms), "ms");
  add(r, "submit_p50_ms", median(ph.submit_ms), "ms");
  add(r, "submit_tail_ms", st.value, "ms");
  add(r, "peak_rss_mb", rss_mb, "MB");
  r->context["verdict_tail_ms"] = tail_json(vt);
  r->context["submit_tail_ms"] = tail_json(st);
  r->context["cold_verdict_runs"] = std::to_string(cold_ms.size());
}

void finish_counts(RunResult* r, const Phase& ph) {
  r->attempted += ph.attempted;
  r->failed += ph.failed;
  r->failures.insert(r->failures.end(), ph.failures.begin(),
                     ph.failures.end());
}

void finalize(RunResult* r) {
  r->correct = r->failed == 0 && r->attempted > 0;
  r->context["error_rate"] =
      std::to_string(r->attempted ? static_cast<double>(r->failed) /
                                        static_cast<double>(r->attempted)
                                  : 1.0);
}

/// Per-layer metrics every workload reports the same way.
struct Layers {
  std::map<std::string, SpanSummary> spans;
  Metrics sched;
  std::uint64_t store_bytes = 0;
  double compile_us = 0;
  double stats_rtt_us = 0;
  double s_1t = 0, s_4t = 0;
  double ooc_over_incore = 0;
  double checkpoint_run_s = 0;
  std::uint64_t arena_total = 0, peak_resident = 0, spilled = 0, evictions = 0,
                checkpoint_bytes = 0;
  double untraced_p50 = 0;
};

double span_mean_us(const Layers& l, const std::string& name) {
  const auto it = l.spans.find(name);
  return it == l.spans.end() ? 0.0 : it->second.mean_us();
}

void per_layer(RunResult* r, const Layers& l, const Phase& traced,
               const Phase& untraced) {
  const Metrics& m = l.sched;
  add(r, "job.parse_us", span_mean_us(l, "job.parse"), "us");
  add(r, "job.key_us", span_mean_us(l, "job.key"), "us");
  add(r, "job.text_kb",
      traced.attempted ? traced.text_bytes / 1024.0 /
                             static_cast<double>(traced.attempted)
                       : 0.0,
      "KiB");
  add(r, "scheduler.lookup_us", per(m.lookup_ns_total, m.lookup_count, 1e3),
      "us");
  add(r, "scheduler.queue_wait_ms", per(m.queue_ns_total, m.queue_count, 1e6),
      "ms");
  add(r, "scheduler.run_ms", per(m.run_ns_total, m.run_count, 1e6), "ms");
  add(r, "scheduler.static_fraction",
      m.completed ? static_cast<double>(m.static_decisions) /
                        static_cast<double>(m.completed)
                  : 0.0,
      "ratio");
  add(r, "scheduler.hit_ratio",
      m.submitted ? static_cast<double>(m.cache_hits) /
                        static_cast<double>(m.submitted)
                  : 0.0,
      "ratio");
  add(r, "scheduler.rejected", static_cast<double>(m.rejected), "count");
  add(r, "scheduler.cancelled", static_cast<double>(m.cancelled), "count");
  add(r, "scheduler.failed", static_cast<double>(m.failed), "count");
  add(r, "store.append_us", per(m.append_ns_total, m.append_count, 1e3), "us");
  add(r, "store.bytes", static_cast<double>(l.store_bytes), "B");
  add(r, "verdict.encode_us", span_mean_us(l, "verdict.encode"), "us");
  add(r, "verdict.json_us", span_mean_us(l, "verdict.json"), "us");
  add(r, "client.stats_rtt_us", l.stats_rtt_us, "us");
  add(r, "gen.late_ms", tail_of(traced.late_ms).value, "ms");
  add(r, "analysis.precheck_us", span_mean_us(l, "analysis.precheck"), "us");
  add(r, "analysis.classify_us", span_mean_us(l, "analysis.classify"), "us");
  add(r, "typesys.compile_us", l.compile_us, "us");
  add(r, "verify.s_1t", l.s_1t, "s");
  add(r, "verify.s_4t", l.s_4t, "s");
  add(r, "explore_parallel.speedup", l.s_4t > 0 ? l.s_1t / l.s_4t : 0.0, "x");
  const double explored = static_cast<double>(std::max<std::uint64_t>(traced.explored, 1));
  add(r, "explore.configs", static_cast<double>(traced.configs) / explored,
      "count");
  add(r, "explore.edges", static_cast<double>(traced.edges) / explored,
      "count");
  add(r, "explore.terminals", static_cast<double>(traced.terminals) / explored,
      "count");
  // Explorer throughput over the time spent in the verifier calls (spans).
  double explore_ms = 0;
  for (const char* span :
       {"runtime.verify_linearizable", "runtime.check_consensus"}) {
    const auto it = l.spans.find(span);
    if (it != l.spans.end()) explore_ms += it->second.total_ms;
  }
  add(r, "explore.configs_per_s",
      explore_ms > 0 ? static_cast<double>(traced.configs) / (explore_ms / 1e3)
                     : 0.0,
      "1/s");
  double none = 0, reduced = 0;
  for (const auto& [protocol, arr] : traced.reduction) {
    if (arr[0].second == 0 || arr[1].second == 0 || arr[2].second == 0) {
      continue;
    }
    none += 2 * arr[0].first / arr[0].second;
    reduced += arr[1].first / arr[1].second + arr[2].first / arr[2].second;
  }
  add(r, "reduction.configs_ratio", none > 0 ? reduced / none : 0.0, "ratio");
  add(r, "storage.ooc_over_incore", l.ooc_over_incore, "x");
  add(r, "storage.arena_total_bytes", static_cast<double>(l.arena_total), "B");
  add(r, "storage.peak_resident_bytes", static_cast<double>(l.peak_resident),
      "B");
  add(r, "storage.spilled_bytes", static_cast<double>(l.spilled), "B");
  add(r, "storage.evictions", static_cast<double>(l.evictions), "count");
  add(r, "storage.checkpoint_bytes", static_cast<double>(l.checkpoint_bytes),
      "B");
  add(r, "storage.checkpoint_run_s", l.checkpoint_run_s, "s");
  add(r, "proc.cpu_s", untraced.cpu_s, "s");
  add(r, "proc.core_util",
      untraced.wall_s > 0 ? untraced.cpu_s / (untraced.wall_s * cores()) : 0.0,
      "ratio");
  const double traced_p50 = median(traced.verdict_ms);
  add(r, "trace.overhead",
      l.untraced_p50 > 0 ? traced_p50 / l.untraced_p50 : 0.0, "x");
}

void print_spans(const std::map<std::string, SpanSummary>& spans) {
  std::cerr << "span                              count    total_ms     "
               "self_ms    mean_us\n";
  for (const auto& [name, s] : spans) {
    char line[160];
    std::snprintf(line, sizeof line, "%-32s %6llu %11.2f %11.2f %10.1f\n",
                  name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_ms, s.self_ms, s.mean_us());
    std::cerr << line;
  }
}

/// Spans of the traced phase: summarized and printed.
std::map<std::string, SpanSummary> collect_spans() {
  auto spans = tracer().summarize();
  print_spans(spans);
  tracer().clear();
  return spans;
}

/// Transport floor: the median of 200 stats round trips to an in-process
/// daemon over a Unix socket.  A shutdown request (not request_stop(),
/// which the loop notices only at its next poll timeout) ends the daemon as
/// soon as the round trips are done.
double stats_rtt_probe(const std::string& dir) {
  DaemonOptions o;
  o.socket_path = dir + "/probe.sock";
  o.scheduler.workers = 1;
  o.scheduler.default_deadline = kDeadline;
  Daemon d(o);
  std::thread loop([&] { d.run(); });
  std::vector<double> us;
  try {
    Client c(o.socket_path);
    for (int i = 0; i < 200; ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)c.stats();
      us.push_back(1000.0 * ms_between(t0, Clock::now()));
    }
    c.shutdown();
  } catch (...) {
    d.request_stop();
    loop.join();
    throw;
  }
  loop.join();
  return median(us);
}

/// One verdict through a fresh in-memory JobScheduler with the library's
/// runner and a deadline; returns (seconds, bytes).
std::pair<double, Bytes> timed_run(const VerifyJob& job, int threads) {
  SchedulerOptions o;
  o.explore_threads = threads;
  o.default_deadline = kDeadline;
  JobScheduler sched(o);
  const Clock::time_point t0 = Clock::now();
  const Verdict v = sched.submit(job).result.get();
  return {ms_between(t0, Clock::now()) / 1000.0, encode_verdict(v)};
}

/// verify.s_1t / s_4t on `c`, and the thread-count identity contract.
void parallel_probe(Phase* ph, Layers* l, const Case& c) {
  note("parallel probe (1 and 4 explorer threads): " + c.label);
  const auto [s1, b1] = timed_run(c.job, 1);
  const auto [s4, b4] = timed_run(c.job, 4);
  l->s_1t = s1;
  l->s_4t = s4;
  if (b1 != b4) ph->fail(c.label + ": verdict bytes differ at 1 and 4 threads");
}

/// A traced run measures twice, untraced then traced, in the --seconds of
/// one run: the probes after them add ~20 s, and the run must end well
/// inside its time limit.
double phase_seconds(const Args& args) {
  return args.trace ? args.seconds / 2 : args.seconds;
}

bool fresh_dir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  return fs::create_directories(dir);
}

// ==== batch_cold ======================================================================

struct BatchItem {
  std::string text;
  const Case* c = nullptr;        // template case (nullptr for one-use bits)
  std::optional<Case> own;        // the one-use bit case
  int reduction = -1;             // zoo jobs: index of the reduction mode
  std::string protocol;           // zoo jobs: protocol name
  const Case& get() const { return own ? *own : *c; }
};

class BatchStream {
 public:
  explicit BatchStream(std::uint64_t seed) : seed_(seed) {
    zoo_ = consensus_zoo();
    for (Case& c : static_attempts()) rest_.push_back(std::move(c));
    for (const bool wide : {false, true}) {
      for (Case& c : mrsw_cases(wide)) rest_.push_back(std::move(c));
    }
    for (const auto* set : {&zoo_, &rest_}) {
      for (const Case& c : *set) templates_.push_back(&c);
    }
    for (const Case* c : templates_) texts_.push_back(wfregs::service::print_job(c->job));
  }

  std::size_t pass_size() const { return templates_.size() + kOneUsePerPass; }

  /// The i-th job of the stream (thread-safe).
  BatchItem item(std::uint64_t i) {
    const std::uint64_t pass = i / pass_size();
    const std::size_t slot = permutation(pass)[i % pass_size()];
    BatchItem it;
    if (slot < templates_.size()) {
      it.c = templates_[slot];
      it.text = with_budget(texts_[slot], kBaseMaxConfigs + pass);
      if (slot < zoo_.size()) {
        it.reduction = static_cast<int>(slot % 3);
        it.protocol = it.c->label.substr(0, it.c->label.find('/'));
      }
      return it;
    }
    const std::size_t u = slot - templates_.size();
    for (std::uint64_t attempt = 0;; ++attempt) {
      const std::uint64_t type_seed =
          mix(seed_ ^ mix(pass * 1000003 + u * 1009 + attempt * 7));
      std::optional<Case> c = oneuse_case(type_seed, static_cast<int>(u));
      if (!c) continue;
      c->job.options.limits.max_configs = kBaseMaxConfigs + pass;
      std::string text = wfregs::service::print_job(c->job);
      const std::string key =
          wfregs::service::job_key_hex(wfregs::service::hash_job_text(text));
      std::lock_guard<std::mutex> lock(mu_);
      if (!oneuse_keys_.insert(key).second) continue;
      it.own = std::move(c);
      it.text = std::move(text);
      return it;
    }
  }

 private:
  static std::string with_budget(const std::string& text, std::size_t budget) {
    const std::string from = "max_configs " + std::to_string(kBaseMaxConfigs) + "\n";
    const std::size_t at = text.find(from);
    if (at == std::string::npos) throw std::logic_error("job text lacks max_configs");
    return text.substr(0, at) + "max_configs " + std::to_string(budget) + "\n" +
           text.substr(at + from.size());
  }

  const std::vector<std::size_t>& permutation(std::uint64_t pass) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = perms_.find(pass);
    if (it != perms_.end()) return it->second;
    std::vector<std::size_t> p(pass_size());
    for (std::size_t k = 0; k < p.size(); ++k) p[k] = k;
    shuffle(p, mix(seed_ + 0x5bd1e995ULL * (pass + 1)));
    return perms_.emplace(pass, std::move(p)).first->second;
  }

  std::uint64_t seed_;
  std::vector<Case> zoo_, rest_;
  std::vector<const Case*> templates_;
  std::vector<std::string> texts_;
  std::mutex mu_;
  std::map<std::uint64_t, std::vector<std::size_t>> perms_;  // guarded by mu_
  std::unordered_set<std::string> oneuse_keys_;              // guarded by mu_
};

struct BatchRig {
  std::string dir;
  std::unique_ptr<BatchStream> stream;
  std::unique_ptr<JobScheduler> sched;
  std::atomic<std::uint64_t> next{0};
};

std::unique_ptr<BatchRig> batch_setup(std::uint64_t seed, int k) {
  auto rig = std::make_unique<BatchRig>();
  rig->dir = "batch-" + std::to_string(k);
  fresh_dir(rig->dir);
  rig->stream = std::make_unique<BatchStream>(seed);
  SchedulerOptions o;
  o.workers = 4;
  o.explore_threads = 1;
  o.store_path = rig->dir + "/store.log";
  o.default_deadline = kDeadline;
  rig->sched = std::make_unique<JobScheduler>(o, bench_runner(1));
  return rig;
}

Phase batch_phase(BatchRig& rig, double seconds) {
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  const double cpu0 = cpu_seconds();
  std::vector<Phase> per_caller(kCallers);
  std::vector<Clock::time_point> last_done(kCallers, t0);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      Phase& ph = per_caller[static_cast<std::size_t>(c)];
      Clock::time_point free_at = Clock::now();
      while (Clock::now() < deadline) {
        const std::uint64_t i = rig.next.fetch_add(1);
        BatchItem it = rig.stream->item(i);
        const Case& kase = it.get();
        const Clock::time_point due = Clock::now();
        ph.late_ms.push_back(ms_between(free_at, due));
        ++ph.attempted;
        ph.text_bytes += static_cast<double>(it.text.size());
        try {
          std::optional<VerifyJob> job;
          {
            Span s("job.parse");
            job = wfregs::service::parse_job(it.text);
          }
          if (tracer().enabled()) {
            Span s("job.key");
            (void)wfregs::service::job_key(*job);
          }
          Submitted sub;
          {
            Span s("scheduler.submit");
            sub = rig.sched->submit(*job);
          }
          ph.submit_ms.push_back(ms_between(due, Clock::now()));
          const Verdict v = sub.result.get();
          {
            Span s("verdict.encode");
            (void)encode_verdict(v);
          }
          if (tracer().enabled()) {
            Span s("verdict.json");
            (void)verdict_to_json(v);
          }
          free_at = Clock::now();
          ph.verdict_ms.push_back(ms_between(due, free_at));
          if (sub.cached || sub.coalesced) {
            ph.fail(kase.label + ": a cold batch job was not a cache miss");
            continue;
          }
          if (!check(&ph, kase, v)) continue;
          ++ph.completed;
          ph.account(v);
          if (it.reduction >= 0) {
            auto& cell = ph.reduction[it.protocol][static_cast<std::size_t>(
                it.reduction)];
            cell.first += static_cast<double>(v.stats.configs);
            cell.second += 1;
          }
        } catch (const std::exception& e) {
          ph.fail(kase.label + ": " + e.what());
          free_at = Clock::now();
        }
      }
      last_done[static_cast<std::size_t>(c)] = free_at;
    });
  }
  for (std::thread& t : callers) t.join();
  Phase all;
  for (Phase& ph : per_caller) all.merge(std::move(ph));
  all.wall_s =
      ms_between(t0, *std::max_element(last_done.begin(), last_done.end())) /
      1000.0;
  all.cpu_s = cpu_seconds() - cpu0;
  return all;
}

/// One cold-process verdict; returns its ms, or nothing when the child
/// failed (counted in `ph`, so the run still ends with a result).
std::optional<double> cold_runner_child(const std::string& job_file,
                                        int threads, const std::string& tag,
                                        Phase* ph, const Case& c,
                                        const Bytes& reference) {
  const std::string out = tag + ".bin";
  ++ph->attempted;
  double ms = 0;
  std::string bytes;
  try {
    ms = spawn_cold({"--job", job_file, "--out", out, "--threads",
                     std::to_string(threads), "--store", tag + ".log"},
                    out);
    bytes = read_file(out);
  } catch (const std::exception& e) {
    ph->fail(c.label + ": cold process: " + e.what());
    return std::nullopt;
  }
  const Verdict v = wfregs::service::decode_verdict(
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size());
  if (!check(ph, c, v)) return ms;
  if (!reference.empty() && Bytes(bytes.begin(), bytes.end()) != reference) {
    ph->fail(c.label + ": cold-process verdict bytes differ from warm");
    return ms;
  }
  ++ph->completed;
  return ms;
}

}  // namespace

RunResult run_batch_cold(const Args& args) {
  RunResult r;
  std::vector<double> setups;
  std::unique_ptr<BatchRig> rig;
  for (int k = 0; k < kSetupRepeats; ++k) {
    rig.reset();
    ::malloc_trim(0);  // the previous set-up's memory must not count as peak
    const Clock::time_point t0 = Clock::now();
    rig = batch_setup(args.seed, k);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  note("measuring");
  Phase a = batch_phase(*rig, phase_seconds(args));
  note("cold processes");
  Phase checks;
  const Metrics ma = rig->sched->metrics();
  if (ma.cache_hits != 0) {
    checks.fail("batch_cold: " + std::to_string(ma.cache_hits) +
                " cache hits; cold must mean cold");
  }
  if (wfregs::storage::arena_global_stats().total_bytes != 0) {
    checks.fail("batch_cold: arena bytes on an in-core workload");
  }
  // The cold-process verdict of a mid-size family member (cas_ids(4)).
  std::vector<double> cold;
  const std::vector<Case> zoo = consensus_zoo();
  const Case& probe = *std::find_if(zoo.begin(), zoo.end(), [](const Case& c) {
    return c.label == "cas_ids(4)/none";
  });
  write_file("cold-job.txt", wfregs::service::print_job(probe.job));
  for (int k = 0; k < kColdRuns; ++k) {
    if (const auto ms = cold_runner_child("cold-job.txt", 1,
                                          "cold-" + std::to_string(k),
                                          &checks, probe, Bytes{})) {
      cold.push_back(*ms);
    }
  }
  finish_counts(&r, a);
  finish_counts(&r, checks);
  if (!args.trace) {
    end_to_end(&r, a, median(setups), cold, peak_rss_mb());
    r.context["jobs_completed"] = std::to_string(a.completed);
    finalize(&r);
    return r;
  }
  Layers l;
  l.untraced_p50 = median(a.verdict_ms);
  const Metrics m0 = rig->sched->metrics();
  note("traced phase");
  tracer().set_enabled(true);
  Phase b = batch_phase(*rig, phase_seconds(args));
  tracer().set_enabled(false);
  l.spans = collect_spans();
  const Metrics m1 = rig->sched->metrics();
  l.sched = metrics_delta(m0, m1);
  l.store_bytes = m1.store_bytes;
  Phase extra;
  if (l.sched.cache_hits != 0) {
    extra.fail("batch_cold: cache hits in the traced phase");
  }
  // One more pass of the stream: the job mix of the traced phase.
  std::vector<std::string> pass;
  for (std::size_t k = 0; k < rig->stream->pass_size(); ++k) {
    pass.push_back(rig->stream->item(rig->next.fetch_add(1)).text);
  }
  l.compile_us = compile_us(pass);
  l.stats_rtt_us = stats_rtt_probe(rig->dir);
  parallel_probe(&extra, &l, probe);
  check_traced_runner(&extra, probe, 1);
  finish_counts(&r, b);
  finish_counts(&r, extra);
  per_layer(&r, l, b, a);
  finalize(&r);
  return r;
}

// ==== deep_single: one job through the runner ==========================================

namespace {

struct SingleSpec {
  Case c;
  int threads = 1;
  /// Storage injected into the parsed job, as `wfregs_cli --memory-budget`
  /// does (storage is never part of the job text); empty = in-core.
  wfregs::storage::StorageOptions storage;
  /// The scheduler's storage template, which it applies only with a
  /// checkpoint directory (the daemon's out-of-core configuration).
  wfregs::storage::StorageOptions scheduler_storage;
};

/// One verdict through a fresh JobScheduler (a fresh store, so never a hit).
void single_rep(const SingleSpec& spec, const std::string& text,
                const std::string& store, Phase* ph, Bytes* bytes_out) {
  SchedulerOptions o;
  o.workers = 1;
  o.explore_threads = spec.threads;
  o.store_path = store;
  o.storage = spec.scheduler_storage;
  o.default_deadline = kDeadline;
  JobScheduler sched(o, bench_runner(spec.threads));
  const Clock::time_point due = Clock::now();
  ++ph->attempted;
  ph->text_bytes += static_cast<double>(text.size());
  std::optional<VerifyJob> job;
  {
    Span s("job.parse");
    job = wfregs::service::parse_job(text);
  }
  job->options.storage = spec.storage;
  if (tracer().enabled()) {
    Span s("job.key");
    (void)wfregs::service::job_key(*job);
  }
  Submitted sub;
  {
    Span s("scheduler.submit");
    sub = sched.submit(*job);
  }
  ph->submit_ms.push_back(ms_between(due, Clock::now()));
  const Verdict v = sub.result.get();
  Bytes bytes;
  {
    Span s("verdict.encode");
    bytes = encode_verdict(v);
  }
  if (tracer().enabled()) {
    Span s("verdict.json");
    (void)verdict_to_json(v);
  }
  ph->verdict_ms.push_back(ms_between(due, Clock::now()));
  if (sub.cached) ph->fail(spec.c.label + ": unexpected cache hit");
  if (!check(ph, spec.c, v)) return;
  if (!bytes_out->empty() && *bytes_out != bytes) {
    ph->fail(spec.c.label + ": verdict bytes differ between repetitions");
    return;
  }
  *bytes_out = std::move(bytes);
  ++ph->completed;
  ph->account(v);
  for (int k = 0; k < kResubmits; ++k) {
    const Clock::time_point t0 = Clock::now();
    const Submitted again = sched.submit(wfregs::service::parse_job(text));
    ph->submit_ms.push_back(ms_between(t0, Clock::now()));
    if (!again.cached) {
      ph->fail(spec.c.label + ": resubmission missed the store");
    } else if (k == 0 && tracer().enabled() &&
               encode_verdict(again.result.get()) != *bytes_out) {
      // Identity (traced runs): the cached verdict equals the fresh one.
      ph->fail(spec.c.label + ": cached verdict bytes differ from the fresh");
    }
  }
  std::error_code ec;
  fs::remove(store, ec);
}

/// Warm repetitions for `seconds` (at least five), after one discarded
/// warm-up repetition.
Phase single_phase(const SingleSpec& spec, const std::string& text,
                   double seconds, Bytes* reference) {
  Phase ph;
  Phase warmup;
  single_rep(spec, text, "warmup.log", &warmup, reference);
  ph.attempted += warmup.attempted;
  ph.failed += warmup.failed;
  ph.failures = warmup.failures;
  const double cpu0 = cpu_seconds();
  const Clock::time_point t0 = Clock::now();
  int reps = 0;
  while (reps < 5 || ms_between(t0, Clock::now()) < 1000.0 * seconds) {
    single_rep(spec, text, "rep.log", &ph, reference);
    ++reps;
  }
  ph.wall_s = ms_between(t0, Clock::now()) / 1000.0;
  ph.cpu_s = cpu_seconds() - cpu0;
  return ph;
}

/// The storage layers, measured in deep_single's traced run on E18's job,
/// cas_ids(5) consensus: three times in-core, three times under E18's
/// smallest budget (64 KiB over 4 KiB segments, under a tenth of the job's
/// ~800 KiB of interned keys; identity: equal bytes), then once through the
/// scheduler with checkpointing (identity again; checkpoint appends and
/// their bytes).
void storage_probe(Phase* ph, Layers* l) {
  note("storage probe: out-of-core, in-core and checkpointed runs");
  SingleSpec spec;
  spec.c = ooc_case();
  spec.storage.memory_budget_bytes = 64 << 10;
  spec.storage.arena_segment_bytes = 4096;
  spec.storage.spill_dir = "spill";
  const std::string text = wfregs::service::print_job(spec.c.job);
  fresh_dir(spec.storage.spill_dir);
  Bytes reference;
  std::vector<double> incore;
  for (int k = 0; k < 3; ++k) {
    const auto [s, bytes] = timed_run(spec.c.job, 1);
    incore.push_back(s);
    ++ph->attempted;
    if (reference.empty()) reference = bytes;
    if (bytes != reference) ph->fail(spec.c.label + ": in-core bytes vary");
  }
  Phase ooc;
  StorageSampler sampler("");
  for (int k = 0; k < 3; ++k) single_rep(spec, text, "ooc.log", &ooc, &reference);
  sampler.finish();
  l->ooc_over_incore = median(ooc.verdict_ms) / 1000.0 / median(incore);
  l->arena_total = sampler.max_total;
  l->spilled = sampler.max_spilled;
  l->evictions = sampler.evictions();
  l->peak_resident = wfregs::storage::arena_global_stats().max_resident_bytes;
  SingleSpec ck = spec;
  ck.scheduler_storage = spec.storage;
  ck.scheduler_storage.checkpoint_dir = "ckpt";
  // Each checkpoint frame is fdatasync'd; one every 8192 configs (~12 per
  // run) keeps the disk's share of the run small.
  ck.scheduler_storage.checkpoint_every_configs = 8192;
  ck.storage = {};
  fresh_dir("ckpt");
  StorageSampler disk("ckpt");
  const Clock::time_point t0 = Clock::now();
  single_rep(ck, text, "ckpt.log", &ooc, &reference);
  l->checkpoint_run_s = ms_between(t0, Clock::now()) / 1000.0;
  disk.finish();
  l->checkpoint_bytes = disk.max_checkpoint;
  // single_rep compared every out-of-core and checkpointed verdict's bytes
  // with the in-core reference.
  ph->attempted += ooc.attempted;
  ph->failed += ooc.failed;
  ph->failures.insert(ph->failures.end(), ooc.failures.begin(),
                      ooc.failures.end());
}

}  // namespace

RunResult run_deep_single(const Args& args) {
  RunResult r;
  SingleSpec spec;
  spec.threads = 4;
  std::vector<double> setups;
  std::string text;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    spec.c = deep_case();
    text = wfregs::service::print_job(spec.c.job);
    setups.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
  // The cold children's input; a file write, which no change to the
  // library can speed up, stays out of the set-up time.
  write_file("job.txt", text);
  // The job is fixed: the seed changes no input of this workload.
  Bytes reference;
  note("measuring " + spec.c.label);
  Phase a = single_phase(spec, text, phase_seconds(args), &reference);
  note("cold processes");
  Phase checks;
  std::vector<double> cold;
  for (int k = 0; k < kColdRuns && !args.trace; ++k) {
    if (const auto ms = cold_runner_child("job.txt", spec.threads,
                                          "cold-" + std::to_string(k),
                                          &checks, spec.c, reference)) {
      cold.push_back(*ms);
    }
  }
  if (wfregs::storage::arena_global_stats().total_bytes != 0) {
    checks.fail(spec.c.label + ": arena bytes on an in-core workload");
  }
  finish_counts(&r, a);
  finish_counts(&r, checks);
  if (!args.trace) {
    end_to_end(&r, a, median(setups), cold, peak_rss_mb());
    finalize(&r);
    return r;
  }
  Layers l;
  l.untraced_p50 = median(a.verdict_ms);
  note("traced phase");
  tracer().set_enabled(true);
  // Scheduler metrics are per scheduler; the traced phase's reps each get a
  // fresh one, so sum them through the spans and one metered rep below.
  Phase b = single_phase(spec, text, phase_seconds(args), &reference);
  tracer().set_enabled(false);
  l.spans = collect_spans();
  {
    // One metered repetition for the scheduler's stage timings.
    SchedulerOptions o;
    o.workers = 1;
    o.explore_threads = spec.threads;
    o.store_path = "metered.log";
    o.default_deadline = kDeadline;
    JobScheduler sched(o);
    const Verdict v = sched.submit(wfregs::service::parse_job(text)).result.get();
    Phase metered;
    ++metered.attempted;
    check(&metered, spec.c, v);
    finish_counts(&r, metered);
    l.sched = sched.metrics();
    l.store_bytes = l.sched.store_bytes;
  }
  l.compile_us = compile_us(std::vector<std::string>(5, text));
  Phase extra;
  l.stats_rtt_us = stats_rtt_probe(".");
  storage_probe(&extra, &l);
  parallel_probe(&extra, &l, spec.c);  // identity: 1 thread == 4 threads
  check_traced_runner(&extra, spec.c, spec.threads);
  finish_counts(&r, b);
  finish_counts(&r, extra);
  per_layer(&r, l, b, a);
  finalize(&r);
  return r;
}

// ==== the cold-process child ==============================================================

int cold_main(int argc, char** argv) {
  std::map<std::string, std::string> opt;
  for (int i = 2; i + 1 < argc; i += 2) opt[argv[i]] = argv[i + 1];
  const auto need = [&](const char* k) {
    const auto it = opt.find(k);
    if (it == opt.end()) throw std::runtime_error(std::string("cold: missing ") + k);
    return it->second;
  };
  const std::string text = read_file(need("--job"));
  SchedulerOptions o;
  o.workers = 1;
  o.explore_threads = std::stoi(need("--threads"));
  o.store_path = need("--store");
  o.default_deadline = kDeadline;
  JobScheduler sched(o);
  const Verdict v = sched.submit(wfregs::service::parse_job(text)).result.get();
  const Bytes bytes = encode_verdict(v);
  const Clock::time_point answered = Clock::now();
  write_file(need("--out"), std::string(bytes.begin(), bytes.end()));
  write_file(need("--out") + ".t",
             std::to_string(answered.time_since_epoch().count()));
  return 0;
}

}  // namespace perfbench
