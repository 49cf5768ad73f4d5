// Spans recorded by the benchmark around its calls into the library, and
// the sample statistics every workload reports.
//
// A span is (name, start, end, parent span).  Parents come from
// a per-thread stack, so spans opened inside a span on the same thread nest
// and a layer's self time is its duration minus its direct children's.
// Spans are kept in memory and summarized when the run ends.  When tracing is off a Span is one relaxed
// load and nothing else.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct SpanRecord {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  Clock::time_point start;
  Clock::time_point end;
};

struct SpanSummary {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
  double mean_us() const { return count ? 1000.0 * total_ms / count : 0.0; }
};

class Tracer {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops every recorded span.
  void clear();
  std::vector<SpanRecord> spans() const;
  /// Per span name: count, total and self time.
  std::map<std::string, SpanSummary> summarize() const;

  std::uint64_t open(const char* name);
  void close(std::uint64_t id);

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
};

/// The process-wide tracer.
Tracer& tracer();

/// RAII span on the process-wide tracer.
class Span {
 public:
  explicit Span(const char* name)
      : id_(tracer().enabled() ? tracer().open(name) : 0) {}
  ~Span() {
    if (id_ != 0) tracer().close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::uint64_t id_;
};

// ---- sample statistics ----------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of `v`; 0 when empty.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);

/// The tail the benchmark reports: the highest percentile on a fixed ladder
/// (99.9, 99, 98, 95, 90) with at least ten samples beyond it, or p90 when
/// the run has fewer than a hundred samples (deep_single's verdicts), so a
/// run never flips between rungs near a boundary.
struct Tail {
  double value = 0;
  std::string label;  ///< "p99.9", "p99", ..., "p90"
  std::size_t samples = 0;
};
Tail tail_of(const std::vector<double>& v);

}  // namespace perfbench
