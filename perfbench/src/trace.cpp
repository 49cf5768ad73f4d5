#include "trace.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <stdexcept>
#include <unordered_map>

namespace perfbench {
namespace {

struct OpenSpan {
  std::uint64_t id;
  const char* name;
  Clock::time_point start;
};

std::mutex g_mu;
std::vector<SpanRecord> g_done;  // guarded by g_mu

thread_local std::vector<OpenSpan> t_stack;

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_done.clear();
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_done;
}

std::uint64_t Tracer::open(const char* name) {
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  t_stack.push_back({id, name, Clock::now()});
  return id;
}

void Tracer::close(std::uint64_t id) {
  const Clock::time_point end = Clock::now();
  if (t_stack.empty() || t_stack.back().id != id) {
    throw std::logic_error("perfbench: spans closed out of order");
  }
  const OpenSpan s = t_stack.back();
  t_stack.pop_back();
  SpanRecord r;
  r.name = s.name;
  r.id = s.id;
  r.parent = t_stack.empty() ? 0 : t_stack.back().id;
  r.start = s.start;
  r.end = end;
  std::lock_guard<std::mutex> lock(g_mu);
  g_done.push_back(r);
}

std::map<std::string, SpanSummary> Tracer::summarize() const {
  const std::vector<SpanRecord> all = spans();
  std::unordered_map<std::uint64_t, double> child_ms;
  for (const SpanRecord& r : all) {
    if (r.parent != 0) child_ms[r.parent] += ms_between(r.start, r.end);
  }
  std::map<std::string, SpanSummary> out;
  for (const SpanRecord& r : all) {
    SpanSummary& s = out[r.name];
    const double ms = ms_between(r.start, r.end);
    s.count += 1;
    s.total_ms += ms;
    const auto it = child_ms.find(r.id);
    s.self_ms += ms - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

Tail tail_of(const std::vector<double>& v) {
  static const struct {
    double p;
    const char* label;
  } kLadder[] = {{99.9, "p99.9"}, {99, "p99"}, {98, "p98"},
                 {95, "p95"},     {90, "p90"}};
  Tail t;
  t.samples = v.size();
  const double n = static_cast<double>(v.size());
  for (const auto& rung : kLadder) {
    if (n * (100.0 - rung.p) / 100.0 >= 10.0 - 1e-9) {
      t.value = percentile(v, rung.p);
      t.label = rung.label;
      return t;
    }
  }
  // Fewer than a hundred samples: the lowest rung, so one stalled
  // repetition does not set the figure.
  t.value = percentile(v, 90);
  t.label = "p90";
  return t;
}

}  // namespace perfbench
