#include "wfregs/service/metrics.hpp"

#include <cstdint>
#include <sstream>

namespace wfregs::service {

namespace {

struct MetricsField {
  const char* name;
  std::uint64_t Metrics::*member;
};

/// The one field list behind serialization, parsing and aggregation, in
/// JSON output order.  A field added to Metrics is added here once.
constexpr MetricsField kMetricsFields[] = {
    {"submitted", &Metrics::submitted},
    {"cache_hits", &Metrics::cache_hits},
    {"cache_misses", &Metrics::cache_misses},
    {"coalesced", &Metrics::coalesced},
    {"rejected", &Metrics::rejected},
    {"completed", &Metrics::completed},
    {"static_decisions", &Metrics::static_decisions},
    {"cancelled", &Metrics::cancelled},
    {"failed", &Metrics::failed},
    {"evictions", &Metrics::evictions},
    {"resumed_jobs", &Metrics::resumed_jobs},
    {"partial_checkpoints", &Metrics::partial_checkpoints},
    {"queue_depth", &Metrics::queue_depth},
    {"in_flight", &Metrics::in_flight},
    {"store_records", &Metrics::store_records},
    {"store_bytes", &Metrics::store_bytes},
    {"lookup_ns_total", &Metrics::lookup_ns_total},
    {"lookup_count", &Metrics::lookup_count},
    {"queue_ns_total", &Metrics::queue_ns_total},
    {"queue_count", &Metrics::queue_count},
    {"run_ns_total", &Metrics::run_ns_total},
    {"run_count", &Metrics::run_count},
    {"append_ns_total", &Metrics::append_ns_total},
    {"append_count", &Metrics::append_count},
    {"snapshot_retries", &Metrics::snapshot_retries},
};

static_assert(sizeof(Metrics) == std::size(kMetricsFields) *
                                     sizeof(std::uint64_t),
              "every Metrics field must appear in kMetricsFields");

/// Extracts the unsigned integer following `"name":` in a flat JSON
/// object; 0 when absent.  Enough for metrics_to_json output -- the only
/// JSON this module ever reads back.
std::uint64_t json_field(const std::string& json, const char* name) {
  const std::string needle = std::string("\"") + name + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  std::uint64_t v = 0;
  for (std::size_t k = at + needle.size(); k < json.size(); ++k) {
    const char c = json[k];
    if (c < '0' || c > '9') break;
    v = v * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return v;
}

}  // namespace

std::string metrics_to_json(const Metrics& m) {
  std::ostringstream out;
  char sep = '{';
  for (const MetricsField& f : kMetricsFields) {
    out << sep << '"' << f.name << "\":" << m.*f.member;
    sep = ',';
  }
  out << '}';
  return out.str();
}

Metrics parse_metrics_json(const std::string& json) {
  Metrics m;
  for (const MetricsField& f : kMetricsFields) {
    m.*f.member = json_field(json, f.name);
  }
  return m;
}

void accumulate_metrics(Metrics* into, const Metrics& m) {
  for (const MetricsField& f : kMetricsFields) into->*f.member += m.*f.member;
}

}  // namespace wfregs::service
