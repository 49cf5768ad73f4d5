#include "wfregs/service/metrics.hpp"

#include <cstdint>
#include <sstream>

namespace wfregs::service {

namespace {

struct MetricsField {
  const char* name;
  std::uint64_t Metrics::*member;
};

/// The one field list behind serialization, in JSON output order.  A field
/// added to Metrics is added here once.
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

}  // namespace wfregs::service
