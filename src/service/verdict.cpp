#include "wfregs/service/verdict.hpp"

#include <sstream>
#include <stdexcept>

#include "wfregs/storage/bytes.hpp"

namespace wfregs::service {

using storage::ByteReader;
using storage::put_bytes;
using storage::put_u32;
using storage::put_u64;
using storage::put_u64s;
using storage::put_u8;

namespace {

// Version 2 added the provenance byte (after the flags byte).  Version 3
// marks failing verdicts whose counters are the sequential explorer's at
// every thread count; a version-2 record of a failing multi-threaded job
// may hold timing-dependent ones, so it must not be served: the store skips
// records of any other version (verdict_version_current).  Version 4 marks
// the deletion of sleep sets: `sleep` jobs now count the unreduced graph and
// `sleep+symmetry` jobs the symmetry-reduced one, so their `configs` differ
// from version-3 records of the same job text.  Version 5 marks the
// deletion of per-node symmetry: `sleep+symmetry` jobs now count the
// unreduced graph, as `none` and `sleep` jobs do.
constexpr std::uint8_t kVersion = 5;

void json_escape_into(std::ostream& out, const std::string& s) {
  for (const char ch : s) {
    switch (ch) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\r': out << "\\r"; break;
      case '\t': out << "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(ch >> 4) & 0xF] << hex[ch & 0xF];
        } else {
          out << ch;
        }
    }
  }
}

}  // namespace

const char* job_kind_name(JobKind kind) {
  switch (kind) {
    case JobKind::kLinearizable: return "linearizable";
    case JobKind::kRegular: return "regular";
    case JobKind::kConsensus: return "consensus";
  }
  return "unknown";
}

const char* provenance_name(Provenance p) {
  switch (p) {
    case Provenance::kExplored: return "explored";
    case Provenance::kStatic: return "static";
    case Provenance::kPartial: return "partial";
  }
  return "unknown";
}

bool operator==(const Verdict& a, const Verdict& b) {
  return a.kind == b.kind && a.ok == b.ok && a.wait_free == b.wait_free &&
         a.complete == b.complete && a.provenance == b.provenance &&
         a.detail == b.detail &&
         a.stats.configs == b.stats.configs && a.stats.edges == b.stats.edges &&
         a.stats.terminals == b.stats.terminals &&
         a.stats.interned_configs == b.stats.interned_configs &&
         a.stats.depth == b.stats.depth &&
         a.stats.max_accesses == b.stats.max_accesses &&
         a.stats.max_accesses_by_inv == b.stats.max_accesses_by_inv;
}

std::vector<std::uint8_t> encode_verdict(const Verdict& v) {
  std::vector<std::uint8_t> out;
  put_u8(out, kVersion);
  put_u8(out, static_cast<std::uint8_t>(v.kind));
  put_u8(out, static_cast<std::uint8_t>((v.ok ? 1 : 0) | (v.wait_free ? 2 : 0) |
                                        (v.complete ? 4 : 0)));
  put_u8(out, static_cast<std::uint8_t>(v.provenance));
  put_u64(out, v.stats.configs);
  put_u64(out, v.stats.edges);
  put_u64(out, v.stats.terminals);
  put_u64(out, v.stats.interned_configs);
  put_u64(out, static_cast<std::uint64_t>(
                   static_cast<std::int64_t>(v.stats.depth)));
  put_bytes(out, v.detail);
  put_u64s(out, v.stats.max_accesses);
  put_u32(out, static_cast<std::uint32_t>(v.stats.max_accesses_by_inv.size()));
  for (const auto& per : v.stats.max_accesses_by_inv) put_u64s(out, per);
  return out;
}

bool verdict_version_current(const std::uint8_t* data, std::size_t size) {
  return size > 0 && data[0] == kVersion;
}

Verdict decode_verdict(const std::uint8_t* data, std::size_t size) {
  ByteReader in(data, size, "decode_verdict");
  if (in.u8() != kVersion) {
    throw std::runtime_error("decode_verdict: unknown version");
  }
  Verdict v;
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(JobKind::kConsensus)) {
    throw std::runtime_error("decode_verdict: unknown job kind");
  }
  v.kind = static_cast<JobKind>(kind);
  const std::uint8_t flags = in.u8();
  v.ok = flags & 1;
  v.wait_free = flags & 2;
  v.complete = flags & 4;
  const std::uint8_t prov = in.u8();
  if (prov > static_cast<std::uint8_t>(Provenance::kPartial)) {
    throw std::runtime_error("decode_verdict: unknown provenance");
  }
  v.provenance = static_cast<Provenance>(prov);
  v.stats.configs = in.u64();
  v.stats.edges = in.u64();
  v.stats.terminals = in.u64();
  v.stats.interned_configs = in.u64();
  v.stats.depth = static_cast<int>(static_cast<std::int64_t>(in.u64()));
  v.detail = in.string();
  v.stats.max_accesses = in.u64s();
  // Each inner list takes at least its own 4-byte count.
  v.stats.max_accesses_by_inv.resize(in.count(4));
  for (auto& per : v.stats.max_accesses_by_inv) per = in.u64s();
  in.expect_done();
  return v;
}

std::string verdict_to_json(const Verdict& v) {
  std::ostringstream out;
  out << "{\"kind\":\"" << job_kind_name(v.kind) << "\""
      << ",\"ok\":" << (v.ok ? "true" : "false")
      << ",\"wait_free\":" << (v.wait_free ? "true" : "false")
      << ",\"complete\":" << (v.complete ? "true" : "false")
      << ",\"provenance\":\"" << provenance_name(v.provenance) << "\""
      << ",\"resumed\":" << (v.resumed ? "true" : "false")
      << ",\"checkpointed\":" << (v.checkpointed ? "true" : "false")
      << ",\"detail\":\"";
  json_escape_into(out, v.detail);
  out << "\",\"stats\":{\"configs\":" << v.stats.configs
      << ",\"edges\":" << v.stats.edges
      << ",\"terminals\":" << v.stats.terminals
      << ",\"interned_configs\":" << v.stats.interned_configs
      << ",\"depth\":" << v.stats.depth << ",\"max_accesses\":[";
  for (std::size_t k = 0; k < v.stats.max_accesses.size(); ++k) {
    out << (k ? "," : "") << v.stats.max_accesses[k];
  }
  out << "],\"max_accesses_by_inv\":[";
  for (std::size_t g = 0; g < v.stats.max_accesses_by_inv.size(); ++g) {
    out << (g ? "," : "") << "[";
    const auto& per = v.stats.max_accesses_by_inv[g];
    for (std::size_t k = 0; k < per.size(); ++k) {
      out << (k ? "," : "") << per[k];
    }
    out << "]";
  }
  out << "]}}";
  return out.str();
}

Verdict decision_projection(const Verdict& v) {
  Verdict p;
  p.kind = v.kind;
  p.ok = v.ok;
  p.wait_free = v.wait_free;
  p.complete = v.complete;
  return p;
}

}  // namespace wfregs::service
