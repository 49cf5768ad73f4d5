// wfregs_cli -- the library as a command-line tool.  Define a concurrent
// data type in the text format of wfregs/typesys/serialize.hpp and run the
// paper's machinery on it:
//
//   wfregs_cli zoo                         list built-in types
//   wfregs_cli zoo <name>                  print a built-in type definition
//   wfregs_cli print <file>                parse, validate and re-print
//   wfregs_cli classify <file>             triviality + Section 5 witnesses
//                                          + certified consensus-power bounds
//   wfregs_cli oneuse <file>               synthesize + verify a one-use bit
//   wfregs_cli hierarchy <file>            gather verified hierarchy evidence
//   wfregs_cli eliminate <tas|queue|faa> <file>
//                                          Theorem 5: strip the registers out
//                                          of a classical consensus protocol,
//                                          re-basing it on the file's type
//   wfregs_cli make-job consensus <tas|queue|faa>
//                                          emit a canonical verification job
//                                          (the daemon's submit payload)
//   wfregs_cli verify <job-file>...        run serialized jobs (locally, or
//                                          on a daemon with --server)
//   wfregs_cli submit <job-file>...        fire-and-forget batch submit
//                                          (--server only; poll later)
//   wfregs_cli check <tas|queue|faa>       make-job + verify in one step
//   wfregs_cli stats                       daemon metrics (--server only)
//   wfregs_cli shutdown                    drain the daemon (--server only)
//   wfregs_cli store-merge <dst> <src>     merge verdict log <src> into
//                                          <dst> offline (by JobKey,
//                                          idempotent; <dst> is created)
//   wfregs_cli checkpoint-info <dir>       inspect an out-of-core
//                                          exploration checkpoint directory
//
// A leading `-j N` routes every exhaustive exploration through the parallel
// explorer on N worker threads (0 = hardware concurrency, 1 = sequential).
// A leading `--static-precheck` runs the wfregs-lint discipline passes on
// every implementation before exploring it, failing fast on violations.
// A leading `--reduction none|sleep|sleep+symmetry` picks the reduction
// spelling of every job (see runtime/reduction.hpp).  All three explore the
// same graph and give the same verdict; the spelling is job text, so each
// gives its own job key.  A leading `--json`
// switches verify/check verdict output to one JSON object per job (the same
// encoding the daemon replies with); `--server <endpoint>` routes verify /
// submit / check / stats / shutdown to a running wfregsd -- the endpoint
// is a Unix socket path, "unix:<path>" or "tcp:<host>:<port>".
// Server-side verify/submit go over the BATCH frames (one frame pair for N
// jobs), and a "rejected" submit -- the server's bounded-admission
// backpressure -- is retried with exponential backoff.
// Commands that never use a flag warn instead of silently ignoring it.
// A leading `--memory-budget N[K|M|G]` caps explorer memory and spills
// interned configurations to disk beyond it; `--checkpoint-dir <dir>`
// persists crash-safe exploration checkpoints there, and a rerun with the
// same directory resumes instead of recomputing (see storage/options.hpp).
// Both are local execution parameters: they never enter a job's identity or
// its serialized text, and with --server the daemon's own storage
// configuration applies instead.
//
// Exit codes: 0 = success, 1 = a verification/check reported a failure,
// 2 = usage or input error (bad flags, unknown command, unreadable or
// malformed input).
#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "wfregs/analysis/consensus_power.hpp"
#include "wfregs/analysis/lint.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/core/oneuse_from_type.hpp"
#include "wfregs/core/register_elimination.hpp"
#include "wfregs/hierarchy/hierarchy.hpp"
#include "wfregs/runtime/verify.hpp"
#include "wfregs/service/client.hpp"
#include "wfregs/service/job.hpp"
#include "wfregs/service/scheduler.hpp"
#include "wfregs/service/store.hpp"
#include "wfregs/service/verdict.hpp"
#include "wfregs/storage/checkpoint.hpp"
#include "wfregs/storage/options.hpp"
#include "wfregs/typesys/serialize.hpp"
#include "wfregs/typesys/triviality.hpp"
#include "wfregs/typesys/type_zoo.hpp"

using namespace wfregs;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitVerifyFail = 1;
constexpr int kExitUsage = 2;

/// Explorer thread count from the global -j flag (0 = hardware concurrency).
int g_threads = 0;
/// Whether -j was given at all (for the no-exploration diagnostic).
bool g_threads_set = false;
/// Whether --static-precheck was given.
bool g_precheck = false;
/// Reduction mode from the global --reduction flag.
Reduction g_reduction = Reduction::kNone;
/// Whether --reduction was given at all.
bool g_reduction_set = false;
/// Whether --json was given (verify/check verdict output).
bool g_json = false;
/// Daemon socket from --server (empty = run jobs locally).
std::string g_server;
/// Explorer memory budget from --memory-budget (0 = unbounded, in-core).
std::size_t g_memory_budget = 0;
/// Checkpoint directory from --checkpoint-dir (empty = no checkpointing).
std::string g_checkpoint_dir;
/// Whether either out-of-core flag was given (for the dead-flag warning).
bool g_storage_set = false;

VerifyOptions verify_options() {
  VerifyOptions options;
  options.threads = g_threads;
  options.reduction = g_reduction;
  options.storage.memory_budget_bytes = g_memory_budget;
  options.storage.checkpoint_dir = g_checkpoint_dir;
  if (g_precheck) options.static_precheck = analysis::static_precheck();
  return options;
}

/// Parses "N", "NK", "NM" or "NG" (suffixes case-insensitive) into bytes;
/// nullopt on malformed input or overflow.
std::optional<std::size_t> parse_byte_size(const std::string& text) {
  if (text.empty()) return std::nullopt;
  std::size_t shift = 0;
  std::string digits = text;
  switch (digits.back()) {
    case 'k': case 'K': shift = 10; break;
    case 'm': case 'M': shift = 20; break;
    case 'g': case 'G': shift = 30; break;
    default: break;
  }
  if (shift != 0) digits.pop_back();
  if (digits.empty() ||
      !std::all_of(digits.begin(), digits.end(),
                   [](unsigned char c) { return std::isdigit(c); })) {
    return std::nullopt;
  }
  errno = 0;
  const unsigned long long n = std::strtoull(digits.c_str(), nullptr, 10);
  if (errno != 0 || n > (std::numeric_limits<std::size_t>::max() >> shift)) {
    return std::nullopt;
  }
  return static_cast<std::size_t>(n) << shift;
}

const std::map<std::string, std::function<TypeSpec()>> kZoo{
    {"bit", [] { return zoo::bit_type(2); }},
    {"register4", [] { return zoo::register_type(4, 2); }},
    {"srsw_bit", [] { return zoo::srsw_bit_type(); }},
    {"one_use_bit", [] { return zoo::one_use_bit_type(); }},
    {"test_and_set", [] { return zoo::test_and_set_type(2); }},
    {"fetch_and_add", [] { return zoo::fetch_and_add_type(4, 2); }},
    {"cas", [] { return zoo::cas_type(2, 2); }},
    {"cas_old", [] { return zoo::cas_old_type(2, 2); }},
    {"sticky_bit", [] { return zoo::sticky_bit_type(2); }},
    {"queue", [] { return zoo::queue_type(2, 2, 2); }},
    {"stack", [] { return zoo::stack_type(2, 2, 2); }},
    {"shift_register", [] { return zoo::shift_register_type(2, 2); }},
    {"snapshot", [] { return zoo::snapshot_type(2, 2); }},
    {"consensus", [] { return zoo::consensus_type(2); }},
    {"safe_bit", [] { return zoo::weak_bit_type(zoo::WeakBitKind::kSafe); }},
    {"regular_bit",
     [] { return zoo::weak_bit_type(zoo::WeakBitKind::kRegular); }},
    {"port_flag", [] { return zoo::port_flag_type(2); }},
    {"mod_counter", [] { return zoo::mod_counter_type(3, 2); }},
    {"trivial_toggle", [] { return zoo::trivial_toggle_type(2); }},
    {"nondet_coin", [] { return zoo::nondet_coin_type(2); }},
};

int cmd_zoo(int argc, char** argv) {
  if (argc < 3) {
    for (const auto& [name, make] : kZoo) std::cout << name << "\n";
    return kExitOk;
  }
  const auto it = kZoo.find(argv[2]);
  if (it == kZoo.end()) {
    std::cerr << "unknown zoo type: " << argv[2] << "\n";
    return kExitUsage;
  }
  std::cout << print_type(it->second());
  return kExitOk;
}

int cmd_print(const TypeSpec& t) {
  std::cout << print_type(t);
  std::cout << "# deterministic: " << (t.is_deterministic() ? "yes" : "no")
            << ", oblivious: " << (t.is_oblivious() ? "yes" : "no") << "\n";
  return kExitOk;
}

int cmd_classify(const TypeSpec& t) {
  std::cout << "type:          " << t.name() << "\n"
            << "deterministic: " << (t.is_deterministic() ? "yes" : "no")
            << "\n"
            << "oblivious:     " << (t.is_oblivious() ? "yes" : "no") << "\n";
  if (t.is_total()) {
    const auto power = analysis::classify_consensus_power(t);
    std::cout << "cons bounds:   " << power.summary() << "\n";
    for (const auto& claim : power.claims) {
      const auto check = analysis::check_certificate(t, claim);
      if (!check.ok) {
        std::cout << "CERTIFICATE REJECTED ("
                  << analysis::power_rule_name(claim.rule)
                  << "): " << check.detail << "\n";
        return kExitVerifyFail;
      }
    }
  }
  if (!t.is_deterministic()) {
    std::cout << "the Section 5 deciders require determinism; stopping\n";
    return kExitOk;
  }
  std::cout << "trivial (5.2): " << (is_trivial_general(t) ? "yes" : "no")
            << "\n";
  if (t.is_oblivious()) {
    if (const auto w = find_oblivious_witness(t)) {
      std::cout << "5.1 witness:   init " << t.state_name(w->q)
                << ", write = " << t.invocation_name(w->i_prime)
                << ", read = " << t.invocation_name(w->i) << " ("
                << t.response_name(w->r_q) << " vs "
                << t.response_name(w->r_p) << ")\n";
    }
  }
  if (const auto pair = find_nontrivial_pair(t)) {
    std::cout << "5.2 pair:      init " << t.state_name(pair->q)
              << ", writer port " << pair->writer_port << " does "
              << t.invocation_name(pair->write_inv) << "; reader port "
              << pair->reader_port << " runs";
    for (const InvId i : pair->read_seq) {
      std::cout << " " << t.invocation_name(i);
    }
    std::cout << " (" << t.response_name(pair->unwritten_resp) << " vs "
              << t.response_name(pair->written_resp) << ")\n";
  }
  return kExitOk;
}

int cmd_oneuse(const TypeSpec& t) {
  const auto impl = core::oneuse_from_deterministic(t);
  if (!impl) {
    std::cout << t.name()
              << " is trivial: it cannot implement one-use bits\n";
    return kExitVerifyFail;
  }
  const zoo::OneUseBitLayout lay;
  const auto r = verify_linearizable(impl, {{lay.read()}, {lay.write()}},
                                     verify_options());
  std::cout << "synthesized " << impl->name() << "; exhaustive check: "
            << (r.ok ? "LINEARIZABLE and WAIT-FREE" : r.detail) << " ("
            << r.stats.configs << " configurations)\n";
  return r.ok ? kExitOk : kExitVerifyFail;
}

int cmd_hierarchy(const TypeSpec& t) {
  hierarchy::ClassifyOptions options;
  options.h1_probe_depth = 2;
  const auto row = hierarchy::classify_type(t, options);
  std::cout << hierarchy::to_table({row});
  return kExitOk;
}

int cmd_eliminate(const std::string& protocol, const TypeSpec& substrate) {
  std::shared_ptr<const Implementation> impl;
  if (protocol == "tas") {
    impl = consensus::from_test_and_set();
  } else if (protocol == "queue") {
    impl = consensus::from_queue();
  } else if (protocol == "faa") {
    impl = consensus::from_fetch_and_add();
  } else {
    std::cerr << "unknown protocol " << protocol << " (want tas|queue|faa)\n";
    return kExitUsage;
  }
  core::EliminationOptions options;
  const TypeSpec sub = substrate;
  options.oneuse_factory = [sub] {
    return core::oneuse_from_deterministic(sub);
  };
  const auto report = core::eliminate_registers(impl, options);
  if (!report.ok) {
    std::cerr << "transform failed: " << report.detail << "\n";
    return kExitVerifyFail;
  }
  std::cout << "D = " << report.bounds.depth << ", bits replaced = "
            << report.bits_replaced << ", one-use bits = "
            << report.oneuse_bits_created << "\nresult base objects:\n";
  for (const auto& [name, count] : report.census_after) {
    std::cout << "  " << count << " x " << name << "\n";
  }
  const auto check =
      consensus::check_consensus(report.result, verify_options());
  std::cout << "register-free protocol "
            << (check.solves ? "SOLVES" : "FAILS") << " consensus ("
            << check.configs << " configurations)\n";
  return check.solves ? kExitOk : kExitVerifyFail;
}

// ---- service-layer commands ------------------------------------------------

std::shared_ptr<const Implementation> protocol_impl(const std::string& name) {
  if (name == "tas") return consensus::from_test_and_set();
  if (name == "queue") return consensus::from_queue();
  if (name == "faa") return consensus::from_fetch_and_add();
  return nullptr;
}

service::VerifyJob make_consensus_job(
    std::shared_ptr<const Implementation> impl) {
  service::VerifyJob job;
  job.kind = service::JobKind::kConsensus;
  job.impl = std::move(impl);
  job.options = verify_options();
  job.precheck = g_precheck;
  return job;
}

/// Pulls the string value of `"field":"..."` out of a daemon JSON reply.
std::string json_string_field(const std::string& json,
                              const std::string& field) {
  const std::string needle = "\"" + field + "\":\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return "";
  const std::size_t start = at + needle.size();
  const std::size_t end = json.find('"', start);
  if (end == std::string::npos) return "";
  return json.substr(start, end - start);
}

/// Splits a batch reply -- a JSON array of objects -- into the top-level
/// object texts (nested braces and strings handled).
std::vector<std::string> split_json_array(const std::string& json) {
  std::vector<std::string> items;
  int depth = 0;
  std::size_t start = 0;
  bool in_string = false;
  bool escaped = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) items.push_back(json.substr(start, i - start + 1));
    }
  }
  return items;
}

void print_verdict_human(const std::string& label,
                         const service::Verdict& v) {
  std::cout << label << ": " << service::job_kind_name(v.kind) << " "
            << (v.ok ? "OK" : "FAILED")
            << (v.complete ? "" : " (incomplete)")
            << ", wait_free=" << (v.wait_free ? "yes" : "no") << ", configs="
            << v.stats.configs;
  if (!v.detail.empty()) std::cout << ", detail: " << v.detail;
  std::cout << "\n";
}

/// Runs (label, canonical job text) pairs locally or on the daemon.
/// Verdict per job on stdout (JSON with --json); exit 1 when any job's
/// verdict is not ok.
int run_jobs(const std::vector<std::pair<std::string, std::string>>& jobs) {
  bool all_ok = true;
  if (!g_server.empty()) {
    service::Client client(g_server);
    // One kBatchSubmit frame for the whole set; "rejected" entries -- the
    // server's bounded-admission backpressure -- are resubmitted with
    // exponential backoff instead of failing the run.
    std::vector<std::string> keys(jobs.size());
    std::vector<std::size_t> todo(jobs.size());
    for (std::size_t k = 0; k < jobs.size(); ++k) todo[k] = k;
    int backoff_ms = 20;
    while (!todo.empty()) {
      std::vector<std::string> batch;
      batch.reserve(todo.size());
      for (const std::size_t k : todo) batch.push_back(jobs[k].second);
      const std::vector<std::string> replies =
          split_json_array(client.submit_batch(batch));
      if (replies.size() != todo.size()) {
        std::cerr << "error: malformed batch submit reply\n";
        return kExitUsage;
      }
      std::vector<std::size_t> still;
      for (std::size_t k = 0; k < replies.size(); ++k) {
        if (json_string_field(replies[k], "status") == "rejected") {
          still.push_back(todo[k]);
        } else {
          keys[todo[k]] = json_string_field(replies[k], "key");
        }
      }
      if (!still.empty()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, 500);
      }
      todo = std::move(still);
    }
    // One kBatchPoll frame per probe round, until every job is final.
    std::vector<std::string> finals;
    for (;;) {
      finals = split_json_array(client.poll_batch(keys));
      bool pending = false;
      for (const std::string& reply : finals) {
        const std::string status = json_string_field(reply, "status");
        pending = pending || status == "queued" || status == "running";
      }
      if (!pending && finals.size() == keys.size()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    for (std::size_t k = 0; k < finals.size(); ++k) {
      const std::string& reply = finals[k];
      const std::string status = json_string_field(reply, "status");
      const bool ok = status == "done" &&
                      reply.find("\"ok\":true") != std::string::npos;
      all_ok = all_ok && ok;
      if (g_json) {
        std::cout << reply << "\n";
      } else {
        std::cout << jobs[k].first << ": " << status << " key=" << keys[k]
                  << (ok ? " OK" : " FAILED") << "\n";
      }
    }
  } else {
    const service::JobScheduler::Runner runner =
        service::JobScheduler::default_runner(g_threads);
    const std::atomic<bool> no_cancel{false};
    for (const auto& [label, text] : jobs) {
      service::VerifyJob job = service::parse_job(text);
      // Storage knobs are execution parameters, not job identity: the
      // canonical job text never carries them, so the local path injects
      // them after parsing (the daemon path uses its own configuration).
      job.options.storage.memory_budget_bytes = g_memory_budget;
      job.options.storage.checkpoint_dir = g_checkpoint_dir;
      const service::Verdict v = runner(job, no_cancel);
      all_ok = all_ok && v.ok;
      if (g_json) {
        std::cout << service::verdict_to_json(v) << "\n";
      } else {
        print_verdict_human(label, v);
      }
    }
  }
  return all_ok ? kExitOk : kExitVerifyFail;
}

int cmd_make_job(int argc, char** argv) {
  if (argc != 4 || std::string(argv[2]) != "consensus") {
    std::cerr << "usage: wfregs_cli make-job consensus <tas|queue|faa>\n";
    return kExitUsage;
  }
  const auto impl = protocol_impl(argv[3]);
  if (!impl) {
    std::cerr << "unknown protocol " << argv[3] << " (want tas|queue|faa)\n";
    return kExitUsage;
  }
  std::cout << service::print_job(make_consensus_job(impl));
  return kExitOk;
}

int cmd_verify(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: wfregs_cli verify <job-file>...\n";
    return kExitUsage;
  }
  std::vector<std::pair<std::string, std::string>> jobs;
  for (int k = 2; k < argc; ++k) {
    std::ifstream in(argv[k]);
    if (!in) {
      std::cerr << "cannot read " << argv[k] << "\n";
      return kExitUsage;
    }
    std::ostringstream text;
    text << in.rdbuf();
    jobs.emplace_back(argv[k], text.str());
  }
  return run_jobs(jobs);
}

/// Reads job files and batch-submits them without waiting (the reply JSON
/// array goes to stdout); polling is the caller's business.
int cmd_submit(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: wfregs_cli --server <endpoint> submit "
                 "<job-file>...\n";
    return kExitUsage;
  }
  if (g_server.empty()) {
    std::cerr << "error: 'submit' needs --server <endpoint>\n";
    return kExitUsage;
  }
  std::vector<std::string> texts;
  for (int k = 2; k < argc; ++k) {
    std::ifstream in(argv[k]);
    if (!in) {
      std::cerr << "cannot read " << argv[k] << "\n";
      return kExitUsage;
    }
    std::ostringstream text;
    text << in.rdbuf();
    texts.push_back(text.str());
  }
  service::Client client(g_server);
  std::cout << client.submit_batch(texts) << "\n";
  return kExitOk;
}

/// Offline log merge: every committed record of <src> lands in <dst>
/// (created if absent) keyed by JobKey, idempotently -- records <dst>
/// already holds byte-identically are skipped.  A torn tail on <src> is
/// reported and dropped, same rule as open()-time recovery.
int cmd_store_merge(int argc, char** argv) {
  if (argc != 4) {
    std::cerr << "usage: wfregs_cli store-merge <dst> <src>\n";
    return kExitUsage;
  }
  std::ifstream in(argv[3], std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << argv[3] << "\n";
    return kExitUsage;
  }
  std::ostringstream raw;
  raw << in.rdbuf();
  const std::string bytes = raw.str();
  const auto* data = reinterpret_cast<const std::uint8_t*>(bytes.data());
  if (!service::check_store_header(data, bytes.size())) {
    std::cerr << "error: " << argv[3]
              << " is not a verdict log (bad header)\n";
    return kExitUsage;
  }
  std::vector<service::StoreRecord> records;
  const std::size_t consumed = service::parse_store_records(
      data + service::kStoreHeaderBytes,
      bytes.size() - service::kStoreHeaderBytes, &records);
  service::VerdictStore dst(argv[2]);
  std::size_t applied = 0;
  std::size_t stale = 0;
  for (const service::StoreRecord& record : records) {
    if (!service::verdict_version_current(record.payload.data(),
                                          record.payload.size())) {
      ++stale;  // an earlier verdict encoding: recomputed, never merged
    } else if (dst.merge_encoded(record.key, record.payload)) {
      ++applied;
    }
  }
  std::cout << "merged " << records.size() << " records from " << argv[3]
            << " into " << argv[2] << " (" << applied << " applied, "
            << dst.size() << " total)";
  if (stale > 0) {
    std::cout << "; skipped " << stale
              << " records of an earlier verdict encoding";
  }
  if (service::kStoreHeaderBytes + consumed < bytes.size()) {
    std::cout << "; dropped torn tail of "
              << bytes.size() - service::kStoreHeaderBytes - consumed
              << " bytes";
  }
  std::cout << "\n";
  return kExitOk;
}

void print_checkpoint_info(const std::string& label,
                           const storage::CheckpointInfo& info) {
  std::ostringstream fp;
  fp << std::hex << std::setfill('0') << std::setw(16) << info.fp_hi
     << std::setw(16) << info.fp_lo;
  std::cout << label << ": " << (info.finished ? "finished" : "in progress")
            << ", fingerprint=" << fp.str() << "\n  configs=" << info.configs
            << " edges=" << info.edges << " terminals=" << info.terminals
            << " interned=" << info.interned << "\n  frames=" << info.frames
            << " snapshots=" << info.snapshots
            << " frontier_bytes=" << info.frontier_bytes
            << " arena_bytes=" << info.arena_bytes;
  if (info.dropped_bytes != 0) {
    std::cout << " dropped_bytes=" << info.dropped_bytes;
  }
  std::cout << "\n";
}

/// Inspects a checkpoint directory without opening it for writing: either a
/// single exploration checkpoint, or a parent holding several (a consensus
/// check keeps one `root<vec>` subdirectory per input vector; the scheduler
/// one `<job-key-hex>` subdirectory per job).
int cmd_checkpoint_info(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: wfregs_cli checkpoint-info <dir>\n";
    return kExitUsage;
  }
  const std::string dir = argv[2];
  const auto info = storage::FrontierCheckpoint::info(dir);
  if (info.present) {
    print_checkpoint_info(dir, info);
    return kExitOk;
  }
  std::vector<std::filesystem::path> subs;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_directory()) subs.push_back(entry.path());
  }
  if (ec) {
    std::cerr << "cannot read " << dir << ": " << ec.message() << "\n";
    return kExitUsage;
  }
  std::sort(subs.begin(), subs.end());
  std::size_t found = 0;
  for (const auto& sub : subs) {
    const auto child = storage::FrontierCheckpoint::info(sub.string());
    if (!child.present) continue;
    ++found;
    print_checkpoint_info(sub.filename().string(), child);
  }
  if (found == 0) {
    std::cerr << dir << ": no checkpoint found\n";
    return kExitUsage;
  }
  return kExitOk;
}

int cmd_check(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: wfregs_cli check <tas|queue|faa>\n";
    return kExitUsage;
  }
  const auto impl = protocol_impl(argv[2]);
  if (!impl) {
    std::cerr << "unknown protocol " << argv[2] << " (want tas|queue|faa)\n";
    return kExitUsage;
  }
  return run_jobs(
      {{argv[2], service::print_job(make_consensus_job(impl))}});
}

}  // namespace

int main(int argc, char** argv) {
  for (bool more = true; more && argc >= 2;) {
    const std::string flag = argv[1];
    if (flag == "-j") {
      char* end = nullptr;
      const long n = argc >= 3 ? std::strtol(argv[2], &end, 10) : -1;
      if (argc < 3 || end == argv[2] || *end != '\0' || n < 0) {
        std::cerr << "error: -j requires a non-negative thread count\n";
        return kExitUsage;
      }
      g_threads = static_cast<int>(n);
      g_threads_set = true;
      argv[2] = argv[0];
      argc -= 2;
      argv += 2;
    } else if (flag == "--reduction") {
      const std::string mode = argc >= 3 ? argv[2] : "";
      if (mode == "none") {
        g_reduction = Reduction::kNone;
      } else if (mode == "sleep") {
        g_reduction = Reduction::kSleep;
      } else if (mode == "sleep+symmetry") {
        g_reduction = Reduction::kSleepSymmetry;
      } else {
        std::cerr
            << "error: --reduction wants none|sleep|sleep+symmetry "
               "(all explore like none)\n";
        return kExitUsage;
      }
      g_reduction_set = true;
      argv[2] = argv[0];
      argc -= 2;
      argv += 2;
    } else if (flag == "--static-precheck") {
      g_precheck = true;
      argv[1] = argv[0];
      argc -= 1;
      argv += 1;
    } else if (flag == "--json") {
      g_json = true;
      argv[1] = argv[0];
      argc -= 1;
      argv += 1;
    } else if (flag == "--server") {
      if (argc < 3 || argv[2][0] == '\0') {
        std::cerr << "error: --server requires a socket path\n";
        return kExitUsage;
      }
      g_server = argv[2];
      argv[2] = argv[0];
      argc -= 2;
      argv += 2;
    } else if (flag == "--memory-budget") {
      const auto bytes =
          argc >= 3 ? parse_byte_size(argv[2]) : std::nullopt;
      if (!bytes) {
        std::cerr << "error: --memory-budget wants a size like 64M "
                     "(suffixes K, M, G)\n";
        return kExitUsage;
      }
      g_memory_budget = *bytes;
      g_storage_set = true;
      argv[2] = argv[0];
      argc -= 2;
      argv += 2;
    } else if (flag == "--checkpoint-dir") {
      if (argc < 3 || argv[2][0] == '\0') {
        std::cerr << "error: --checkpoint-dir requires a directory\n";
        return kExitUsage;
      }
      g_checkpoint_dir = argv[2];
      g_storage_set = true;
      argv[2] = argv[0];
      argc -= 2;
      argv += 2;
    } else {
      more = false;
    }
  }
  if (argc < 2) {
    std::cerr << "usage: wfregs_cli [-j N] [--reduction MODE] "
                 "[--static-precheck] [--json] [--server ENDPOINT] "
                 "[--memory-budget N[K|M|G]] [--checkpoint-dir DIR] "
                 "zoo|print|classify|oneuse|hierarchy|eliminate|make-job|"
                 "verify|submit|check|stats|shutdown|store-merge|"
                 "checkpoint-info ...\n"
                 "  --reduction MODE: none, sleep or sleep+symmetry; job-text "
                 "spellings that all explore like none (a consensus job "
                 "always explores one input vector per symmetry orbit)\n";
    return kExitUsage;
  }
  const std::string cmd = argv[1];
  // zoo / print / classify / hierarchy run no exhaustive exploration, so
  // explorer knobs would be silently dead -- say so instead.
  if ((g_threads_set || g_reduction_set) &&
      (cmd == "zoo" || cmd == "print" || cmd == "classify" ||
       cmd == "hierarchy" || cmd == "stats" || cmd == "shutdown" ||
       cmd == "store-merge" || cmd == "checkpoint-info")) {
    std::cerr << "warning: " << (g_threads_set ? "-j" : "")
              << (g_threads_set && g_reduction_set ? " and " : "")
              << (g_reduction_set ? "--reduction" : "") << " ignored: '"
              << cmd << "' runs no exhaustive exploration\n";
  }
  // --json only changes verify/check verdict output (stats and shutdown
  // replies are JSON already); warn where it is dead.
  if (g_json && cmd != "verify" && cmd != "check" && cmd != "stats" &&
      cmd != "shutdown") {
    std::cerr << "warning: --json ignored: '" << cmd
              << "' has no verdict output\n";
  }
  if (!g_server.empty() && cmd != "verify" && cmd != "submit" &&
      cmd != "check" && cmd != "stats" && cmd != "shutdown") {
    std::cerr << "warning: --server ignored: '" << cmd
              << "' always runs locally\n";
  }
  // The out-of-core flags configure local exploration only: make-job does
  // not serialize them (execution parameter, not job identity) and with
  // --server the daemon's own storage configuration governs.
  if (g_storage_set) {
    const bool local_exploration =
        g_server.empty() && (cmd == "verify" || cmd == "check" ||
                             cmd == "oneuse" || cmd == "eliminate");
    if (!local_exploration) {
      std::cerr << "warning: --memory-budget/--checkpoint-dir ignored: "
                << (g_server.empty()
                        ? "'" + cmd + "' runs no local exploration\n"
                        : "the daemon's storage configuration applies\n");
    }
  }
  try {
    if (cmd == "zoo") return cmd_zoo(argc, argv);
    if (cmd == "make-job") return cmd_make_job(argc, argv);
    if (cmd == "verify") return cmd_verify(argc, argv);
    if (cmd == "submit") return cmd_submit(argc, argv);
    if (cmd == "check") return cmd_check(argc, argv);
    if (cmd == "store-merge") return cmd_store_merge(argc, argv);
    if (cmd == "checkpoint-info") return cmd_checkpoint_info(argc, argv);
    if (cmd == "stats" || cmd == "shutdown") {
      if (g_server.empty()) {
        std::cerr << "error: '" << cmd << "' needs --server <socket>\n";
        return kExitUsage;
      }
      service::Client client(g_server);
      std::cout << (cmd == "stats" ? client.stats() : client.shutdown())
                << "\n";
      return kExitOk;
    }
    if (cmd == "eliminate") {
      if (argc != 4) {
        std::cerr << "usage: wfregs_cli eliminate <tas|queue|faa> <file>\n";
        return kExitUsage;
      }
      return cmd_eliminate(argv[2], load_type(argv[3]));
    }
    if (argc != 3) {
      std::cerr << "usage: wfregs_cli " << cmd << " <file>\n";
      return kExitUsage;
    }
    const TypeSpec t = load_type(argv[2]);
    if (cmd == "print") return cmd_print(t);
    if (cmd == "classify") return cmd_classify(t);
    if (cmd == "oneuse") return cmd_oneuse(t);
    if (cmd == "hierarchy") return cmd_hierarchy(t);
    std::cerr << "unknown command: " << cmd << "\n";
    return kExitUsage;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitUsage;
  }
}
