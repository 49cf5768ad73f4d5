#include "jobs.hpp"

#include "wfregs/consensus/protocols.hpp"
#include "wfregs/core/oneuse_from_type.hpp"
#include "wfregs/registers/mrsw.hpp"
#include "wfregs/typesys/random_type.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace perfbench {

using wfregs::InvId;
using wfregs::Reduction;
using wfregs::service::JobKind;
using wfregs::service::VerifyJob;
namespace consensus = wfregs::consensus;

namespace {

const char* reduction_label(Reduction r) {
  switch (r) {
    case Reduction::kNone:
      return "none";
    case Reduction::kSleep:
      return "sleep";
    case Reduction::kSleepSymmetry:
      return "sleep+symmetry";
  }
  return "?";
}

constexpr Reduction kReductions[] = {Reduction::kNone, Reduction::kSleep,
                                     Reduction::kSleepSymmetry};

void add_consensus(std::vector<Case>* out, const std::string& name,
                   const std::string& family,
                   std::shared_ptr<const wfregs::Implementation> impl,
                   Expect expect, bool static_power) {
  for (const Reduction r : kReductions) {
    Case c;
    c.label = name + "/" + reduction_label(r);
    c.family = family;
    c.job.kind = JobKind::kConsensus;
    c.job.impl = impl;
    c.job.options.reduction = r;
    c.job.precheck = true;
    c.job.static_power = static_power;
    c.expect = expect;
    out->push_back(std::move(c));
  }
}

Case mrsw_case(int values, int readers, int initial,
               std::vector<std::vector<InvId>> scripts, const std::string& shape,
               Reduction r) {
  Case c;
  c.label = "mrsw(" + std::to_string(values) + "," + std::to_string(readers) +
            ",init " + std::to_string(initial) + ") " + shape + "/" +
            reduction_label(r);
  c.family = "mrsw-simpson";
  c.job.kind = JobKind::kLinearizable;
  c.job.impl = wfregs::registers::mrsw_register(
      values, readers, initial, 2, wfregs::registers::simpson_srsw_factory());
  c.job.scripts = std::move(scripts);
  c.job.options.reduction = r;
  return c;
}

}  // namespace

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool matches(const wfregs::service::Verdict& v, const Expect& e) {
  return v.complete && v.ok == e.ok && v.wait_free == e.wait_free;
}

std::vector<Case> consensus_zoo() {
  std::vector<Case> out;
  const Expect solves{true, true};
  add_consensus(&out, "tas", "herlihy-2", consensus::from_test_and_set(),
                solves, false);
  add_consensus(&out, "queue", "herlihy-2", consensus::from_queue(), solves,
                false);
  add_consensus(&out, "faa", "herlihy-2", consensus::from_fetch_and_add(),
                solves, false);
  for (int n = 2; n <= 5; ++n) {
    const std::string k = "(" + std::to_string(n) + ")";
    add_consensus(&out, "cas" + k, "herlihy-universal",
                  consensus::from_cas(n), solves, false);
    add_consensus(&out, "sticky_bit" + k, "herlihy-universal",
                  consensus::from_sticky_bit(n), solves, false);
    add_consensus(&out, "consensus_object" + k, "consensus-object",
                  consensus::from_consensus_object(n), solves, false);
  }
  for (int n = 2; n <= 4; ++n) {
    for (int w = 2; w <= 5; ++w) {
      add_consensus(&out,
                    "shift_register(" + std::to_string(n) + "," +
                        std::to_string(w) + ")",
                    "aspnes-shift", consensus::from_shift_register(n, w),
                    Expect{n <= w, true}, false);
    }
  }
  for (int n = 3; n <= 4; ++n) {
    add_consensus(&out, "cas_ids(" + std::to_string(n) + ")",
                  "herlihy-universal", consensus::from_cas_ids(n), solves,
                  false);
  }
  return out;
}

std::vector<Case> static_attempts() {
  std::vector<Case> out;
  for (int n = 2; n <= 4; ++n) {
    add_consensus(&out, "registers_only_attempt(" + std::to_string(n) + ")",
                  "registers-only", consensus::registers_only_attempt(n),
                  Expect{false, true}, true);
  }
  return out;
}

std::vector<Case> mrsw_cases(bool wide) {
  std::vector<Case> out;
  if (wide) {
    const wfregs::zoo::MrswRegisterLayout lay{2, 2};
    for (const Reduction r : kReductions) {
      out.push_back(mrsw_case(2, 2, 0, {{lay.read()}, {lay.read()},
                                        {lay.write(1)}},
                              "r | r | w", r));
    }
    out.push_back(mrsw_case(2, 2, 1, {{lay.read()}, {lay.read()},
                                      {lay.write(0)}},
                            "r | r | w", Reduction::kNone));
    return out;
  }
  for (const int values : {2, 3}) {
    const wfregs::zoo::MrswRegisterLayout lay{values, 1};
    for (const Reduction r : kReductions) {
      out.push_back(mrsw_case(values, 1, 0, {{lay.read()}, {lay.write(1)}},
                              "r | w", r));
      out.push_back(mrsw_case(values, 1, 0,
                              {{lay.read(), lay.read()},
                               {lay.write(1), lay.write(values - 1)}},
                              "r r | w w", r));
    }
  }
  return out;
}

std::optional<Case> oneuse_case(std::uint64_t type_seed, int scenario) {
  wfregs::RandomTypeParams params;
  params.ports = 2;
  params.num_states = 4;
  params.num_invocations = 2;
  params.num_responses = 2;
  params.oblivious = (type_seed & 1) == 0;
  const wfregs::TypeSpec type = wfregs::random_type(params, type_seed);
  auto impl = wfregs::core::oneuse_from_deterministic(type);
  if (impl == nullptr) return std::nullopt;
  const wfregs::zoo::OneUseBitLayout b;
  static const char* const kShapes[] = {"r | w", "r | -", "r r | w",
                                        "r | w w"};
  std::vector<std::vector<InvId>> scripts;
  switch (scenario & 3) {
    case 0:
      scripts = {{b.read()}, {b.write()}};
      break;
    case 1:
      scripts = {{b.read()}, {}};
      break;
    case 2:
      scripts = {{b.read(), b.read()}, {b.write()}};
      break;
    default:
      scripts = {{b.read()}, {b.write(), b.write()}};
      break;
  }
  Case c;
  c.label = "oneuse(type " + std::to_string(type_seed) + ") " +
            kShapes[scenario & 3];
  c.family = "oneuse-5.2";
  c.job.kind = JobKind::kLinearizable;
  c.job.impl = std::move(impl);
  c.job.scripts = std::move(scripts);
  return c;
}

Case deep_case() {
  const wfregs::zoo::MrswRegisterLayout lay{2, 2};
  return mrsw_case(2, 2, 0,
                   {{lay.read(), lay.read()},
                    {lay.read()},
                    {lay.write(1), lay.write(0)}},
                   "r r | r | w w", Reduction::kNone);
}

Case ooc_case() {
  Case c;
  c.label = "cas_ids(5)/none";
  c.family = "herlihy-universal";
  c.job.kind = JobKind::kConsensus;
  c.job.impl = consensus::from_cas_ids(5);
  return c;
}

}  // namespace perfbench
