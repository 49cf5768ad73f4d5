// The benchmark's job families and the known answer for each.
//
// Every known answer comes from the paper or the literature, never from the
// explorer under test:
//
//   tas / queue / fetch&add protocols  solve 2-process consensus
//                                      (Herlihy 1991, consensus number 2)
//   cas(n), sticky_bit(n),             solve n-process consensus for every n
//   consensus_object(n), cas_ids(n)    (Herlihy 1991: CAS is universal;
//                                      Plotkin 1989: sticky bits; an n-process
//                                      consensus object solves n)
//   shift_register(n, w)               solves iff n <= w
//                                      (Aspnes 2025, cons(w-bit shift) = w)
//   registers_only_attempt(n)          does not solve, but is wait-free
//                                      (FLP 1985; Loui & Abu-Amara 1987;
//                                      Herlihy 1991: registers have
//                                      consensus number 1)
//   one-use bit from a non-trivial     linearizable and wait-free
//   deterministic type (Section 5.2)   (the paper's Section 5.2 construction)
//   MRSW register over Simpson SRSW    linearizable and wait-free
//   registers                          (Simpson 1990; the classical
//                                      SRSW -> MRSW construction)
//
// Every verdict must also be complete (the exploration finished).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "wfregs/service/job.hpp"
#include "wfregs/service/verdict.hpp"

namespace perfbench {

/// The decision a verdict must carry.
struct Expect {
  bool ok = true;
  bool wait_free = true;
};

struct Case {
  std::string label;  ///< e.g. "cas(4)/sleep"
  std::string family;  ///< the known-answer row, e.g. "herlihy-2"
  wfregs::service::VerifyJob job;
  Expect expect;
};

/// True when `v` is complete and carries `e`'s decision bits.
bool matches(const wfregs::service::Verdict& v, const Expect& e);

/// The consensus zoo: tas, queue, faa, cas(2..5), sticky_bit(2..5),
/// consensus_object(2..5), shift_register(2..4, 2..5) and cas_ids(3..4),
/// each under the three reduction modes, with the static precheck on.
/// (cas_ids(5), ~1 s per verdict, is left out: in a batch its three copies
/// would carry two thirds of the work and make throughput depend on where a
/// run's cut falls in the pass.)
std::vector<Case> consensus_zoo();

/// registers_only_attempt(2..4) under the three reduction modes with the
/// static consensus-power fast path (and precheck) on.
std::vector<Case> static_attempts();

/// MRSW registers over Simpson SRSW registers, linearizability with small
/// scripts.  `wide` selects the two-reader (70 KB job text) variants.
std::vector<Case> mrsw_cases(bool wide);

/// A Section 5.2 one-use bit synthesized from the random deterministic type
/// drawn with `type_seed`, checked on one of the four one-use scenarios;
/// nullopt when that type is trivial.
std::optional<Case> oneuse_case(std::uint64_t type_seed, int scenario);

/// deep_single's job: MRSW(2 values, 2 readers) over Simpson, scripts
/// `r r | r | w w` (217,636 configurations).
Case deep_case();

/// The storage probe's job, E18's: cas_ids(5) consensus (101,024
/// configurations).
Case ooc_case();

/// splitmix64: the benchmark's seeded stream.
std::uint64_t mix(std::uint64_t x);

/// Fisher-Yates shuffle driven by mix(), identical on every platform.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  for (std::size_t i = v.size(); i > 1; --i) {
    seed = mix(seed);
    std::swap(v[i - 1], v[seed % i]);
  }
}

}  // namespace perfbench
