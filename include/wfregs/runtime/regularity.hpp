// Regular-register semantics checking (Lamport 1986).
//
// A single-writer register is REGULAR when every read returns either the
// value of the latest write that completed before the read began (or the
// initial value when there is none) or the value of some write overlapping
// the read.  Regularity is strictly weaker than atomicity: it permits
// new/old inversion between consecutive reads.
//
// The checker consumes the same OpRecord histories the engine produces,
// under the register invocation convention (invocation 0 = read returning
// the value; invocation 1+v = write(v)).  Writes must be sequential (single
// writer); overlapping writes are reported as a usage error.
//
// verify_regular() is the regular-register analogue of verify_linearizable:
// it explores every schedule of a scenario and checks each history.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "wfregs/runtime/explorer.hpp"
#include "wfregs/runtime/history.hpp"
#include "wfregs/runtime/implementation.hpp"

namespace wfregs {

struct RegularityResult {
  bool regular = false;
  std::string detail;  ///< first violating read, when !regular
};

/// Checks the regular-register condition on `ops` for a register over
/// `values` values initially holding `initial`.
RegularityResult check_regular(const std::vector<OpRecord>& ops, int values,
                               int initial);

struct RegularVerifyResult {
  bool ok = false;
  bool wait_free = false;
  bool complete = false;
  std::string detail;
  bool resumed = false;      ///< exploration resumed from a checkpoint
  bool checkpointed = false; ///< an interrupted run left a resumable checkpoint
  ExploreStats stats;
};

/// Explores every schedule of the scenario (process p runs scripts[p] on
/// iface port p) and checks each resulting history with check_regular.
/// impl's interface must follow the register invocation convention with
/// its initial state being the initial value.  Exploration runs on
/// options.threads workers (0 = hardware concurrency, 1 = the sequential
/// explorer).
RegularVerifyResult verify_regular(std::shared_ptr<const Implementation> impl,
                                   std::vector<std::vector<InvId>> scripts,
                                   int values,
                                   const VerifyOptions& options = {});

/// Legacy-limits convenience overload; equivalent to passing
/// VerifyOptions{limits} (default thread count).
RegularVerifyResult verify_regular(std::shared_ptr<const Implementation> impl,
                                   std::vector<std::vector<InvId>> scripts,
                                   int values, const ExploreLimits& limits);

}  // namespace wfregs
