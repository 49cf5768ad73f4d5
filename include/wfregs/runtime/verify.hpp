// End-to-end correctness checking of an implementation (Section 2.2): runs a
// driver scenario in which each process issues a fixed script of invocations
// on the implemented object, explores EVERY interleaving and every
// nondeterministic object transition, and checks that each resulting history
// is linearizable with respect to the implemented type's specification and
// that the implementation is wait-free (no configuration cycles).
//
// This is the executable counterpart of the paper's notion of a "correct
// wait-free implementation": correctness quantifies over all histories,
// which the explorer enumerates exactly.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "wfregs/runtime/explorer.hpp"
#include "wfregs/runtime/implementation.hpp"

namespace wfregs {

struct VerifyResult {
  bool ok = false;          ///< linearizable in every schedule AND wait-free
  bool wait_free = false;   ///< no configuration cycle found
  bool complete = false;    ///< exploration finished within limits
  std::string detail;       ///< first violation, when !ok
  bool resumed = false;      ///< exploration resumed from a checkpoint
  bool checkpointed = false; ///< an interrupted run left a resumable checkpoint
  ExploreStats stats;
};

/// Verifies `impl` under the scenario `scripts`: process p (attached to
/// iface port p) performs scripts[p] in order.  scripts.size() must equal
/// impl->iface().ports(); empty scripts are allowed (the process finishes
/// immediately).  Every schedule's history is checked for linearizability
/// against impl->iface() from impl->iface_initial().  Exploration runs on
/// options.threads workers (0 = hardware concurrency, 1 = the sequential
/// explorer); see the PARALLEL EXPLORATION contract in explorer.hpp.
VerifyResult verify_linearizable(std::shared_ptr<const Implementation> impl,
                                 std::vector<std::vector<InvId>> scripts,
                                 const VerifyOptions& options = {});

/// Legacy-limits convenience overload; equivalent to passing
/// VerifyOptions{limits} (default thread count).
VerifyResult verify_linearizable(std::shared_ptr<const Implementation> impl,
                                 std::vector<std::vector<InvId>> scripts,
                                 const ExploreLimits& limits);

}  // namespace wfregs
