// Exhaustive consensus checking: does an implementation of T_{c,n} actually
// solve wait-free n-process consensus?
//
// For each of the 2^n input vectors (the roots of the paper's Section 4.2
// execution trees) the checker explores every schedule and every
// nondeterministic object transition, verifying at each terminal
// configuration:
//
//   * agreement  -- all processes return the same value;
//   * validity   -- the returned value was some process's input;
//   * wait-freedom and termination come from the exploration itself (cycle
//     detection and completeness).
//
// The checker also reports the paper's quantities: the depth D = max over
// the 2^n trees of the longest execution (Section 4.2's uniform access
// bound), and optionally per-base-object access bounds (the tighter per-bit
// r_b / w_b that size the Section 4.3 arrays).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "wfregs/runtime/explorer.hpp"
#include "wfregs/runtime/implementation.hpp"

namespace wfregs::consensus {

struct ConsensusCheckResult {
  bool solves = false;      ///< agreement + validity + wait-free, all inputs
  bool wait_free = true;
  bool complete = true;     ///< exploration finished within limits
  /// True when the verdict came from options.static_consensus (no
  /// exploration ran: depth/configs/terminals stay 0 and detail carries the
  /// static justification instead of a violation trace).
  bool static_decision = false;
  /// Any of the per-root explorations resumed from a checkpoint (out-of-core
  /// runs; each input vector checkpoints into its own `root<vec>`
  /// subdirectory of storage.checkpoint_dir).
  bool resumed = false;
  /// The check stopped early but left resumable state behind -- an
  /// interrupt checkpoint for the cut root and/or final snapshots for the
  /// roots already done -- so rerunning with the same checkpoint_dir picks
  /// up where this run stopped.  Always false for complete checks.
  bool checkpointed = false;
  std::string detail;       ///< first violation description
  /// Section 4.2's D: the maximum depth over all 2^n execution trees.
  int depth = 0;
  std::size_t configs = 0;    ///< summed over roots
  std::size_t terminals = 0;  ///< summed over roots
  /// Per-object access bound (indexed by system object id; the consensus
  /// object's system has deterministic ids across roots).  Filled only when
  /// limits.track_access_bounds is set; elementwise max over roots.
  std::vector<std::size_t> max_accesses;
  /// Per-object, per-invocation access bounds (same indexing and max-over-
  /// roots semantics); these split each bit's bound into reads vs writes,
  /// the r_b / w_b of Section 4.3.
  std::vector<std::vector<std::size_t>> max_accesses_by_inv;
  /// The raw per-root exploration stats (one entry per input vector, in
  /// vector-encoding order), kept so downstream analyses can aggregate
  /// within a root before maximizing across roots -- e.g. "writes of any
  /// value" per execution.  Filled only when limits.track_access_bounds.
  std::vector<ExploreStats> per_root;
};

/// Builds the standard consensus scenario system for one input vector:
/// process p proposes inputs[p] (0 or 1) through iface port p.  The object
/// id of the implemented consensus object is the LAST id in the system.
std::shared_ptr<System> consensus_scenario(
    std::shared_ptr<const Implementation> impl,
    const std::vector<int>& inputs);

/// Runs the full check over all 2^n input vectors.  Each root's exploration
/// runs on options.threads workers (0 = hardware concurrency, 1 = the
/// sequential explorer); see the PARALLEL EXPLORATION contract in
/// explorer.hpp.
ConsensusCheckResult check_consensus(
    std::shared_ptr<const Implementation> impl,
    const VerifyOptions& options = {});

/// Legacy-limits convenience overload; equivalent to passing
/// VerifyOptions{limits} (default thread count).
ConsensusCheckResult check_consensus(
    std::shared_ptr<const Implementation> impl, const ExploreLimits& limits);

}  // namespace wfregs::consensus
