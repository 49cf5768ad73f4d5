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

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "wfregs/runtime/explorer.hpp"
#include "wfregs/runtime/implementation.hpp"
#include "wfregs/runtime/system.hpp"

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
  /// runs; each explored input vector checkpoints into its own `root<vec>`
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
  /// value" per execution.  A vector credited to its orbit representative
  /// (see check_consensus) holds a copy of the representative's stats,
  /// which equal its own.  Filled only when limits.track_access_bounds; a
  /// cancelled job ends at the cancelled root, so it has fewer entries.
  std::vector<ExploreStats> per_root;
};

/// The part of the consensus scenario that all 2^n input vectors share:
/// the implemented object's flattened placements, one CompiledType per
/// distinct base spec, and the two propose programs.  check_consensus
/// builds one per job, so a job compiles each base type once however many
/// roots it explores.
class ScenarioTemplate {
 public:
  /// Throws std::invalid_argument for a null implementation.
  explicit ScenarioTemplate(std::shared_ptr<const Implementation> impl);

  int processes() const { return system_.num_processes(); }

  /// The input vectors' symmetry orbits.  A process renaming pi in the
  /// scenario's symmetry group G (symmetry_renamings of the all-zero
  /// instance) maps the root for input vector v onto the root for v.pi,
  /// (v.pi)[pi(p)] = v[p], and the two configuration graphs are
  /// isomorphic.  With vectors encoded as integers (bit p = process p's
  /// input), entry vec is the least vector of {vec.pi : pi in G}, never
  /// greater than vec.  Empty when G is trivial (an asymmetric protocol, or
  /// more than 6 processes): every vector is then its own orbit.  Computes
  /// G on every call.
  std::vector<int> orbit_representatives() const;

  /// The scenario system for one input vector: a copy of the template
  /// (base objects share its CompiledTypes) in which process p proposes
  /// inputs[p] (0 or 1) through iface port p.  Processes with the same
  /// input share one propose program.  Throws std::invalid_argument unless
  /// there is one binary input per port.
  std::shared_ptr<System> instantiate(const std::vector<int>& inputs) const;

 private:
  System system_;
  ObjectId object_ = -1;
  std::array<ProgramRef, 2> propose_;
};

/// Builds the standard consensus scenario system for one input vector:
/// process p proposes inputs[p] (0 or 1) through iface port p.  The object
/// id of the implemented consensus object is the LAST id in the system.
/// Equivalent to ScenarioTemplate(impl).instantiate(inputs).
std::shared_ptr<System> consensus_scenario(
    std::shared_ptr<const Implementation> impl,
    const std::vector<int>& inputs);

/// Runs the full check over all 2^n input vectors, in vector order.  Each
/// root's exploration runs on options.threads workers (0 = hardware
/// concurrency, 1 = the sequential explorer); see the PARALLEL EXPLORATION
/// contract in explorer.hpp.
///
/// A vector whose orbit representative
/// (ScenarioTemplate::orbit_representatives) was explored completely,
/// wait-free and without a violation is not explored: it is credited with
/// the representative's stats, which its isomorphic graph would reproduce
/// exactly.  Every other vector is explored, so each member of a violating,
/// cyclic or limit-hit orbit runs and `detail` names the first violating
/// vector.  A cancelled job (limits.cancel set) stops at the root that saw
/// the cancel: later vectors are neither explored nor credited.  A credited
/// vector writes no `root<vec>` checkpoint directory; on resume its
/// representative's final snapshot credits it again.
ConsensusCheckResult check_consensus(
    std::shared_ptr<const Implementation> impl,
    const VerifyOptions& options = {});

/// Legacy-limits convenience overload; equivalent to passing
/// VerifyOptions{limits} (default thread count).
ConsensusCheckResult check_consensus(
    std::shared_ptr<const Implementation> impl, const ExploreLimits& limits);

}  // namespace wfregs::consensus
