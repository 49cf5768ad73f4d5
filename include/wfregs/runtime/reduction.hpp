// Process-symmetry reduction for the schedule explorer.
//
// The explorer of explorer.hpp enumerates every interleaving of base-object
// accesses.  When several processes run the same program over the same
// objects, a configuration and its image under a process renaming have
// isomorphic futures, so one representative per orbit suffices for every
// verdict the explorer reports.  This header provides the two ingredients:
//
//   * symmetry_renamings -- the process-symmetry group of a System: process
//     permutations (with their induced per-object port maps) under which the
//     system is invariant, used to canonicalize configurations to orbit
//     representatives.
//   * ReductionContext -- the per-exploration driver shared by the
//     sequential DFS and the parallel work-stealing frontier: enabled-step
//     enumeration and node-key canonicalization.
//
// Symmetry is the only reduction.  There are no sleep sets: keyed on
// (configuration, sleep mask) to stay exact, they never removed a
// configuration on any system measured (DESIGN.md §6).
//
// SOUNDNESS.  Canonicalization merges whole orbits.  Automorphisms fix
// object ids (they only permute processes and ports), so a configuration
// and its renamed image have the same depth below them, the same
// per-object and per-invocation access bounds, the same cycles and
// renamed terminals; depth, access bounds, wait-freedom and terminal
// verdicts therefore lift along orbits.  Like memoization itself, reduction
// requires TerminalChecks that are functions of the terminal configuration
// (the MEMOIZATION CONTRACT of explorer.hpp); symmetry additionally
// requires the check to be invariant under process renaming, which every
// check in this library is (agreement, validity and linearizability do not
// name processes).
#pragma once

#include <vector>

#include "wfregs/runtime/engine.hpp"
#include "wfregs/runtime/system.hpp"

namespace wfregs {

/// Reduction mode for the explorers (ExploreOptions::reduction).  The
/// enumerators keep their historical names because they are job-text
/// spellings (service/job.hpp): a job's key hashes its printed text.
enum class Reduction {
  kNone,           ///< the plain configuration graph, unreduced
  kSleep,          ///< explores exactly like kNone (sleep sets are gone)
  kSleepSymmetry,  ///< process-symmetry canonicalization
};

/// One element of a System's process-symmetry group: a process permutation
/// together with the per-object port maps it induces.  Applying a renaming
/// to a reachable configuration yields a reachable configuration of the
/// same system (the root is a fixed point: all processes start poised at
/// their first access with zeroed registers).
struct ProcessRenaming {
  std::vector<ProcId> proc_map;  ///< old process id -> new process id
  std::vector<ProcId> old_proc;  ///< inverse: new process id -> old
  /// port_map[g][old port] -> new port; empty vector = identity on g.
  std::vector<std::vector<PortId>> port_map;
  /// Inverse per-object maps (new port -> old); empty = identity.
  std::vector<std::vector<PortId>> old_port;

  PortId map_port(ObjectId g, PortId port) const {
    if (port < 0) return port;  // kNoPort handles pass through
    const auto& m = port_map[static_cast<std::size_t>(g)];
    return m.empty() ? port : m[static_cast<std::size_t>(port)];
  }
};

/// All non-identity renamings under which `sys` is invariant: permutations
/// pi with toplevel_program(p) == toplevel_program(pi(p)) (pointer equality
/// -- programs are immutable and shared), identical environment object
/// sequences, and induced port maps under which every moved held port has
/// an identical transition table (base objects) or identical programs
/// (implemented objects).  Returns empty for asymmetric systems and for
/// systems with more than 6 processes (the factorial enumeration stops
/// paying for itself well before the memory of the exploration it would
/// reduce fits in RAM).
std::vector<ProcessRenaming> symmetry_renamings(const System& sys);

/// Per-exploration symmetry state shared by explore() and
/// explore_parallel() under kSleepSymmetry.  Thread-compatible: all state
/// is immutable after construction, so concurrent workers may share one
/// const instance.
class ReductionContext {
 public:
  /// Computes the symmetry group of `sys` (symmetry_renamings).
  explicit ReductionContext(const System& sys);

  /// One enabled step: a process poised at a base access, with the
  /// nondeterministic width of that access.
  struct Step {
    ProcId p = -1;
    int width = 0;
  };

  /// All runnable processes' pending steps, in ascending process order (the
  /// explorers' enumeration order in every mode, kNone included), written
  /// into `out` (cleared first; its capacity is reused across nodes).
  static void steps_into(const Engine& e, std::vector<Step>& out);

  /// Canonicalizes `e` to its orbit representative: picks the renaming
  /// with the lexicographically least ConfigKey, applies it to `e` in
  /// place, writes that key into `out` (reused storage, cleared first) and
  /// reports through `applied` which group renaming was applied (an index
  /// for undo_renaming, or -1 when the engine was left untouched).  The
  /// renamed candidate keys are built in `scratch`, the caller's reused
  /// storage (contents unspecified on return), so a node costs no heap
  /// allocation once both keys have grown.  The undo-based explorers must
  /// invert the canonicalization before reverting the step that produced
  /// `e`.
  void canonical_node_key_into(Engine& e, ConfigKey& out, ConfigKey& scratch,
                               int* applied) const;

  /// Re-applies renaming `idx` (as reported by canonical_node_key_into) to
  /// an engine -- the parallel explorer's path replay uses this to
  /// re-canonicalize without recomputing any keys.
  void apply_renaming_index(Engine& e, int idx) const;

  /// Applies the inverse of renaming `idx`, exactly undoing
  /// apply_renaming_index / canonical_node_key_into on the same engine.
  void undo_renaming(Engine& e, int idx) const;

 private:
  std::vector<ProcessRenaming> renamings_;
  /// inverses_[k] undoes renamings_[k] (same group, swapped maps).
  std::vector<ProcessRenaming> inverses_;
};

}  // namespace wfregs
