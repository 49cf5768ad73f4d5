// Partial-order and symmetry reduction for the schedule explorer.
//
// The explorer of explorer.hpp enumerates every interleaving of base-object
// accesses.  Much of that work is redundant in exactly the Mazurkiewicz
// sense: two enabled steps by different processes COMMUTE when they access
// disjoint base objects, or the same object with operations whose transition
// tables compose to the same outcomes in either order.  Executions that
// differ only by swapping adjacent commuting steps reach the same terminal
// configuration with the same length and the same per-object access counts,
// so one representative per equivalence class suffices for every verdict the
// explorer reports.  This header provides the three ingredients:
//
//   * IndependenceTable -- the static commutation relation, computed from
//     the TypeSpec transition tables (see accesses_commute_at); the
//     analysis library refines it with reachable-state and issued-invocation
//     facts (analysis::refined_independence) and injects the result through
//     ExploreOptions::independence.
//   * symmetry_renamings -- the process-symmetry group of a System: process
//     permutations (with their induced per-object port maps) under which the
//     system is invariant, used to canonicalize configurations to orbit
//     representatives.
//   * ReductionContext -- the per-exploration driver shared by the
//     sequential DFS and the parallel work-stealing frontier: enabled-step
//     enumeration, sleep-set propagation (Flanagan/Godefroid sleep sets over
//     process-id bitmasks) and node-key canonicalization.
//
// SOUNDNESS.  Sleep sets prune only executions whose Mazurkiewicz trace has
// another explored representative, and the exploration keeps the full
// enabled set otherwise (no persistent-set restriction), so every terminal
// configuration is still visited, the longest explored path still realizes
// the Section 4.2 depth, and per-object / per-invocation access bounds are
// unchanged (trace-equivalent executions have identical access multisets).
// Wait-freedom is preserved because an infinite execution yields unbounded
// trace representatives, which in a finite (configuration, sleep-set) node
// graph forces a node repeat along some explored path -- the same cycle
// abort the unreduced explorer performs.  Symmetry canonicalization merges
// whole orbits; automorphisms fix object ids (they only permute processes
// and ports), so depth, access bounds, cycles and terminal verdicts lift
// along orbits.  Like memoization itself, reduction requires TerminalChecks
// that are functions of the terminal configuration (the MEMOIZATION
// CONTRACT of explorer.hpp); symmetry additionally requires the check to be
// invariant under process renaming, which every check in this library is
// (agreement, validity and linearizability do not name processes).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "wfregs/runtime/engine.hpp"
#include "wfregs/runtime/system.hpp"

namespace wfregs {

/// Reduction mode for the explorers (ExploreOptions::reduction).
enum class Reduction {
  kNone,           ///< the plain configuration graph, unreduced
  kSleep,          ///< sleep-set partial-order reduction
  kSleepSymmetry,  ///< sleep sets + process-symmetry canonicalization
};

/// True when the accesses (port a, invocation i1) and (port b, invocation
/// i2) -- performed by two different processes -- commute at state q of `t`:
/// executing them in either order yields the same set of (final state,
/// response to i1, response to i2) outcomes.  Nondeterministic and partial
/// cells are handled by the set comparison (an empty delta in one order must
/// be empty in the other for the accesses to commute).
bool accesses_commute_at(const TypeSpec& t, StateId q, PortId a, InvId i1,
                         PortId b, InvId i2);

/// Static commutation relation over the base objects of a System: for each
/// base object, a (port, invocation) x (port, invocation) matrix of
/// "commutes in every state".  Steps on distinct base objects are always
/// independent and are not represented here (ReductionContext handles them).
class IndependenceTable {
 public:
  /// Baseline table from the TypeSpec transition tables alone: a pair
  /// commutes iff accesses_commute_at holds in every state of the object's
  /// spec.  Sound for any exploration of `sys`.
  static IndependenceTable build(const System& sys);

  /// An all-dependent table of the right shape (the refinement starting
  /// point used by analysis::refined_independence).
  static IndependenceTable all_dependent(const System& sys);

  /// True when the table covers base object g with the given dimensions
  /// (tables built for one System must not be injected into explorations of
  /// another shape).
  bool covers(ObjectId g, int ports, int invs) const;

  bool independent(ObjectId g, PortId a, InvId i1, PortId b, InvId i2) const;
  void set_independent(ObjectId g, PortId a, InvId i1, PortId b, InvId i2,
                       bool independent);

  /// Number of independent (unordered) pairs over all objects; diagnostics.
  std::size_t independent_pairs() const;

 private:
  struct PerObject {
    int ports = 0;
    int invs = 0;
    std::vector<char> bits;  ///< [(a*invs+i1)*ports*invs + b*invs+i2]
  };
  std::vector<PerObject> objects_;  ///< indexed by gid; empty for virtual
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

/// Per-exploration reduction driver shared by explore() and
/// explore_parallel().  Thread-compatible: all state is immutable after
/// construction, so concurrent workers may share one const instance.
class ReductionContext {
 public:
  /// `mode` != kNone required.  `injected` optionally overrides the
  /// baseline independence table (it must cover every base object of
  /// `sys`); pass nullptr to build the TypeSpec baseline.  When the system
  /// shares an object port between two processes, sleep-set pruning is
  /// disabled (steps on distinct base objects may then conflict through the
  /// shared per-port persistent state) and only symmetry remains active.
  ReductionContext(const System& sys, Reduction mode,
                   const IndependenceTable* injected);

  /// One enabled step: a process poised at a base access, with the
  /// nondeterministic width of that access.
  struct Step {
    ProcId p = -1;
    ObjectId object = -1;
    PortId port = -1;
    InvId inv = 0;
    int width = 0;
  };

  /// All runnable processes' pending steps, in ascending process order (the
  /// explorers' enumeration order in every mode, kNone included), written
  /// into `out` (cleared first; its capacity is reused across nodes).
  static void steps_into(const Engine& e, std::vector<Step>& out);

  /// Whether two steps by different processes commute.
  bool independent(const Step& a, const Step& b) const;

  /// True when sleep-set pruning is active (kSleep or kSleepSymmetry, <= 64
  /// processes, no shared ports).
  bool sleep_active() const { return sleep_active_; }

  /// Sleep mask for the child reached by taking steps[taken] from a node
  /// with sleep mask `sleep`: processes already slept or explored earlier at
  /// this node whose pending step commutes with the taken one.  The same
  /// mask applies to every nondeterministic choice of the taken step.
  std::uint64_t child_sleep(const std::vector<Step>& steps, std::size_t taken,
                            std::uint64_t sleep) const;

  /// Canonicalizes (e, sleep) to its orbit representative: picks the
  /// renaming minimizing the (ConfigKey, renamed sleep mask) pair, applies
  /// it to `e` and `sleep` in place, and returns the node identity -- the
  /// canonical ConfigKey with the sleep mask appended as a final word.
  /// Under kSleep (or an asymmetric system) the engine is untouched and the
  /// identity key is returned.  Node identity is exact: two nodes are
  /// merged only when both the canonical configuration AND the sleep mask
  /// coincide, which keeps the reduced node graph -- and therefore every
  /// counter -- deterministic and shared between the sequential and
  /// parallel explorers.
  ConfigKey canonical_node_key(Engine& e, std::uint64_t& sleep) const;

  /// As canonical_node_key, writing the node key into `out` (reused
  /// storage, cleared first) and reporting through `applied` which group
  /// renaming was applied to `e` (an index for undo_renaming, or -1 when
  /// the engine was left untouched).  This is the undo-based explorers'
  /// entry point: they must invert the canonicalization before reverting
  /// the step that produced `e`.
  void canonical_node_key_into(Engine& e, std::uint64_t& sleep, ConfigKey& out,
                               int* applied) const;

  /// Re-applies renaming `idx` (as reported by canonical_node_key_into) to
  /// an engine -- the parallel explorer's path replay uses this to
  /// re-canonicalize without recomputing any keys.
  void apply_renaming_index(Engine& e, int idx) const;

  /// Applies the inverse of renaming `idx`, exactly undoing
  /// apply_renaming_index / canonical_node_key_into on the same engine.
  void undo_renaming(Engine& e, int idx) const;

  /// Number of non-identity renamings in play (0 under kSleep or for
  /// asymmetric systems); diagnostics.
  std::size_t symmetry_order() const { return renamings_.size(); }

 private:
  const System* sys_;
  bool sleep_active_ = false;
  IndependenceTable table_;
  std::vector<ProcessRenaming> renamings_;
  /// inverses_[k] undoes renamings_[k] (same group, swapped maps).
  std::vector<ProcessRenaming> inverses_;
};

}  // namespace wfregs
