// Exhaustive schedule exploration: the proof engine of this library.
//
// The explorer enumerates every interleaving of process steps and every
// nondeterministic object transition from a root configuration, memoizing on
// configuration keys.  It realizes, executably, the execution trees of
// Section 4.2 of the paper:
//
//   * nodes are configurations (object states + process program states);
//   * an edge is one low-level (base-object) access by one process;
//   * wait-freedom corresponds to all trees being finite, which the explorer
//     decides by cycle detection (a configuration revisited along the
//     current path yields an infinite execution, contradicting wait-freedom
//     exactly as in the paper's Koenig's-lemma argument);
//   * the depth D of the tree (longest root-to-leaf path) and per-object
//     access bounds are computed by longest-path dynamic programming over
//     the (memoized) configuration DAG.
//
// A user-supplied TerminalCheck validates each terminal configuration (all
// processes finished): e.g. consensus agreement/validity, or history
// linearizability.
//
// MEMOIZATION CONTRACT: the explorer identifies configurations by
// ConfigKey, which covers object states and process program states but NOT
// the history (a path property).  A TerminalCheck that inspects the history
// is therefore only exhaustive if every datum it depends on is reflected in
// process state -- drivers must fold operation responses into their local
// registers / return values (verify_linearizable and verify_regular do
// exactly this).  Checks that read only process results (e.g. consensus
// agreement) are always safe: results are part of the configuration.
//
// PARALLEL EXPLORATION (explore_parallel) extends the contract:
//
//   * Workers share one lock-free memo table and a set of work-stealing
//     deques (see src/runtime/explorer_parallel.cpp).  A configuration is
//     expanded by whichever worker first publishes it, so its terminal
//     check runs on that worker -- the TerminalCheck must be safe to invoke
//     concurrently (all checks in this library capture only const data).
//   * DETERMINISM GUARANTEE: whenever discovery runs to completion (limits
//     not hit, and no early stop -- i.e. no violation exists or
//     stop_at_violation is false), the outcome is BIT-IDENTICAL to
//     explore(): a single-threaded post-pass replays the sequential DFS
//     over the discovered DAG in its canonical edge order, so configs,
//     edges, terminals, depth, access bounds, the wait-freedom verdict, the
//     cycle-abort point and the identity of the first-reported violation
//     all match the sequential explorer exactly, at any thread count.
//   * Under an early abort (stop_at_violation with a violating terminal, or
//     a limit hit), flags match the sequential explorer (violation present
//     / complete == false) but the counters are nondeterministic lower
//     bounds, and the reported violation may be a different-but-valid first
//     violation: whichever worker's subtree surfaced one first.  Violation
//     *presence* is still deterministic for contract-compliant checks,
//     because failure is then a function of the configuration alone.
//   * Because a terminal is checked on the first path that reaches it,
//     history-derived violation MESSAGE TEXT (not presence) may describe a
//     different path than the sequential explorer's.
//
// REDUCTION (ExploreOptions::reduction) prunes the exploration without
// changing any verdict (see reduction.hpp for the machinery and the
// soundness argument):
//
//   * kNone explores the plain configuration graph: no sleep mask, no
//     renaming.
//   * kSleep applies sleep-set partial-order reduction: nodes become
//     (configuration, sleep mask) pairs, memoized and cycle-checked
//     exactly; wait-freedom, violation presence, depth and access bounds
//     are preserved, while configs / edges / terminals count the REDUCED
//     node graph (that shrinkage is the point -- the counters of a reduced
//     run are comparable only to other runs at the same reduction).
//   * kSleepSymmetry additionally canonicalizes every node to the minimal
//     representative of its process-symmetry orbit.  The engine a
//     TerminalCheck sees is then a renamed -- but real and reachable --
//     execution, so checks must not name specific processes (all checks in
//     this library are renaming-invariant).
//   * Reduced runs are deterministic at any thread count: sequential and
//     parallel reduced explorations build the same node graph and report
//     identical stats (the parallel post-pass replays it canonically).
//   * Under an early abort (stop_at_violation, limit hits) reduced counters
//     are, as in the unreduced parallel case, valid lower bounds of the
//     completed reduced run's counters.
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "wfregs/concurrent/contention.hpp"
#include "wfregs/runtime/engine.hpp"
#include "wfregs/runtime/reduction.hpp"
#include "wfregs/storage/options.hpp"

namespace wfregs {

struct ExploreLimits {
  /// Bail out after this many distinct configurations.
  std::size_t max_configs = 2000000;
  /// Bail out on any path longer than this (guards against implementations
  /// whose local state diverges without ever repeating a configuration).
  int max_depth = 20000;
  /// When true, compute per-base-object access bounds (costs memory
  /// proportional to configs * objects).
  bool track_access_bounds = false;
  /// When true, stop at the first terminal-check violation.
  bool stop_at_violation = true;
  /// Cooperative cancellation: when non-null, the explorers poll this flag
  /// at every node entry and abort (complete = false, like a limit hit) once
  /// it reads true.  The pointee must outlive the exploration.  Deadline-
  /// and shutdown-driven cancellation in the service layer sets this from
  /// another thread; a relaxed load per node keeps the null case free.
  const std::atomic<bool>* cancel = nullptr;
};

struct ExploreStats {
  std::size_t configs = 0;  ///< distinct configurations visited
  std::size_t edges = 0;    ///< steps examined (including re-derived ones)
  std::size_t terminals = 0;
  /// Distinct keys held by the memo table when the exploration returned --
  /// the intern pool's occupancy.  Always equals configs (every counted
  /// configuration is interned exactly once); reported separately so the
  /// bench layer can cross-check the arena bookkeeping.
  std::size_t interned_configs = 0;
  /// Longest root-to-leaf path: the Section 4.2 depth d of this tree.
  int depth = 0;
  /// max_accesses[g]: maximum, over all executions, of the number of
  /// accesses to base object g (empty unless track_access_bounds).
  std::vector<std::size_t> max_accesses;
  /// max_accesses_by_inv[g][i]: maximum, over all executions, of the number
  /// of invocations of i on base object g (empty unless
  /// track_access_bounds; empty inner vectors for non-base ids).  Note that
  /// per-invocation maxima are attained on possibly different executions,
  /// so their sum may exceed max_accesses[g].
  std::vector<std::vector<std::size_t>> max_accesses_by_inv;
};

/// How hard the lock-free primitives had to fight during a parallel run
/// (all zero for sequential explorations): failed interner CAS
/// reservations, deque steal attempts / successful steals, and invalidated
/// snapshot collects.  Purely observational -- never part of any
/// determinism contract (contention IS the nondeterminism being measured).
using ContentionStats = concurrent::ContentionCounters;

struct ExploreOutcome {
  /// False when a configuration cycle was found (some execution runs
  /// forever: the implementation is not wait-free).
  bool wait_free = true;
  /// False when limits were hit; all other fields are then lower bounds.
  bool complete = true;
  /// First terminal-check failure, if any.
  std::optional<std::string> violation;
  ExploreStats stats;
  ContentionStats contention;
  /// Out-of-core observability (never part of any bit-identity contract --
  /// a resumed run matches an uninterrupted one on every field above):
  /// `resumed` reports that this run restored state from a checkpoint, and
  /// `checkpointed` that an incomplete run left a resumable checkpoint on
  /// disk (the scheduler marks such verdicts with Provenance::kPartial).
  bool resumed = false;
  bool checkpointed = false;
};

/// Returns an error description when the terminal configuration is invalid.
using TerminalCheck =
    std::function<std::optional<std::string>(const Engine&)>;

/// Exploration limits plus the reduction mode (see REDUCTION above).
struct ExploreOptions {
  ExploreLimits limits;
  Reduction reduction = Reduction::kNone;
  /// Optional refined independence table (e.g. from
  /// analysis::refined_independence); must cover every base object of the
  /// explored system and outlive the exploration.  nullptr = the explorer
  /// builds the TypeSpec baseline itself.  Ignored under kNone.
  const IndependenceTable* independence = nullptr;
  /// Out-of-core storage: memory budget + spill directory for the interned
  /// configuration store, and crash-safe checkpoint/resume of the
  /// exploration frontier (see wfregs/storage/options.hpp).  When
  /// storage.enabled(), the sequential explorer keeps its keys in a
  /// spillable delta-coded store instead of RAM, with identical outcomes in
  /// every mode; parallel entry points then run it too, since their
  /// contract is already "identical to sequential".
  storage::StorageOptions storage{};
};

/// Explores all executions from `root`.  The root engine is copied, never
/// mutated.
ExploreOutcome explore(const Engine& root, const ExploreLimits& limits = {},
                       const TerminalCheck& check = {});

/// As above, with a reduction mode and storage settings.
/// options.reduction == kNone is bit-identical to
/// explore(root, options.limits, check).
ExploreOutcome explore(const Engine& root, const ExploreOptions& options,
                       const TerminalCheck& check = {});

/// Explores all executions from `root` on `n_threads` workers over the
/// lock-free memo table and work-stealing frontier (see PARALLEL
/// EXPLORATION above for the determinism guarantee).  `n_threads` == 0
/// picks std::thread::hardware_concurrency(); 1 runs explore() itself.
/// `check` must be safe to invoke concurrently.
ExploreOutcome explore_parallel(const Engine& root,
                                const TerminalCheck& check = {},
                                const ExploreLimits& limits = {},
                                int n_threads = 0);

/// As above, with a reduction mode: sleep-set pruning is applied as a
/// claim-time filter on the work-stealing frontier, and node identities are
/// canonicalized before claiming, so the reduced node graph -- and, when
/// discovery completes, every counter -- matches the sequential reduced
/// explorer at any thread count.
ExploreOutcome explore_parallel(const Engine& root, const TerminalCheck& check,
                                const ExploreOptions& options,
                                int n_threads = 0);

/// A static decision about a consensus job: produced by a
/// VerifyOptions::static_consensus hook when theory already settles the
/// question, letting check_consensus skip exploration entirely.  The hook
/// vouches for every field: `solves` and `wait_free` must hold over ALL
/// schedules (the standard hook, analysis::static_consensus_decider(), only
/// ever refutes -- a sound upper bound proves no protocol exists, while no
/// static argument can certify that a particular implementation is correct).
struct StaticConsensusDecision {
  bool solves = false;
  bool wait_free = true;
  /// Human-readable justification (the rules that fired), surfaced as the
  /// verification detail.
  std::string detail;
};

/// Options shared by the end-to-end verifiers (verify_linearizable,
/// verify_regular, check_consensus): exploration limits plus the explorer
/// thread count.
struct VerifyOptions {
  ExploreLimits limits;
  /// Explorer worker threads: 0 = hardware concurrency, 1 = the sequential
  /// explorer (explore()).
  int threads = 0;
  /// Optional fail-fast hook run on the implementation before any
  /// exploration: return an error description to abort the verification
  /// immediately (reported as a failure with that detail), nullopt to
  /// proceed.  analysis::static_precheck() supplies the standard hook
  /// (wfregs-lint's discipline passes); kept as a std::function so the
  /// runtime layer stays independent of the analysis library.
  std::function<std::optional<std::string>(const Implementation&)>
      static_precheck;
  /// Optional static consensus decider, run by check_consensus after the
  /// precheck and before any exploration: return a StaticConsensusDecision
  /// to answer the job without exploring (the result is marked
  /// static_decision = true), nullopt to fall through to exploration.
  /// analysis::static_consensus_decider() supplies the standard hook (the
  /// certified consensus-power classifier); ignored by the linearizability
  /// and regularity verifiers.
  std::function<std::optional<StaticConsensusDecision>(const Implementation&)>
      static_consensus;
  /// Reduction mode for every exploration the verifier runs (see REDUCTION
  /// above); kNone preserves historical behaviour bit for bit.
  Reduction reduction = Reduction::kNone;
  /// Out-of-core storage settings, passed to every exploration the verifier
  /// runs.  Like `threads`, storage is an execution parameter, never job
  /// identity: the service layer does not serialize it into job text.
  /// check_consensus derives a per-root subdirectory of
  /// storage.checkpoint_dir for each input vector it explores.
  storage::StorageOptions storage{};
};

namespace detail {
/// The parallel engine itself, without explore_parallel's threads == 1 ->
/// explore() dispatch: runs the full discovery + canonical-replay
/// machinery at ANY n_threads >= 1 (0 still picks hardware concurrency).
/// Exposed so tests and the contention bench can hold the machinery to
/// explore() at one thread; call explore_parallel instead.
ExploreOutcome explore_parallel_lockfree(const Engine& root,
                                         const TerminalCheck& check,
                                         const ExploreOptions& options,
                                         int n_threads = 0);
}  // namespace detail

}  // namespace wfregs
