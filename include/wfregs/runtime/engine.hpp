// The execution engine: runs the processes of a System one shared-memory
// step at a time.
//
// Granularity matches the paper's model (Section 4.2): one engine step =
// one access to one *base* object.  All local computation -- including
// calling into and returning from the programs of implemented objects -- is
// performed eagerly between steps, leaving every process either finished or
// "poised" at its next base access.  Nondeterminism has exactly two sources,
// both external to programs: which process steps next (the scheduler /
// explorer) and which transition a nondeterministic base object takes (the
// chooser / explorer).
//
// Engines are value types: copy one to snapshot an execution.  The
// configuration key (config_key) captures exactly the information the
// paper's Section 4.2 trees put in a node: the states of the implementing
// objects and the processes' program counters, stacks and registers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "wfregs/runtime/history.hpp"
#include "wfregs/runtime/system.hpp"

namespace wfregs {

/// Hashable, equality-comparable snapshot of an engine configuration.
/// Excludes the history and access counters (path data, not state).
///
/// The words hold the configuration's fields (object states, persistent
/// blocks, then each process's status, pending access and frames) in a
/// prefix-free byte code (KeyPacker, config_intern.hpp): a field below 0xF7
/// is the single byte field + 1, a larger one is the tag 0xF7 + n and its n
/// significant bytes, most significant first, and byte 0 ends the code.
/// Eight bytes fill a word, most significant first; the last word is
/// zero-padded.  So:
///   * distinct field sequences never share words, padding included (the
///     terminator says where the code ends);
///   * comparing keys as word vectors (unsigned, lexicographic) orders them
///     exactly as their field sequences.
/// Most fields are small, so a key takes about one word per eight fields.
struct ConfigKey {
  std::vector<std::uint64_t> words;
  friend bool operator==(const ConfigKey&, const ConfigKey&) = default;
};

struct ConfigKeyHash {
  std::size_t operator()(const ConfigKey& k) const;
};

class Engine {
 public:
  /// Builds the initial configuration and prepares every process up to its
  /// first base access (or completion).
  explicit Engine(std::shared_ptr<const System> sys);

  const System& system() const { return *sys_; }

  // ---- process status ------------------------------------------------------

  bool done(ProcId p) const;
  bool all_done() const;
  /// Final value returned by p's top-level program (nullopt while running or
  /// when p had no program).
  std::optional<Val> result(ProcId p) const;
  std::vector<ProcId> runnable() const;

  // ---- stepping -------------------------------------------------------------

  /// Width of the nondeterministic choice at p's pending base access (the
  /// size of the delta set); >= 1.  Throws when p is done.
  int pending_choices(ProcId p) const;

  /// The base object p's pending access targets.  Throws when p is done.
  ObjectId pending_object(ProcId p) const;

  struct CommitInfo {
    ObjectId object = -1;
    PortId port = -1;
    InvId inv = 0;
    RespId resp = 0;
  };

  /// Performs p's pending base access, taking transition `choice` of the
  /// delta set, then advances p to its next base access or completion.
  CommitInfo commit(ProcId p, int choice = 0);

  /// Journal of one committed step, filled by apply() and consumed by
  /// revert().  Opaque outside the engine; default-construct one and reuse
  /// it across apply/revert pairs (its buffers keep their capacity).
  struct UndoRecord;

  /// As commit(), additionally journaling everything the step mutates --
  /// the stepped process, the object state, the clocks, persistent-variable
  /// write-backs and history growth -- so revert(undo) restores this engine
  /// EXACTLY (bit-for-bit, including the history) to its pre-apply state.
  /// This is what lets the explorers keep one engine per worker instead of
  /// copying the engine once per branch.
  CommitInfo apply(ProcId p, int choice, UndoRecord& undo);

  /// Inverse of the matching apply().  Records must be reverted in LIFO
  /// order relative to their applies; `undo` is left reusable.
  void revert(UndoRecord& undo);

  // ---- observation ------------------------------------------------------------

  /// Global commit counter (the history's clock).
  std::size_t time() const { return time_; }
  const History& history() const { return history_; }
  /// Current state of a base object.
  StateId object_state(ObjectId g) const;
  /// Number of accesses committed on base object g (optionally per
  /// invocation).
  std::size_t access_count(ObjectId g) const;
  std::size_t access_count(ObjectId g, InvId i) const;
  /// Depth of p's frame stack (0 when done); for diagnostics.
  int stack_depth(ProcId p) const;

  // ---- configuration identity ---------------------------------------------------

  ConfigKey config_key() const;

  /// As config_key(), writing into `key` (cleared first) so the explorers
  /// can reuse one buffer across millions of nodes.
  void config_key_into(ConfigKey& key) const;

 private:
  struct Frame {
    /// Owned by sys_, which outlives the engine: a raw pointer keeps frame
    /// copies (apply() journals the stepped process) free of refcount
    /// traffic on programs every worker shares.
    const ProgramCode* code = nullptr;
    std::uint32_t code_id = 0;  ///< dense program id (see program_ids_)
    Locals locals;
    std::vector<Handle> env;
    int result_reg_in_parent = -1;
    int op_id = -1;  ///< history op owned by this frame; -1 for top level
    /// When >= 0, registers [0, persist_count) are that virtual object's
    /// per-port persistent variables, written back on return.
    ObjectId persist_gid = -1;
    PortId persist_port = -1;
    int persist_count = 0;
  };
  struct PendingAccess {
    Handle handle;
    InvId inv = 0;
    int result_reg = 0;
  };
  struct Proc {
    std::vector<Frame> stack;
    std::optional<PendingAccess> pending;
    std::optional<Val> result;
    bool finished = false;
  };

  void prepare(ProcId p, UndoRecord* undo = nullptr);
  CommitInfo commit_impl(ProcId p, int choice, UndoRecord* undo);
  std::vector<Handle> inner_env(const System::VirtualObject& v,
                                PortId port) const;
  void check_proc(ProcId p) const;

  std::shared_ptr<const System> sys_;
  /// Dense, construction-order-stable id for every ProgramCode reachable
  /// from sys_ (toplevels in process order, then implementation programs in
  /// (object, invocation, port) order; a program shared by several slots
  /// keeps its first id).  config_key() emits these ids instead of raw
  /// pointers, so keys -- and the checkpoint fingerprints built from them
  /// -- are identical across processes and across separate constructions of
  /// an equivalent System.  program_ids_[gid][inv * ports + port] is the id
  /// of implemented object gid's program for (inv, port); frames carry
  /// their id, so a key costs no lookup.  Shared so that the many engine
  /// copies the explorer makes don't each duplicate the table.
  std::shared_ptr<const std::vector<std::vector<std::uint32_t>>> program_ids_;
  /// compiled_[gid]: the hot-path transition table of base object gid
  /// (nullptr for virtual slots).  Borrowed from sys_'s BaseObjects, which
  /// the engine keeps alive through sys_.
  std::vector<const CompiledType*> compiled_;
  std::vector<StateId> object_state_;  // indexed by gid; 0 for virtual slots
  /// persistent_[gid][port * P + k]: persistent variable k of port `port`
  /// on implemented object gid (empty for objects without persistent state).
  std::vector<std::vector<Val>> persistent_;
  std::vector<Proc> procs_;
  std::size_t time_ = 0;
  /// Logical clock, strictly increasing across commits *and* history events,
  /// so that operation precedence (response before invocation) is never
  /// ambiguous in the linearizability checker.
  std::size_t clock_ = 0;
  History history_;
  std::vector<std::size_t> access_count_;           // per gid
  std::vector<std::vector<std::size_t>> access_by_inv_;  // per gid, per inv
};

/// The apply() journal.  One record covers exactly one committed step: the
/// pre-step snapshot of the stepped process (everything prepare() may touch
/// lives in its Proc), the accessed object's state, the clocks, the old
/// values of persistent blocks written back by returning frames, and the
/// history bookkeeping (ops begun during the step are truncated away; ops
/// ENDED during the step that began earlier are reopened).
struct Engine::UndoRecord {
 private:
  friend class Engine;
  struct PersistUndo {
    ObjectId gid = -1;
    std::size_t offset = 0;
    std::vector<Val> old;
  };
  ProcId p = -1;
  ObjectId gid = -1;
  InvId inv = 0;
  StateId saved_state = 0;
  std::size_t saved_time = 0;
  std::size_t saved_clock = 0;
  std::size_t history_size = 0;
  Proc saved_proc;
  std::vector<PersistUndo> persist;
  std::vector<int> reopened_ops;
};

}  // namespace wfregs
