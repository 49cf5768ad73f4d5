// The sequential explorer: one explicit-stack DFS behind explore() in every
// reduction mode and under every storage setting.
//
// A single undo-journaled engine walks the configuration tree.  Each step
// is applied with Engine::apply() on the way down and rolled back with
// Engine::revert() on the way up; the recursion is a Frame stack, so the
// traversal state is a first-class value that can be serialized into a
// FrontierCheckpoint and rebuilt on resume.  Each frame holds its node's
// enumeration position (steps[step_idx], nondeterministic choice), the
// undo journal of its in-flight child step, and the partial longest-path
// DP accumulated so far.  Popped frames stay allocated and are reused, so
// their step and undo buffers cost nothing on the next push.
//
// POLICIES.  Two parameters come from settings that already exist:
//
//   * the key store is an in-RAM ConfigInterner when !storage.enabled(),
//     else a storage::OocInterner whose parent-delta coded words live in a
//     SpillArena obeying storage.memory_budget_bytes;
//   * checkpointing runs only when storage.checkpoint_dir is set.
//
// kNone is the degenerate reduction: no ReductionContext, so the sleep mask
// stays empty and no renaming is ever applied.
//
// ORDER CONTRACT.  Memo lookup precedes the cycle abort, which precedes the
// limit/cancel check, which precedes the intern + configs increment;
// children are enumerated in ascending process order with nondeterministic
// choices inner; edges are counted before each step; under reduction the
// engine is canonicalized in place at node entry and un-renamed on every
// exit path -- memo hits and limit aborts included -- before control
// returns to the parent, whose revert() assumes the engine is exactly as
// its apply() left it.  The abort outcomes of this order are pinned as
// golden values in tests/compiled_core.cpp, and complete runs are held to
// an independent naive oracle there (tests/explore_oracle.hpp).
//
// CHECKPOINT POINTS.  A periodic snapshot is written right after a frame
// push (the new top frame pending at its first step); an interrupt snapshot
// is written when the limit/cancel check fires with a non-empty stack --
// the parent's in-flight step is reverted and recorded as the pending retry
// position (and its already-counted edge subtracted), so a resumed run
// re-applies and re-counts it.  Both snapshot kinds therefore describe the
// same shape: all frames below the top hold applied (in-flight) steps that
// resume replays onto a fresh engine; the top frame holds the next
// enumeration position.  A definitive end -- completion, a cycle, or a
// stop_at_violation hit -- writes a finished snapshot embedding the whole
// outcome, which re-runs and resubmissions short-circuit on.
#include "wfregs/runtime/explorer.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "wfregs/runtime/config_intern.hpp"
#include "wfregs/storage/checkpoint.hpp"
#include "wfregs/storage/ooc_interner.hpp"
#include "wfregs/storage/spill_arena.hpp"

namespace wfregs {

namespace {

using storage::DeltaCodec;
using storage::FrameSnap;
using storage::FrontierCheckpoint;
using storage::FrontierSnapshot;
using storage::OocInterner;
using storage::SpillArena;

/// DP value flowing up the DFS: the longest path below a node, plus the
/// per-object and per-(object, invocation) access maxima when tracking.
struct Info {
  int depth_from = 0;
  std::vector<std::size_t> acc_from;
  std::vector<std::size_t> inv_from;
};

struct Frame {
  std::uint32_t id = 0;
  Info info;
  /// Enabled steps in ascending process order (full enumeration including
  /// slept ones; ReductionContext::child_sleep indexes into it).
  std::vector<ReductionContext::Step> steps;
  std::size_t step_idx = 0;
  int choice = 0;
  std::uint64_t sleep = 0;       ///< post-canonicalization sleep mask
  int applied_renaming = -1;     ///< entry canonicalization, undone at pop
  Engine::UndoRecord undo;       ///< journal of the in-flight child step
  Engine::CommitInfo commit;     ///< commit info of the in-flight step
  bool in_flight = false;
  /// This node's canonical key words; kept only when the key store spills
  /// (the delta codec encodes each child against its parent's words).
  std::vector<std::uint64_t> key;
  int depth = 0;                 ///< == stack index
};

/// The memo-table policy: dense u32 ids in insertion order from either an
/// in-RAM ConfigInterner or, when storage is enabled, an OocInterner over a
/// budgeted SpillArena.
class KeyStore {
 public:
  static constexpr std::uint32_t kNotFound = ConfigInterner::kNotFound;
  static_assert(kNotFound == OocInterner::kNotFound);

  explicit KeyStore(const storage::StorageOptions& options)
      : options_(options) {
    reset();
  }

  /// Drops every key.
  void reset() {
    if (!options_.enabled()) {
      ram_ = ConfigInterner{};
      return;
    }
    SpillArena::Options arena_options;
    arena_options.budget_bytes = options_.memory_budget_bytes;
    arena_options.segment_bytes = options_.arena_segment_bytes;
    arena_options.dir = options_.spill_dir;
    ooc_.reset();
    arena_ = std::make_unique<SpillArena>(arena_options);
    ooc_ = std::make_unique<OocInterner>(arena_.get(),
                                         options_.keyframe_interval);
  }

  bool spills() const { return ooc_ != nullptr; }
  const OocInterner& ooc() const { return *ooc_; }

  std::uint32_t find(std::span<const std::uint64_t> words,
                     std::uint64_t hash) const {
    return ooc_ ? ooc_->find(words, hash) : ram_.find(words, hash);
  }

  /// `parent` / `parent_words` feed the delta codec; ignored in RAM.
  std::uint32_t intern(std::span<const std::uint64_t> words,
                       std::uint64_t hash, std::uint32_t parent,
                       std::span<const std::uint64_t> parent_words) {
    return ooc_ ? ooc_->intern(words, hash, parent, parent_words)
                : ram_.intern(words, hash);
  }

  std::size_t size() const { return ooc_ ? ooc_->size() : ram_.size(); }

 private:
  const storage::StorageOptions& options_;
  ConfigInterner ram_;
  std::unique_ptr<SpillArena> arena_;
  std::unique_ptr<OocInterner> ooc_;
};

class SequentialExplorer {
 public:
  SequentialExplorer(const ExploreOptions& options, const TerminalCheck& check)
      : options_(options),
        limits_(options.limits),
        check_(check),
        memo_(options.storage) {}

  ExploreOutcome run(const Engine& root) {
    const System& sys = root.system();
    num_objects_ = sys.num_objects();
    if (limits_.track_access_bounds) {
      inv_offset_.resize(static_cast<std::size_t>(num_objects_) + 1, 0);
      for (ObjectId g = 0; g < num_objects_; ++g) {
        const int invs =
            sys.is_base(g) ? sys.base(g).spec->num_invocations() : 0;
        inv_offset_[static_cast<std::size_t>(g) + 1] =
            inv_offset_[static_cast<std::size_t>(g)] +
            static_cast<std::size_t>(invs);
      }
      acc_len_ = static_cast<std::size_t>(num_objects_);
      inv_len_ = inv_offset_.back();
    }
    if (options_.reduction != Reduction::kNone) {
      ctx_ = std::make_unique<ReductionContext>(sys, options_.reduction,
                                                options_.independence);
    }

    engine_.emplace(root);
    if (!options_.storage.checkpoint_dir.empty()) {
      compute_fingerprint(root);
      if (const auto final_outcome = open_checkpoint(root)) {
        return *final_outcome;
      }
    }
    if (live_ == 0 && !outcome_.resumed) {
      enter(0, 0);
    }
    while (live_ != 0) {
      Frame& f = top();
      if (f.in_flight) {
        engine_->revert(f.undo);
        f.in_flight = false;
        if (!aborted_) {
          combine(f, leaf_);
          ++f.choice;
          if (f.choice >= f.steps[f.step_idx].width) {
            f.choice = 0;
            ++f.step_idx;
          }
        }
      }
      if (aborted_) {
        pop();
        continue;
      }
      if (ctx_) {
        while (f.step_idx < f.steps.size() &&
               (f.sleep & (std::uint64_t{1} << f.steps[f.step_idx].p))) {
          ++f.step_idx;
        }
      }
      if (f.step_idx >= f.steps.size()) {
        pop();
        continue;
      }
      const ReductionContext::Step& st = f.steps[f.step_idx];
      const std::uint64_t child_sleep =
          ctx_ ? ctx_->child_sleep(f.steps, f.step_idx, f.sleep) : 0;
      ++outcome_.stats.edges;
      f.commit = engine_->apply(st.p, f.choice, f.undo);
      f.in_flight = true;
      enter(child_sleep, f.depth + 1);
    }

    // Stats are only meaningful when the exploration ran to completion
    // (no cycle, no limit hit, no early stop at a violation).
    if (!aborted_) {
      outcome_.stats.depth = leaf_.depth_from;
      if (limits_.track_access_bounds) {
        outcome_.stats.max_accesses = leaf_.acc_from;
        outcome_.stats.max_accesses_by_inv.resize(
            static_cast<std::size_t>(num_objects_));
        for (ObjectId g = 0; g < num_objects_; ++g) {
          auto& per =
              outcome_.stats.max_accesses_by_inv[static_cast<std::size_t>(g)];
          per.assign(
              leaf_.inv_from.begin() +
                  static_cast<std::ptrdiff_t>(
                      inv_offset_[static_cast<std::size_t>(g)]),
              leaf_.inv_from.begin() +
                  static_cast<std::ptrdiff_t>(
                      inv_offset_[static_cast<std::size_t>(g) + 1]));
        }
      }
    }
    outcome_.stats.interned_configs = memo_.size();

    if (ckpt_) {
      if (!interrupted_) {
        // Definitive end (clean completion, cycle, or stop_at_violation):
        // the finished record lets any re-run short-circuit.
        ckpt_->write_final(snapshot_of_outcome());
      } else if (wrote_interrupt_) {
        outcome_.checkpointed = true;
      }
    }
    return outcome_;
  }

 private:
  // ---- frame stack ---------------------------------------------------------

  Frame& top() { return stack_[live_ - 1]; }

  /// Pushes a frame, reusing a previously popped one's buffers.
  Frame& push_frame() {
    if (live_ == stack_.size()) stack_.emplace_back();
    Frame& f = stack_[live_++];
    f.step_idx = 0;
    f.choice = 0;
    f.in_flight = false;
    return f;
  }

  // ---- DP plumbing ---------------------------------------------------------

  Info leaf() const {
    Info info;
    if (limits_.track_access_bounds) {
      info.acc_from.assign(acc_len_, 0);
      info.inv_from.assign(inv_len_, 0);
    }
    return info;
  }

  Info node_info(std::uint32_t id) const {
    Info info;
    info.depth_from = node_depth_[id];
    if (limits_.track_access_bounds) {
      info.acc_from.assign(node_acc_.begin() + id * acc_len_,
                           node_acc_.begin() + (id + 1) * acc_len_);
      info.inv_from.assign(node_inv_.begin() + id * inv_len_,
                           node_inv_.begin() + (id + 1) * inv_len_);
    }
    return info;
  }

  void push_node_slot() {
    node_depth_.push_back(-1);  // on path until the node's DP completes
    if (limits_.track_access_bounds) {
      node_acc_.resize(node_acc_.size() + acc_len_, 0);
      node_inv_.resize(node_inv_.size() + inv_len_, 0);
    }
  }

  void set_node(std::uint32_t id, const Info& info) {
    node_depth_[id] = info.depth_from;
    if (limits_.track_access_bounds) {
      std::copy(info.acc_from.begin(), info.acc_from.end(),
                node_acc_.begin() + id * acc_len_);
      std::copy(info.inv_from.begin(), info.inv_from.end(),
                node_inv_.begin() + id * inv_len_);
    }
  }

  /// Folds a finished child into its parent frame's partial DP: one more
  /// step on the path, one more access to the step's object and
  /// invocation.
  void combine(Frame& f, const Info& child) {
    f.info.depth_from = std::max(f.info.depth_from, child.depth_from + 1);
    if (!limits_.track_access_bounds) return;
    const ObjectId object = f.commit.object;
    for (int g = 0; g < num_objects_; ++g) {
      std::size_t cand = child.acc_from[static_cast<std::size_t>(g)];
      if (g == object) ++cand;
      f.info.acc_from[static_cast<std::size_t>(g)] =
          std::max(f.info.acc_from[static_cast<std::size_t>(g)], cand);
    }
    const std::size_t hit = inv_offset_[static_cast<std::size_t>(object)] +
                            static_cast<std::size_t>(f.commit.inv);
    for (std::size_t k = 0; k < f.info.inv_from.size(); ++k) {
      std::size_t cand = child.inv_from[k];
      if (k == hit) ++cand;
      f.info.inv_from[k] = std::max(f.info.inv_from[k], cand);
    }
  }

  // ---- traversal -----------------------------------------------------------

  /// Advances into the configuration the engine currently holds (the root,
  /// or the child just applied by the top frame).  On a memo hit / cycle /
  /// limit the node resolves immediately into leaf_; otherwise a frame is
  /// pushed.
  void enter(std::uint64_t sleep, int depth) {
    if (aborted_) {
      leaf_ = leaf();
      return;
    }
    int applied = -1;
    if (ctx_) {
      ctx_->canonical_node_key_into(*engine_, sleep, scratch_, &applied);
    } else {
      engine_->config_key_into(scratch_);
    }
    const std::uint64_t hash = config_hash_words(scratch_.words);
    if (const std::uint32_t hit = memo_.find(scratch_.words, hash);
        hit != KeyStore::kNotFound) {
      if (node_depth_[hit] < 0) {
        // A configuration repeats along the current path: the executions of
        // this implementation form an infinite tree, so by the Section 4.2
        // argument (Koenig's lemma) some process runs forever without
        // completing -- the implementation is not wait-free.
        outcome_.wait_free = false;
        aborted_ = true;
        leaf_ = leaf();
      } else {
        leaf_ = node_info(hit);
      }
      if (applied >= 0) ctx_->undo_renaming(*engine_, applied);
      return;
    }
    if (depth > limits_.max_depth ||
        outcome_.stats.configs >= limits_.max_configs ||
        (limits_.cancel && limits_.cancel->load(std::memory_order_relaxed))) {
      if (applied >= 0) ctx_->undo_renaming(*engine_, applied);
      interrupt_checkpoint();
      outcome_.complete = false;
      aborted_ = true;
      interrupted_ = true;
      leaf_ = leaf();
      return;
    }
    const bool have_parent = live_ != 0;
    const std::uint32_t id = memo_.intern(
        scratch_.words, hash,
        have_parent ? top().id : DeltaCodec::kNoParent,
        have_parent ? std::span<const std::uint64_t>(top().key)
                    : std::span<const std::uint64_t>{});
    push_node_slot();
    ++outcome_.stats.configs;

    Info info = leaf();
    if (engine_->all_done()) {
      ++outcome_.stats.terminals;
      if (check_) {
        if (auto violation = check_(*engine_)) {
          if (!outcome_.violation) outcome_.violation = std::move(violation);
          if (limits_.stop_at_violation) aborted_ = true;
        }
      }
      set_node(id, info);
      leaf_ = std::move(info);
      if (applied >= 0) ctx_->undo_renaming(*engine_, applied);
      return;
    }
    Frame& f = push_frame();
    f.id = id;
    f.info = std::move(info);
    ReductionContext::steps_into(*engine_, f.steps);
    f.sleep = sleep;
    f.applied_renaming = applied;
    f.depth = depth;
    if (memo_.spills()) {
      f.key.assign(scratch_.words.begin(), scratch_.words.end());
    }
    if (ckpt_ &&
        outcome_.stats.configs - last_checkpoint_configs_ >=
            options_.storage.checkpoint_every_configs) {
      write_checkpoint(outcome_.stats.edges);
    }
  }

  /// Retires the top frame: publishes its DP row, hands its Info to the
  /// parent through leaf_, and inverts its entry canonicalization, aborted
  /// or not.
  void pop() {
    Frame& f = top();
    set_node(f.id, f.info);
    leaf_ = std::move(f.info);
    if (f.applied_renaming >= 0) {
      ctx_->undo_renaming(*engine_, f.applied_renaming);
    }
    --live_;
  }

  // ---- fingerprint / checkpoint --------------------------------------------

  void compute_fingerprint(const Engine& root) {
    ConfigKey rk;
    root.config_key_into(rk);
    std::vector<std::uint64_t> words;
    words.reserve(rk.words.size() + 3);
    words.push_back(0x5746524547465031ull);  // salt
    words.push_back(static_cast<std::uint64_t>(options_.reduction));
    words.push_back((limits_.track_access_bounds ? 1u : 0u) |
                    (static_cast<std::uint64_t>(
                         static_cast<std::uint32_t>(limits_.max_depth))
                     << 32));
    words.insert(words.end(), rk.words.begin(), rk.words.end());
    fp_lo_ = config_hash_words(words);
    words[0] = 0x5746524547465032ull;
    fp_hi_ = config_hash_words(words);
  }

  /// Opens the checkpoint directory and resumes when possible.  Returns an
  /// outcome only when a finished snapshot short-circuits the whole run.
  std::optional<ExploreOutcome> open_checkpoint(const Engine& root) {
    namespace fs = std::filesystem;
    const std::string& dir = options_.storage.checkpoint_dir;
    const std::string& from = options_.storage.resume_from;
    if (!from.empty() && from != dir && fs::exists(from)) {
      // resume_from seeds the checkpoint dir with another directory's
      // state (e.g. a copy snapshotted before a risky change); the run
      // itself always checkpoints into checkpoint_dir.
      fs::create_directories(dir);
      for (const char* name : {"frontier.log", "arena.log"}) {
        if (fs::exists(fs::path(from) / name)) {
          fs::copy_file(fs::path(from) / name, fs::path(dir) / name,
                        fs::copy_options::overwrite_existing);
        }
      }
    }
    ckpt_ = std::make_unique<FrontierCheckpoint>(dir);
    std::size_t fed = 0;
    const auto key_cb = [&](std::uint32_t id, std::uint32_t parent,
                            std::span<const std::uint64_t> words) {
      const std::uint32_t got =
          memo_.intern(words, config_hash_words(words), parent, {});
      if (got != id) {
        throw std::runtime_error(
            "checkpoint resume: manifest ids are not dense");
      }
      push_node_slot();
      ++fed;
    };
    auto snap = ckpt_->open(fp_hi_, fp_lo_, options_.storage.resume, key_cb);
    if (!snap) {
      if (fed != 0) {
        // A snapshot was abandoned mid-feed (malformed batch): rebuild the
        // store from scratch rather than keep a partial manifest.
        memo_.reset();
        node_depth_.clear();
        node_acc_.clear();
        node_inv_.clear();
      }
      return std::nullopt;
    }
    if (snap->finished) {
      ExploreOutcome out;
      out.wait_free = snap->wait_free;
      out.complete = snap->complete;
      if (snap->has_violation) out.violation = snap->violation;
      out.stats.configs = snap->configs;
      out.stats.edges = snap->edges;
      out.stats.terminals = snap->terminals;
      out.stats.interned_configs = snap->interned;
      out.stats.depth = snap->depth;
      out.stats.max_accesses.assign(snap->max_accesses.begin(),
                                    snap->max_accesses.end());
      out.stats.max_accesses_by_inv.resize(snap->max_accesses_by_inv.size());
      for (std::size_t g = 0; g < snap->max_accesses_by_inv.size(); ++g) {
        out.stats.max_accesses_by_inv[g].assign(
            snap->max_accesses_by_inv[g].begin(),
            snap->max_accesses_by_inv[g].end());
      }
      out.resumed = true;
      return out;
    }
    restore(*snap, root);
    return std::nullopt;
  }

  void restore(const FrontierSnapshot& snap, const Engine& root) {
    if (snap.interned != memo_.size() ||
        snap.node_depth_from.size() != memo_.size()) {
      throw std::runtime_error("checkpoint resume: manifest/snapshot skew");
    }
    for (std::size_t k = 0; k < snap.node_depth_from.size(); ++k) {
      node_depth_[k] = snap.node_depth_from[k];
    }
    if (limits_.track_access_bounds) {
      if (snap.acc_len != acc_len_ || snap.inv_len != inv_len_ ||
          snap.node_acc.size() != node_acc_.size() ||
          snap.node_inv.size() != node_inv_.size()) {
        throw std::runtime_error("checkpoint resume: tracking shape skew");
      }
      std::copy(snap.node_acc.begin(), snap.node_acc.end(),
                node_acc_.begin());
      std::copy(snap.node_inv.begin(), snap.node_inv.end(),
                node_inv_.begin());
    }
    outcome_.stats.configs = snap.configs;
    outcome_.stats.edges = snap.edges;
    outcome_.stats.terminals = snap.terminals;
    if (snap.has_violation) outcome_.violation = snap.violation;
    outcome_.resumed = true;
    last_checkpoint_configs_ = snap.configs;

    // Rebuild the engine and the frame stack by replaying the in-flight
    // steps; canonicalization re-runs deterministically, and every replayed
    // node key is checked against the interned manifest.
    engine_.emplace(root);
    std::vector<std::uint64_t> expect;
    std::uint64_t sleep = 0;
    for (std::size_t k = 0; k < snap.frames.size(); ++k) {
      const FrameSnap& fs = snap.frames[k];
      int applied = -1;
      if (ctx_) {
        ctx_->canonical_node_key_into(*engine_, sleep, scratch_, &applied);
      } else {
        engine_->config_key_into(scratch_);
      }
      memo_.ooc().decode_into(fs.id, expect);
      if (expect != scratch_.words || (ctx_ && sleep != fs.sleep)) {
        throw std::runtime_error("checkpoint resume: replay diverged");
      }
      Frame& f = push_frame();
      f.id = fs.id;
      f.applied_renaming = applied;
      f.sleep = fs.sleep;
      f.depth = static_cast<int>(k);
      f.key = scratch_.words;
      ReductionContext::steps_into(*engine_, f.steps);
      f.step_idx = fs.step_idx;
      f.choice = fs.choice;
      f.info.depth_from = fs.depth_from;
      f.info.acc_from.assign(fs.acc_from.begin(), fs.acc_from.end());
      f.info.inv_from.assign(fs.inv_from.begin(), fs.inv_from.end());
      if (k + 1 < snap.frames.size()) {
        const ReductionContext::Step& st = f.steps[f.step_idx];
        f.commit = engine_->apply(st.p, f.choice, f.undo);
        f.in_flight = true;
        sleep = ctx_ ? ctx_->child_sleep(f.steps, f.step_idx, f.sleep) : 0;
      }
    }
  }

  FrontierSnapshot snapshot_base(std::uint64_t edges) const {
    FrontierSnapshot s;
    s.fp_hi = fp_hi_;
    s.fp_lo = fp_lo_;
    s.wait_free = true;
    s.complete = true;
    if (outcome_.violation) {
      s.has_violation = true;
      s.violation = *outcome_.violation;
    }
    s.configs = outcome_.stats.configs;
    s.edges = edges;
    s.terminals = outcome_.stats.terminals;
    s.interned = static_cast<std::uint32_t>(memo_.size());
    s.node_depth_from = node_depth_;
    s.acc_len = static_cast<std::uint32_t>(acc_len_);
    s.inv_len = static_cast<std::uint32_t>(inv_len_);
    s.node_acc.assign(node_acc_.begin(), node_acc_.end());
    s.node_inv.assign(node_inv_.begin(), node_inv_.end());
    return s;
  }

  void write_checkpoint(std::uint64_t edges) {
    FrontierSnapshot s = snapshot_base(edges);
    s.frames.reserve(live_);
    for (std::size_t k = 0; k < live_; ++k) {
      const Frame& f = stack_[k];
      FrameSnap fs;
      fs.id = f.id;
      fs.step_idx = static_cast<std::uint32_t>(f.step_idx);
      fs.choice = f.choice;
      fs.sleep = f.sleep;
      fs.depth_from = f.info.depth_from;
      fs.acc_from.assign(f.info.acc_from.begin(), f.info.acc_from.end());
      fs.inv_from.assign(f.info.inv_from.begin(), f.info.inv_from.end());
      s.frames.push_back(std::move(fs));
    }
    const OocInterner& keys = memo_.ooc();
    ckpt_->write_snapshot(
        s, [&](std::uint32_t id, std::uint32_t* parent,
               std::vector<std::uint64_t>* out) {
          *parent = keys.parent(id);
          keys.decode_into(id, *out);
        });
    last_checkpoint_configs_ = outcome_.stats.configs;
  }

  /// The limit/cancel branch's resumable snapshot: reverts the parent's
  /// in-flight step, records it as the pending retry position and subtracts
  /// its already-counted edge (resume re-applies and re-counts it).
  void interrupt_checkpoint() {
    if (!ckpt_ || live_ == 0) return;
    Frame& parent = top();
    engine_->revert(parent.undo);
    parent.in_flight = false;
    write_checkpoint(outcome_.stats.edges - 1);
    wrote_interrupt_ = true;
  }

  FrontierSnapshot snapshot_of_outcome() const {
    FrontierSnapshot s;
    s.fp_hi = fp_hi_;
    s.fp_lo = fp_lo_;
    s.finished = true;
    s.wait_free = outcome_.wait_free;
    s.complete = outcome_.complete;
    if (outcome_.violation) {
      s.has_violation = true;
      s.violation = *outcome_.violation;
    }
    s.configs = outcome_.stats.configs;
    s.edges = outcome_.stats.edges;
    s.terminals = outcome_.stats.terminals;
    s.interned = static_cast<std::uint32_t>(outcome_.stats.interned_configs);
    s.depth = outcome_.stats.depth;
    s.max_accesses.assign(outcome_.stats.max_accesses.begin(),
                          outcome_.stats.max_accesses.end());
    s.max_accesses_by_inv.resize(outcome_.stats.max_accesses_by_inv.size());
    for (std::size_t g = 0; g < s.max_accesses_by_inv.size(); ++g) {
      s.max_accesses_by_inv[g].assign(
          outcome_.stats.max_accesses_by_inv[g].begin(),
          outcome_.stats.max_accesses_by_inv[g].end());
    }
    return s;
  }

  const ExploreOptions& options_;
  const ExploreLimits& limits_;
  const TerminalCheck& check_;
  /// Non-null iff options_.reduction != kNone.
  std::unique_ptr<ReductionContext> ctx_;
  int num_objects_ = 0;
  std::vector<std::size_t> inv_offset_;
  std::size_t acc_len_ = 0;
  std::size_t inv_len_ = 0;
  bool aborted_ = false;
  bool interrupted_ = false;
  bool wrote_interrupt_ = false;
  ExploreOutcome outcome_;
  /// The one engine of this exploration; every frame applies a step on the
  /// way down and reverts it on the way up.
  std::optional<Engine> engine_;
  ConfigKey scratch_;
  KeyStore memo_;
  /// Per-id DP rows: depth (-1 = on path) plus flattened access bounds.
  std::vector<std::int32_t> node_depth_;
  std::vector<std::size_t> node_acc_;
  std::vector<std::size_t> node_inv_;
  /// stack_[0, live_) is the current path; frames past live_ are popped
  /// ones kept for their buffers.
  std::vector<Frame> stack_;
  std::size_t live_ = 0;
  Info leaf_;  ///< DP value of the most recently resolved node
  std::unique_ptr<FrontierCheckpoint> ckpt_;
  std::uint64_t fp_hi_ = 0;
  std::uint64_t fp_lo_ = 0;
  std::size_t last_checkpoint_configs_ = 0;
};

}  // namespace

ExploreOutcome explore(const Engine& root, const ExploreLimits& limits,
                       const TerminalCheck& check) {
  return explore(root, ExploreOptions{limits}, check);
}

ExploreOutcome explore(const Engine& root, const ExploreOptions& options,
                       const TerminalCheck& check) {
  SequentialExplorer impl(options, check);
  return impl.run(root);
}

}  // namespace wfregs
