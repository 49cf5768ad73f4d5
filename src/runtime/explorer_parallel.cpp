// The parallel explorer behind explore_parallel for every multi-threaded
// run, and the explore_parallel dispatch.
//
// Three phases, the first parallel and the other two single-threaded:
//
//   1. DISCOVERY.  Workers pop frontier nodes from per-worker Chase-Lev
//      deques (wfregs/concurrent/ws_deque.hpp): the owner pushes and pops
//      at the bottom (LIFO, the DFS-like order that keeps engine
//      repositioning cheap), thieves steal the top (FIFO -- oldest, largest
//      subtrees).  Each worker owns ONE undo-journaled engine; a frontier
//      item carries no engine at all, only a path chain of compact
//      (process, choice, renaming) deltas from the canonical root.  Popping
//      an item repositions the worker's engine by reverting to the longest
//      common prefix with its previous position and replaying the suffix.
//      Expansion applies each outgoing step with Engine::apply(), claims
//      the child in the lock-free interner (wfregs/concurrent/interner.hpp:
//      CAS slot reservation plus two-phase publication; Ref.inserted is
//      true for exactly one claimer per configuration), and reverts.  The
//      claimer owns the child's expansion, so every configuration is
//      expanded exactly once and its edge list is written by one thread
//      (published to the post-passes by thread join).  Items are
//      heap-allocated (the deque's cells are atomic pointers); ownership
//      transfers with a successful pop/steal, and items stranded by an
//      early stop are drained after join.
//   2. CANONICAL REPLAY.  The sequential DFS is replayed over the
//      discovered DAG in its canonical edge order, recomputing configs,
//      edges, terminals, the cycle-abort point and the first violation
//      exactly as explore() finds them.
//   3. LONGEST-PATH DP over the replay's postorder: depth and access
//      bounds.
//
// Per-worker edges/terminals/contention counters flow through the
// wait-free StatsSnapshot aggregator (wfregs/concurrent/snapshot.hpp); the
// post-join collect is quiescent and therefore exact.  The `configs_`
// admission counter is the one deliberate exception: the max_configs limit
// needs a single exactly-once sequence of admission tickets, so it is a
// padded global fetch_add.  Contention (CAS retries, steal traffic,
// snapshot invalidations) is reported in ExploreOutcome::contention --
// observational only, never part of the determinism contract.
//
// Early aborts (stop_at_violation, limit hits, cancellation) short-circuit
// discovery via an atomic stop flag; the post-passes are then skipped and
// the outcome carries partial counters.  Once the stop flag is set a
// worker's engine may be left mid-path; no worker expands another node
// afterwards.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "wfregs/concurrent/cacheline.hpp"
#include "wfregs/concurrent/contention.hpp"
#include "wfregs/concurrent/interner.hpp"
#include "wfregs/concurrent/snapshot.hpp"
#include "wfregs/concurrent/ws_deque.hpp"
#include "wfregs/runtime/config_intern.hpp"
#include "wfregs/runtime/explorer.hpp"

namespace wfregs {

namespace {

using concurrent::ContentionCounters;
using concurrent::kCacheLine;

struct PNode;

struct PEdge {
  PNode* child = nullptr;
  ObjectId object = -1;
  InvId inv = 0;
};

/// A discovered configuration.  During discovery, `edges`, `terminal` and
/// `violation` are written only by the worker that first inserted the node;
/// the post-pass scratch fields are used single-threaded after join.
struct PNode {
  std::vector<PEdge> edges;
  std::optional<std::string> violation;
  bool terminal = false;
  // ---- post-pass scratch ----
  std::uint8_t color = 0;  ///< 0 = unvisited, 1 = on replay stack, 2 = done
  int depth_from = 0;
  std::uint32_t post = 0;  ///< postorder index: the node's DP row
};

/// One compact delta on a root-to-node path: step process `p` with
/// nondeterministic choice `choice`, then (under symmetry) apply group
/// renaming `renaming` to canonicalize the resulting configuration (-1 when
/// canonicalization left the engine untouched).
struct PathStep {
  ProcId p = -1;
  int choice = 0;
  int renaming = -1;
};

/// Immutable reverse-linked path chain from the canonical root; WorkItems
/// and child chains share ancestor suffixes, so the frontier serializes
/// O(depth) small nodes per item instead of whole engines.
struct PathNode {
  PathStep step;
  std::shared_ptr<const PathNode> parent;
};

struct WorkItem {
  PNode* node = nullptr;
  /// Path from the canonical root to this node; nullptr for the root.
  std::shared_ptr<const PathNode> path;
  int depth = 0;
  std::uint64_t sleep = 0;
};

/// One applied level of a worker's current path: the undo journal of the
/// step plus the renaming index applied after it (-1 = none).
struct AppliedLevel {
  Engine::UndoRecord undo;
  int renaming = -1;
};

// StatsSnapshot counter layout (one writer slot per worker).
constexpr std::size_t kCtrEdges = 0;
constexpr std::size_t kCtrTerminals = 1;
constexpr std::size_t kCtrCasRetries = 2;
constexpr std::size_t kCtrStealAttempts = 3;
constexpr std::size_t kCtrSteals = 4;
constexpr std::size_t kNumCounters = 5;

/// Per-worker exploration state: the single engine plus the path it is
/// currently positioned at, and the worker's counters.  `tail` keeps the
/// chain of `cur` alive (the raw pointers in `cur` are ancestors of
/// `tail`), so prefix comparison against the next item's chain never
/// touches freed nodes.
struct Worker {
  Worker(int id, concurrent::StatsSnapshot::Writer w) : wid(id), writer(w) {}

  int wid;
  concurrent::StatsSnapshot::Writer writer;
  ContentionCounters counters;
  std::optional<Engine> engine;
  std::vector<AppliedLevel> levels;  ///< levels[k] journals cur[k]'s step
  std::vector<const PathNode*> cur;
  std::shared_ptr<const PathNode> tail;
  std::vector<const PathNode*> target;  ///< scratch for switch_to
  ConfigKey scratch;                    ///< child-key scratch for expand
  std::vector<ReductionContext::Step> steps;  ///< scratch for expand

  /// Publishes everything counted so far as one snapshot record.
  void flush() {
    writer.set(kCtrCasRetries, counters.cas_retries);
    writer.set(kCtrStealAttempts, counters.steal_attempts);
    writer.set(kCtrSteals, counters.steals);
    writer.publish();
  }
};

/// Replays the sequential DFS over the discovered DAG in canonical edge
/// order, then runs the longest-path / access-bound DP over its postorder.
/// Single-threaded; no engine stepping.  `inv_offset` is the per-object
/// invocation-slot prefix sum (empty unless limits.track_access_bounds).
void replay_and_dp(PNode* root_node, const ExploreLimits& limits,
                   int num_objects, const std::vector<std::size_t>& inv_offset,
                   ExploreOutcome& out) {
  struct Frame {
    PNode* n;
    std::size_t next;
  };
  std::vector<Frame> stack;
  std::vector<PNode*> postorder;
  postorder.reserve(out.stats.configs);
  std::size_t seen_configs = 0;
  std::size_t seen_edges = 0;
  std::size_t seen_terminals = 0;
  PNode* first_violation = nullptr;
  bool cycle = false;

  const auto visit = [&](PNode* n) {
    ++seen_configs;
    n->color = 1;
    if (n->terminal) ++seen_terminals;
    if (n->violation && !first_violation) first_violation = n;
    stack.push_back(Frame{n, 0});
  };
  visit(root_node);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next == f.n->edges.size()) {
      f.n->color = 2;
      postorder.push_back(f.n);
      stack.pop_back();
      continue;
    }
    PNode* child = f.n->edges[f.next++].child;
    ++seen_edges;
    if (child->color == 1) {
      // The same cycle the sequential DFS would hit, at the same point:
      // some execution revisits a configuration, so by the Section 4.2
      // Koenig's-lemma argument the implementation is not wait-free.
      cycle = true;
      break;
    }
    if (child->color == 0) visit(child);
  }
  if (first_violation) out.violation = *first_violation->violation;
  out.stats.configs = seen_configs;
  out.stats.edges = seen_edges;
  out.stats.terminals = seen_terminals;
  if (cycle) {
    // Counters at the abort point, matching the sequential explorer's
    // partial stats bit for bit (the replay IS its traversal, and the
    // sequential memo grows in lockstep with its configs counter).
    out.wait_free = false;
    out.stats.interned_configs = seen_configs;
    return;
  }

  // Access-bound DP rows, flat and indexed by postorder position.
  const bool track = limits.track_access_bounds;
  const std::size_t acc_len = track ? static_cast<std::size_t>(num_objects) : 0;
  const std::size_t inv_len = track ? inv_offset.back() : 0;
  std::vector<std::size_t> acc(postorder.size() * acc_len, 0);
  std::vector<std::size_t> inv(postorder.size() * inv_len, 0);
  for (std::uint32_t k = 0; k < postorder.size(); ++k) {
    PNode* n = postorder[k];
    n->post = k;
    std::size_t* n_acc = acc.data() + k * acc_len;
    std::size_t* n_inv = inv.data() + k * inv_len;
    for (const PEdge& edge : n->edges) {
      n->depth_from = std::max(n->depth_from, edge.child->depth_from + 1);
      if (!track) continue;
      const std::size_t* c_acc = acc.data() + edge.child->post * acc_len;
      const std::size_t* c_inv = inv.data() + edge.child->post * inv_len;
      for (std::size_t g = 0; g < acc_len; ++g) {
        const std::size_t hit =
            g == static_cast<std::size_t>(edge.object) ? 1 : 0;
        n_acc[g] = std::max(n_acc[g], c_acc[g] + hit);
      }
      const std::size_t hit_slot =
          inv_offset[static_cast<std::size_t>(edge.object)] +
          static_cast<std::size_t>(edge.inv);
      for (std::size_t i = 0; i < inv_len; ++i) {
        n_inv[i] = std::max(n_inv[i], c_inv[i] + (i == hit_slot ? 1 : 0));
      }
    }
  }
  out.stats.depth = root_node->depth_from;
  if (track) {
    const std::size_t* r_acc = acc.data() + root_node->post * acc_len;
    const std::size_t* r_inv = inv.data() + root_node->post * inv_len;
    out.stats.max_accesses.assign(r_acc, r_acc + acc_len);
    out.stats.max_accesses_by_inv.resize(acc_len);
    for (std::size_t g = 0; g < acc_len; ++g) {
      out.stats.max_accesses_by_inv[g].assign(r_inv + inv_offset[g],
                                              r_inv + inv_offset[g + 1]);
    }
  }
}

class ParallelExplorer {
 public:
  ParallelExplorer(const ExploreOptions& options, const TerminalCheck& check,
                   int threads)
      : limits_(options.limits),
        options_(options),
        check_(check),
        threads_(threads),
        stats_(static_cast<std::size_t>(threads), kNumCounters) {
    queues_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      queues_.push_back(
          std::make_unique<concurrent::WsDeque<WorkItem>>(256));
    }
  }

  ExploreOutcome run(const Engine& root) {
    const System& sys = root.system();
    if (options_.reduction != Reduction::kNone) {
      ctx_ = std::make_unique<ReductionContext>(sys, options_.reduction,
                                                options_.independence);
    }
    num_objects_ = sys.num_objects();
    if (limits_.track_access_bounds) {
      inv_offset_.assign(static_cast<std::size_t>(num_objects_) + 1, 0);
      for (ObjectId g = 0; g < num_objects_; ++g) {
        const int invs =
            sys.is_base(g) ? sys.base(g).spec->num_invocations() : 0;
        inv_offset_[static_cast<std::size_t>(g) + 1] =
            inv_offset_[static_cast<std::size_t>(g)] +
            static_cast<std::size_t>(invs);
      }
    }
    if (limits_.max_configs == 0 || limits_.max_depth < 0) {
      // The sequential explorer aborts before visiting even the root.
      ExploreOutcome out;
      out.complete = false;
      return out;
    }
    // Canonicalize the root once; every worker's engine starts as a copy of
    // this representative, and all path chains are rooted at it.
    canonical_root_.emplace(root);
    std::uint64_t root_sleep = 0;
    PNode* root_node = nullptr;
    {
      ConfigKey key;
      if (ctx_) {
        ctx_->canonical_node_key_into(*canonical_root_, root_sleep, key,
                                      nullptr);
      } else {
        canonical_root_->config_key_into(key);
      }
      ContentionCounters scratch;
      root_node =
          interner_
              .intern(key.words, config_hash_words(key.words), scratch)
              .value;
    }
    configs_.store(1, std::memory_order_relaxed);
    pending_.store(1, std::memory_order_relaxed);
    // Single-threaded here, so the owner-only push is ours to make.
    queues_[0]->push(new WorkItem{root_node, nullptr, 0, root_sleep});

    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back(&ParallelExplorer::work, this, t);
    }
    for (std::thread& th : workers) th.join();
    drain_stranded_items();
    if (exception_) std::rethrow_exception(exception_);

    ExploreOutcome out;
    // Workers joined: the collect is quiescent, hence retry-free and exact.
    const std::vector<std::uint64_t> totals =
        stats_.collect(&out.contention);
    out.stats.configs = configs_.load(std::memory_order_relaxed);
    out.stats.edges = static_cast<std::size_t>(totals[kCtrEdges]);
    out.stats.terminals = static_cast<std::size_t>(totals[kCtrTerminals]);
    out.stats.interned_configs = interner_.size();
    out.contention.cas_retries += totals[kCtrCasRetries];
    out.contention.steal_attempts += totals[kCtrStealAttempts];
    out.contention.steals += totals[kCtrSteals];
    if (incomplete_.load(std::memory_order_relaxed)) {
      out.complete = false;
      return out;
    }
    if (stop_.load(std::memory_order_relaxed)) {
      // Early stop at a violating terminal: counters are partial lower
      // bounds and the violation is whichever worker surfaced one first.
      std::lock_guard<std::mutex> lk(violation_mu_);
      out.violation = early_violation_;
      return out;
    }
    replay_and_dp(root_node, limits_, num_objects_, inv_offset_, out);
    return out;
  }

 private:
  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  void work(int wid) {
    Worker w(wid, stats_.writer(static_cast<std::size_t>(wid)));
    try {
      int idle_rounds = 0;
      while (!stopped()) {
        if (limits_.cancel &&
            limits_.cancel->load(std::memory_order_relaxed)) {
          incomplete_.store(true, std::memory_order_relaxed);
          stop_.store(true, std::memory_order_release);
          break;
        }
        std::unique_ptr<WorkItem> item(pop(wid, w.counters));
        if (!item) {
          if (pending_.load(std::memory_order_acquire) == 0) break;
          w.flush();  // keep steal traffic visible while idling
          if (++idle_rounds > 64) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          } else {
            std::this_thread::yield();
          }
          continue;
        }
        idle_rounds = 0;
        if (!w.engine) w.engine.emplace(*canonical_root_);
        switch_to(w, *item);
        expand(w, *item);
        pending_.fetch_sub(1, std::memory_order_acq_rel);
        w.flush();
      }
    } catch (...) {
      {
        std::lock_guard<std::mutex> lk(violation_mu_);
        if (!exception_) exception_ = std::current_exception();
      }
      stop_.store(true, std::memory_order_release);
      pending_.fetch_sub(1, std::memory_order_acq_rel);
    }
    w.flush();
  }

  /// LIFO from the worker's own deque, then FIFO steals round-robin from
  /// the other workers'.  The returned item's ownership transfers to the
  /// caller.
  WorkItem* pop(int wid, ContentionCounters& c) {
    if (WorkItem* item = queues_[static_cast<std::size_t>(wid)]->pop()) {
      return item;
    }
    for (int k = 1; k < threads_; ++k) {
      concurrent::WsDeque<WorkItem>& victim =
          *queues_[static_cast<std::size_t>((wid + k) % threads_)];
      if (WorkItem* item = victim.steal(c)) return item;
    }
    return nullptr;
  }

  /// Repositions w.engine at item's node: unwind to the deepest common
  /// ancestor of the current and target paths (inverting each level's
  /// renaming before reverting its step), then replay the target suffix
  /// (applying each recorded step and re-applying its recorded renaming
  /// index).  Path chains are immutable and shared, so pointer equality
  /// identifies common ancestors exactly, and the walk costs the distance
  /// between the two nodes, not their depth: one step for the LIFO pop of
  /// a just-expanded node's child.
  void switch_to(Worker& w, const WorkItem& item) {
    const auto depth = static_cast<std::size_t>(item.depth);
    while (w.cur.size() > depth) unwind(w);
    w.target.clear();
    const PathNode* t = item.path.get();
    for (std::size_t k = depth; k > w.cur.size(); --k) {
      w.target.push_back(t);
      t = t->parent.get();
    }
    // Equal depths from here on; the chains meet at the latest at the root.
    while (!w.cur.empty() && w.cur.back() != t) {
      unwind(w);
      w.target.push_back(t);
      t = t->parent.get();
    }
    for (auto it = w.target.rbegin(); it != w.target.rend(); ++it) {
      const PathNode* n = *it;
      if (w.levels.size() <= w.cur.size()) w.levels.emplace_back();
      AppliedLevel& lv = w.levels[w.cur.size()];
      w.engine->apply(n->step.p, n->step.choice, lv.undo);
      lv.renaming = n->step.renaming;
      if (lv.renaming >= 0) {
        ctx_->apply_renaming_index(*w.engine, lv.renaming);
      }
      w.cur.push_back(n);
    }
    w.tail = item.path;
  }

  /// Reverts the deepest applied level of w's current path.
  void unwind(Worker& w) {
    AppliedLevel& lv = w.levels[w.cur.size() - 1];
    if (lv.renaming >= 0) ctx_->undo_renaming(*w.engine, lv.renaming);
    w.engine->revert(lv.undo);
    w.cur.pop_back();
  }

  /// Expands one frontier node, engine already positioned at it, in the
  /// sequential explorer's enumeration order: ascending processes, slept
  /// ones skipped, choices inner.  Under reduction every child is
  /// canonicalized in place before the claim, so the stored edge order --
  /// replayed by the post-pass -- matches the sequential reduced explorer.
  void expand(Worker& w, const WorkItem& item) {
    Engine& e = *w.engine;
    if (e.all_done()) {
      w.writer.add(kCtrTerminals, 1);
      on_terminal(item.node, e);
      return;
    }
    Engine::UndoRecord undo;
    ReductionContext::steps_into(e, w.steps);
    std::size_t out_degree = 0;
    for (const ReductionContext::Step& step : w.steps) {
      if (!(item.sleep & (std::uint64_t{1} << step.p))) {
        out_degree += static_cast<std::size_t>(step.width);
      }
    }
    item.node->edges.reserve(out_degree);
    for (std::size_t idx = 0; idx < w.steps.size(); ++idx) {
      const ReductionContext::Step& step = w.steps[idx];
      if (item.sleep & (std::uint64_t{1} << step.p)) continue;
      const std::uint64_t child_sleep =
          ctx_ ? ctx_->child_sleep(w.steps, idx, item.sleep) : 0;
      for (int c = 0; c < step.width; ++c) {
        if (stopped()) return;
        w.writer.add(kCtrEdges, 1);
        const Engine::CommitInfo commit = e.apply(step.p, c, undo);
        std::uint64_t canon_sleep = child_sleep;
        int applied = -1;
        if (ctx_) {
          ctx_->canonical_node_key_into(e, canon_sleep, w.scratch, &applied);
        } else {
          e.config_key_into(w.scratch);
        }
        const bool ok = claim_child(w, item, canon_sleep, commit, step.p, c,
                                    applied);
        if (applied >= 0) ctx_->undo_renaming(e, applied);
        e.revert(undo);
        if (!ok) return;
      }
    }
  }

  void on_terminal(PNode* node, Engine& e) {
    node->terminal = true;
    if (check_) {
      if (auto violation = check_(e)) {
        node->violation = std::move(violation);
        {
          std::lock_guard<std::mutex> lk(violation_mu_);
          if (!early_violation_) early_violation_ = node->violation;
        }
        if (limits_.stop_at_violation) {
          stop_.store(true, std::memory_order_release);
        }
      }
    }
  }

  /// Claims the child whose (canonical) key is in w.scratch in the
  /// lock-free interner, records the edge, and enqueues the expansion on
  /// the claiming worker's own deque when this call won the publication
  /// race.  Returns false on a limit abort.
  bool claim_child(Worker& w, const WorkItem& item, std::uint64_t child_sleep,
                   const Engine::CommitInfo& commit, ProcId p, int choice,
                   int renaming) {
    const auto ref = interner_.intern(
        w.scratch.words, config_hash_words(w.scratch.words), w.counters);
    item.node->edges.push_back(PEdge{ref.value, commit.object, commit.inv});
    if (ref.inserted) {
      const std::size_t count =
          configs_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (count > limits_.max_configs || item.depth + 1 > limits_.max_depth ||
          (limits_.cancel &&
           limits_.cancel->load(std::memory_order_relaxed))) {
        incomplete_.store(true, std::memory_order_relaxed);
        stop_.store(true, std::memory_order_release);
        return false;
      }
      pending_.fetch_add(1, std::memory_order_acq_rel);
      auto link = std::make_shared<const PathNode>(
          PathNode{PathStep{p, choice, renaming}, item.path});
      queues_[static_cast<std::size_t>(w.wid)]->push(new WorkItem{
          ref.value, std::move(link), item.depth + 1, child_sleep});
    }
    return true;
  }

  /// An early stop strands unexpanded items in the deques; after join we
  /// are single-threaded, so owner pops reclaim them all.
  void drain_stranded_items() {
    for (auto& q : queues_) {
      while (WorkItem* item = q->pop()) delete item;
    }
  }

  const ExploreLimits limits_;
  const ExploreOptions options_;
  const TerminalCheck& check_;
  const int threads_;
  /// Non-null iff options_.reduction != kNone; built in run() once the
  /// system is known.
  std::unique_ptr<ReductionContext> ctx_;
  int num_objects_ = 0;
  std::vector<std::size_t> inv_offset_;
  /// The canonicalized root configuration; workers copy it lazily on their
  /// first item.
  std::optional<Engine> canonical_root_;
  concurrent::ConcurrentInterner<PNode> interner_;
  std::vector<std::unique_ptr<concurrent::WsDeque<WorkItem>>> queues_;
  concurrent::StatsSnapshot stats_;
  /// Admission tickets for the max_configs limit: deliberately ONE global
  /// padded atomic (see the file comment).
  alignas(kCacheLine) std::atomic<std::size_t> configs_{0};
  alignas(kCacheLine) std::atomic<std::size_t> pending_{0};
  alignas(kCacheLine) std::atomic<bool> stop_{false};
  std::atomic<bool> incomplete_{false};
  std::mutex violation_mu_;  ///< guards early_violation_ and exception_
  std::optional<std::string> early_violation_;
  std::exception_ptr exception_;
};

int resolve_threads(int n_threads) {
  if (n_threads > 0) return n_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw ? static_cast<int>(hw) : 1;
}

}  // namespace

namespace detail {

ExploreOutcome explore_parallel_lockfree(const Engine& root,
                                         const TerminalCheck& check,
                                         const ExploreOptions& options,
                                         int n_threads) {
  if (options.storage.enabled()) {
    // Out-of-core runs route to the sequential explorer's spilling key
    // store: the parallel explorer is contractually bit-identical to
    // explore(), so only the thread count changes.
    return explore(root, options, check);
  }
  ParallelExplorer impl(options, check, resolve_threads(n_threads));
  return impl.run(root);
}

}  // namespace detail

ExploreOutcome explore_parallel(const Engine& root, const TerminalCheck& check,
                                const ExploreLimits& limits, int n_threads) {
  return explore_parallel(root, check, ExploreOptions{limits}, n_threads);
}

ExploreOutcome explore_parallel(const Engine& root, const TerminalCheck& check,
                                const ExploreOptions& options, int n_threads) {
  const int threads = resolve_threads(n_threads);
  if (threads == 1 || options.storage.enabled()) {
    return explore(root, options, check);
  }
  return detail::explore_parallel_lockfree(root, check, options, threads);
}

}  // namespace wfregs
