// The parallel explorer behind explore_parallel for every multi-threaded
// run, and the explore_parallel dispatch.
//
// Two phases, the first parallel and the second single-threaded:
//
//   1. DISCOVERY.  Workers pop frontier nodes from per-worker Chase-Lev
//      deques (wfregs/concurrent/ws_deque.hpp): the owner pushes and pops
//      at the bottom (LIFO, the DFS-like order that keeps engine
//      repositioning cheap), thieves steal the top (FIFO -- oldest, largest
//      subtrees).  Each worker owns ONE undo-journaled engine.  The
//      frontier items are the discovered nodes themselves: each node
//      records the node that claimed it and the compact (process, choice)
//      step from there, so the parent links form the path from the root.
//      Popping a node repositions the worker's engine by reverting to the
//      deepest common ancestor with its previous position and replaying the
//      suffix.  Expansion applies each outgoing
//      step with Engine::apply(), claims the child in the lock-free
//      interner (wfregs/concurrent/interner.hpp: CAS slot reservation plus
//      two-phase publication; Ref.inserted is true for exactly one claimer
//      per configuration), and reverts.  The claimer owns the child's
//      expansion, so every configuration is expanded exactly once and its
//      edge array is written by one thread (published to the post-pass by
//      thread join).  Nodes (as interner payloads) and edge arrays come
//      from per-worker chunk arenas and violation texts go to a side list,
//      so discovery makes no heap allocation per node and teardown frees a
//      few chunks.  Nodes stranded in the deques by an early stop need no
//      draining: the arenas own them.
//   2. CANONICAL REPLAY + DP.  One DFS replays the sequential explorer over
//      the discovered DAG in its canonical edge order, recomputing configs,
//      edges, terminals, the cycle-abort point and the first violation
//      exactly as explore() finds them; each node's longest-path /
//      access-bound DP row is filled when the DFS pops it (its children are
//      all finished by then, or the replay found a cycle and stopped).
//
// Per-worker edges/terminals/contention counters flow through the
// wait-free StatsSnapshot aggregator (wfregs/concurrent/snapshot.hpp); the
// post-join collect is quiescent and therefore exact.  The `configs_`
// admission counter is the one deliberate exception: the max_configs limit
// needs a single exactly-once sequence of admission tickets, so it is a
// padded global fetch_add.  Contention (CAS retries, steal traffic,
// snapshot invalidations) is reported in ExploreOutcome::contention and
// phase wall times in ExploreOutcome::phases -- observational only, never
// part of the determinism contract.
//
// Early aborts (stop_at_violation, limit hits, cancellation) short-circuit
// discovery via an atomic stop flag and skip the post-pass.  A limit hit or
// cancellation returns the partial counters; a stop at a violation re-runs
// the root on the sequential explorer, whose first violation in DFS order
// fixes the counters.  Once the stop flag is set a worker's engine may be
// left mid-path; no worker expands another node afterwards.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "explorer_steps.hpp"
#include "wfregs/concurrent/cacheline.hpp"
#include "wfregs/concurrent/chunk_arena.hpp"
#include "wfregs/concurrent/contention.hpp"
#include "wfregs/concurrent/interner.hpp"
#include "wfregs/concurrent/snapshot.hpp"
#include "wfregs/concurrent/ws_deque.hpp"
#include "wfregs/runtime/config_intern.hpp"
#include "wfregs/runtime/explorer.hpp"

namespace wfregs {

namespace {

using concurrent::ChunkArena;
using concurrent::ContentionCounters;
using concurrent::kCacheLine;
using Clock = std::chrono::steady_clock;

struct PNode;

struct PEdge {
  PNode* child;
  ObjectId object;
  InvId inv;
};

/// One compact delta on a root-to-node path: step process `p` with
/// nondeterministic choice `choice`.
struct PathStep {
  ProcId p = -1;
  int choice = 0;
};

/// A discovered configuration, which is also its own frontier item and
/// path link.  Trivially destructible: it lives in its claimer's arena as
/// the interner node's payload.  The path fields are written by the
/// claimer before the node is pushed and only read afterwards; the
/// expansion fields are written by the one worker that expands it; the
/// post-pass fields are used single-threaded after join.
struct PNode {
  // ---- path (the claimer) ----
  PNode* parent = nullptr;  ///< the node whose expansion claimed this one
  PathStep step;            ///< from parent to this node
  int depth = 0;            ///< parent links to the root
  // ---- expansion (the expanding worker) ----
  PEdge* edges = nullptr;  ///< out-degree entries, arena-allocated
  std::uint32_t num_edges = 0;
  std::uint32_t violation = 0;  ///< 1 + index into violations_; 0 = none
  bool terminal = false;
  // ---- post-pass scratch ----
  std::uint8_t color = 0;  ///< 0 = unvisited, 1 = on replay stack, 2 = done
  int depth_from = 0;
  std::uint32_t post = 0;  ///< postorder index: the node's DP row
};

// StatsSnapshot counter layout (one writer slot per worker).
constexpr std::size_t kCtrEdges = 0;
constexpr std::size_t kCtrTerminals = 1;
constexpr std::size_t kCtrCasRetries = 2;
constexpr std::size_t kCtrStealAttempts = 3;
constexpr std::size_t kCtrSteals = 4;
constexpr std::size_t kNumCounters = 5;

/// Per-worker exploration state: the single engine plus the path it is
/// currently positioned at (cur[k] is the node at depth k + 1), and the
/// worker's counters.  Nodes live as long as the explorer, so `cur` needs
/// no ownership.
struct Worker {
  Worker(int id, concurrent::StatsSnapshot::Writer w, ChunkArena& a)
      : wid(id), writer(w), arena(a) {}

  int wid;
  concurrent::StatsSnapshot::Writer writer;
  ChunkArena& arena;
  ContentionCounters counters;
  std::optional<Engine> engine;
  /// levels[k] journals cur[k]'s step.
  std::vector<Engine::UndoRecord> levels;
  std::vector<const PNode*> cur;
  std::vector<const PNode*> target;  ///< scratch for switch_to
  ConfigKey scratch;                 ///< child-key scratch for expand
  std::vector<detail::Step> steps;   ///< scratch for expand
  Engine::UndoRecord undo;           ///< scratch for expand

  /// Publishes everything counted so far as one snapshot record.
  void flush() {
    writer.set(kCtrCasRetries, counters.cas_retries);
    writer.set(kCtrStealAttempts, counters.steal_attempts);
    writer.set(kCtrSteals, counters.steals);
    writer.publish();
  }
};

std::uint64_t ns_since(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

class ParallelExplorer {
 public:
  ParallelExplorer(const ExploreOptions& options, const TerminalCheck& check,
                   int threads)
      : limits_(options.limits),
        options_(options),
        check_(check),
        threads_(threads),
        arenas_(std::make_unique<PaddedArena[]>(
            static_cast<std::size_t>(threads))),
        stats_(static_cast<std::size_t>(threads), kNumCounters) {
    queues_.reserve(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      queues_.push_back(std::make_unique<concurrent::WsDeque<PNode>>(256));
    }
  }

  ExploreOutcome run(const Engine& root) {
    const System& sys = root.system();
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
    // Every worker's engine starts as a copy of the root, and all parent
    // chains end at its node.
    root_ = &root;
    PNode* root_node = nullptr;
    {
      const ConfigKey key = root.config_key();
      ContentionCounters scratch;
      root_node = interner_
                      .intern(key.words, config_hash_words(key.words),
                              scratch, arenas_[0].arena)
                      .value;
    }
    configs_.store(1, std::memory_order_relaxed);
    pending_.store(1, std::memory_order_relaxed);
    // Single-threaded here, so the owner-only push is ours to make.
    queues_[0]->push(root_node);

    ExploreOutcome out;
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> workers;
    workers.reserve(static_cast<std::size_t>(threads_));
    for (int t = 0; t < threads_; ++t) {
      workers.emplace_back(&ParallelExplorer::work, this, t);
    }
    for (std::thread& th : workers) th.join();
    out.phases.discover_ns = ns_since(t0);
    if (exception_) std::rethrow_exception(exception_);

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
      // Early stop at a violating terminal.  The partial counters depend on
      // which worker got where first, so hand the run to the sequential
      // explorer, which stops at the first violation in DFS order: the
      // outcome is then explore()'s, bit for bit.
      ExploreOutcome sequential = explore(root, options_, check_);
      sequential.contention = out.contention;
      sequential.phases = out.phases;
      return sequential;
    }
    const Clock::time_point t1 = Clock::now();
    replay_and_dp(root_node, out);
    out.phases.replay_dp_ns = ns_since(t1);
    return out;
  }

 private:
  /// One worker's arena, on its own cache lines.
  struct alignas(kCacheLine) PaddedArena {
    ChunkArena arena;
  };

  bool stopped() const { return stop_.load(std::memory_order_acquire); }

  void work(int wid) {
    Worker w(wid, stats_.writer(static_cast<std::size_t>(wid)),
             arenas_[static_cast<std::size_t>(wid)].arena);
    try {
      int idle_rounds = 0;
      while (!stopped()) {
        if (limits_.cancel &&
            limits_.cancel->load(std::memory_order_relaxed)) {
          incomplete_.store(true, std::memory_order_relaxed);
          stop_.store(true, std::memory_order_release);
          break;
        }
        PNode* node = pop(wid, w.counters);
        if (!node) {
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
        if (!w.engine) w.engine.emplace(*root_);
        switch_to(w, *node);
        expand(w, *node);
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
  /// the other workers'.
  PNode* pop(int wid, ContentionCounters& c) {
    if (PNode* node = queues_[static_cast<std::size_t>(wid)]->pop()) {
      return node;
    }
    for (int k = 1; k < threads_; ++k) {
      concurrent::WsDeque<PNode>& victim =
          *queues_[static_cast<std::size_t>((wid + k) % threads_)];
      if (PNode* node = victim.steal(c)) return node;
    }
    return nullptr;
  }

  /// Repositions w.engine at `node`: unwind to the deepest common ancestor
  /// of the current and target paths, then replay the target suffix.
  /// Parent links are immutable and every node is one object, so pointer
  /// equality identifies common ancestors exactly, and the walk costs the
  /// distance between the two nodes, not their depth: one step for the LIFO
  /// pop of a just-expanded node's child.
  void switch_to(Worker& w, const PNode& node) {
    const auto depth = static_cast<std::size_t>(node.depth);
    while (w.cur.size() > depth) unwind(w);
    w.target.clear();
    const PNode* t = &node;
    for (std::size_t k = depth; k > w.cur.size(); --k) {
      w.target.push_back(t);
      t = t->parent;
    }
    // Equal depths from here on; the chains meet at the latest at the root.
    while (!w.cur.empty() && w.cur.back() != t) {
      unwind(w);
      w.target.push_back(t);
      t = t->parent;
    }
    for (auto it = w.target.rbegin(); it != w.target.rend(); ++it) {
      const PNode* n = *it;
      if (w.levels.size() <= w.cur.size()) w.levels.emplace_back();
      w.engine->apply(n->step.p, n->step.choice, w.levels[w.cur.size()]);
      w.cur.push_back(n);
    }
  }

  /// Reverts the deepest applied level of w's current path.
  void unwind(Worker& w) {
    w.engine->revert(w.levels[w.cur.size() - 1]);
    w.cur.pop_back();
  }

  /// Expands one frontier node, engine already positioned at it, in the
  /// sequential explorer's enumeration order: ascending processes, choices
  /// inner, which is the edge order the post-pass replays.
  void expand(Worker& w, PNode& node) {
    Engine& e = *w.engine;
    if (e.all_done()) {
      w.writer.add(kCtrTerminals, 1);
      on_terminal(node, e);
      return;
    }
    detail::steps_into(e, w.steps);
    std::size_t out_degree = 0;
    for (const detail::Step& step : w.steps) {
      out_degree += static_cast<std::size_t>(step.width);
    }
    if (out_degree > 0) node.edges = w.arena.allocate_array<PEdge>(out_degree);
    for (const detail::Step& step : w.steps) {
      for (int c = 0; c < step.width; ++c) {
        if (stopped()) return;
        w.writer.add(kCtrEdges, 1);
        const Engine::CommitInfo commit = e.apply(step.p, c, w.undo);
        e.config_key_into(w.scratch);
        const bool ok = claim_child(w, node, commit, PathStep{step.p, c});
        e.revert(w.undo);
        if (!ok) return;
      }
    }
  }

  void on_terminal(PNode& node, Engine& e) {
    node.terminal = true;
    if (!check_) return;
    std::optional<std::string> violation = check_(e);
    if (!violation) return;
    {
      std::lock_guard<std::mutex> lk(violation_mu_);
      violations_.push_back(std::move(*violation));
      node.violation = static_cast<std::uint32_t>(violations_.size());
    }
    if (limits_.stop_at_violation) {
      stop_.store(true, std::memory_order_release);
    }
  }

  /// Claims the child whose key is in w.scratch in the
  /// lock-free interner, records the edge, and enqueues the child on the
  /// claiming worker's own deque when this call won the publication race.
  /// Returns false on a limit abort.
  bool claim_child(Worker& w, PNode& node, const Engine::CommitInfo& commit,
                   PathStep step) {
    const auto ref =
        interner_.intern(w.scratch.words, config_hash_words(w.scratch.words),
                         w.counters, w.arena);
    node.edges[node.num_edges++] = PEdge{ref.value, commit.object, commit.inv};
    if (ref.inserted) {
      const std::size_t count =
          configs_.fetch_add(1, std::memory_order_acq_rel) + 1;
      if (count > limits_.max_configs || node.depth + 1 > limits_.max_depth ||
          (limits_.cancel &&
           limits_.cancel->load(std::memory_order_relaxed))) {
        incomplete_.store(true, std::memory_order_relaxed);
        stop_.store(true, std::memory_order_release);
        return false;
      }
      pending_.fetch_add(1, std::memory_order_acq_rel);
      PNode& child = *ref.value;
      child.parent = &node;
      child.step = step;
      child.depth = node.depth + 1;
      queues_[static_cast<std::size_t>(w.wid)]->push(&child);
    }
    return true;
  }

  /// Replays the sequential DFS over the discovered DAG in canonical edge
  /// order and, in the same pass, fills each node's longest-path /
  /// access-bound DP row when the DFS pops it.  Single-threaded; no engine
  /// stepping.
  void replay_and_dp(PNode* root_node, ExploreOutcome& out) const {
    struct Frame {
      PNode* n;
      std::uint32_t next;
    };
    std::vector<Frame> stack;
    // Access-bound DP rows, flat and indexed by postorder position.
    const bool track = limits_.track_access_bounds;
    const std::size_t acc_len =
        track ? static_cast<std::size_t>(num_objects_) : 0;
    const std::size_t inv_len = track ? inv_offset_.back() : 0;
    std::vector<std::size_t> acc;
    std::vector<std::size_t> inv;
    acc.reserve(out.stats.configs * acc_len);
    inv.reserve(out.stats.configs * inv_len);
    std::uint32_t next_post = 0;
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
    // Every child of `n` is done, so their rows are final.
    const auto fill_row = [&](PNode* n) {
      n->post = next_post++;
      acc.resize(acc.size() + acc_len, 0);
      inv.resize(inv.size() + inv_len, 0);
      std::size_t* n_acc = acc.data() + n->post * acc_len;
      std::size_t* n_inv = inv.data() + n->post * inv_len;
      for (std::uint32_t k = 0; k < n->num_edges; ++k) {
        const PEdge& edge = n->edges[k];
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
            inv_offset_[static_cast<std::size_t>(edge.object)] +
            static_cast<std::size_t>(edge.inv);
        for (std::size_t i = 0; i < inv_len; ++i) {
          n_inv[i] = std::max(n_inv[i], c_inv[i] + (i == hit_slot ? 1 : 0));
        }
      }
    };

    visit(root_node);
    while (!stack.empty()) {
      Frame& f = stack.back();
      if (f.next == f.n->num_edges) {
        f.n->color = 2;
        fill_row(f.n);
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
    if (first_violation) {
      out.violation = violations_[first_violation->violation - 1];
    }
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
    out.stats.depth = root_node->depth_from;
    if (track) {
      const std::size_t* r_acc = acc.data() + root_node->post * acc_len;
      const std::size_t* r_inv = inv.data() + root_node->post * inv_len;
      out.stats.max_accesses.assign(r_acc, r_acc + acc_len);
      out.stats.max_accesses_by_inv.resize(acc_len);
      for (std::size_t g = 0; g < acc_len; ++g) {
        out.stats.max_accesses_by_inv[g].assign(r_inv + inv_offset_[g],
                                                r_inv + inv_offset_[g + 1]);
      }
    }
  }

  const ExploreLimits limits_;
  const ExploreOptions options_;
  const TerminalCheck& check_;
  const int threads_;
  int num_objects_ = 0;
  std::vector<std::size_t> inv_offset_;
  /// The root configuration (run()'s argument); workers copy it lazily on
  /// their first node.
  const Engine* root_ = nullptr;
  /// arenas_[wid]: worker wid's nodes and edge arrays.  Declared before
  /// the interner, which must not outlive its nodes.
  std::unique_ptr<PaddedArena[]> arenas_;
  concurrent::ConcurrentInterner<PNode> interner_;
  std::vector<std::unique_ptr<concurrent::WsDeque<PNode>>> queues_;
  concurrent::StatsSnapshot stats_;
  /// Admission tickets for the max_configs limit: deliberately ONE global
  /// padded atomic (see the file comment).
  alignas(kCacheLine) std::atomic<std::size_t> configs_{0};
  alignas(kCacheLine) std::atomic<std::size_t> pending_{0};
  alignas(kCacheLine) std::atomic<bool> stop_{false};
  std::atomic<bool> incomplete_{false};
  std::mutex violation_mu_;  ///< guards violations_ and exception_
  /// Violation texts in the order workers found them; PNode::violation
  /// indexes this.
  std::vector<std::string> violations_;
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
  auto impl = std::make_unique<ParallelExplorer>(options, check,
                                                 resolve_threads(n_threads));
  ExploreOutcome out = impl->run(root);
  const Clock::time_point t0 = Clock::now();
  impl.reset();
  out.phases.teardown_ns = ns_since(t0);
  return out;
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
