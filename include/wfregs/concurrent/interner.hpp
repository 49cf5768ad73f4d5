// A lock-free open-addressing interner: word-sequence keys -> exactly-once
// constructed payloads, the parallel explorer's shared memo table.
//
// CLAIM PROTOCOL (the two-phase publication the tests race):
//
//   1. RESERVE  -- CAS the probe slot empty -> kReserved.  Losing the CAS
//      is not a failure: the loser re-examines the slot (its winner is
//      either this key -- wait for publication and share it -- or a
//      different key -- keep probing) and bumps cas_retries.
//   2. WRITE    -- the winner allocates the node (header + payload + the
//      key words inline, one allocation) and fills it while the slot still
//      reads kReserved; concurrent probers for the same hash spin on the
//      reserved slot (publication is two stores away -- bounded).
//   3. PUBLISH  -- store the node pointer into the slot.  From here the
//      key's payload address is stable for the interner's lifetime.
//
// GROWTH keeps inserts lock-free without migrating keys: tables form a
// chain (`prev` towards the oldest, `next` towards the newest).  The
// claimer whose publication crosses the load threshold is elected grower
// (one exchange per table).  It allocates and zeroes the double-size
// successor while the table still takes claims, publishes it as the
// table's `next`, and only then SEALS the table and advances the current
// head.  Keys already published stay where they are, and every lookup
// probes the chain newest -> oldest (O(log n) tables, the newest holding
// most keys).  A claimer checks the seal before it reserves: one that
// meets a sealed table goes straight to its published successor.  One
// whose reservation raced the seal (it checked before the seal, won its
// CAS after) converts the reservation into a TOMBSTONE (probers skip it,
// probes continue past it) and moves on -- this is what makes a key
// impossible to publish twice across tables:
//
//   Slot operations on the claim path and the sealed/next/current pointers
//   are seq_cst, and no claim is made in a successor before its predecessor
//   is sealed (the successor is reachable only through the sealed table's
//   `next` or through the head, which advances after the seal).  So for two
//   racing inserters of the same key either (a) both claim in the same
//   table -- same hash, same probe sequence, the second one meets the first
//   one's reservation and waits -- or (b) the earlier claimer's sealed-check
//   observes the seal that preceded the later claimer's table switch and
//   retires its reservation.  Either way exactly one node per distinct key
//   is ever published, which is what keeps the explorer's `configs` counter
//   (one fetch_add per inserted == true) exact.
//
//   Each claimer straddles a given seal at most once, so a sealed table
//   holds at most one tombstone per claiming thread (plus one per failed
//   node allocation).  Allocating first is what makes the bound hold: a
//   table sealed before its successor exists makes every claimer that
//   meets it reserve and tombstone fresh slots for as long as the
//   allocation runs, leaving runs of tombstones that every later miss
//   walks.
//
// NODES live in the claiming caller's ChunkArena (the parallel explorer's
// per-worker arenas), which must outlive the interner.  Nodes are never
// destroyed, so Value must be trivially destructible.
//
// DELETION does not exist (the explorer only ever adds configurations), so
// there is no ABA and no reclamation problem: the tables are freed by the
// destructor, single-threaded, after the workers joined.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "wfregs/concurrent/cacheline.hpp"
#include "wfregs/concurrent/chunk_arena.hpp"
#include "wfregs/concurrent/contention.hpp"

namespace wfregs::concurrent {

/// Value: the per-key payload, default-constructed exactly once by the
/// claiming thread (phase 2) before the key becomes visible.  Its address
/// is stable until the interner (or the arena holding it) is destroyed.
template <class Value>
class ConcurrentInterner {
  static_assert(std::is_trivially_destructible_v<Value>,
                "nodes live in arenas and are never destroyed");

 public:
  struct Ref {
    Value* value = nullptr;
    bool inserted = false;  ///< this call claimed the key
  };

  /// Occupancy of one table of the chain (see table_stats()).
  struct TableStats {
    std::size_t slots = 0;
    std::size_t nodes = 0;
    std::size_t tombstones = 0;
  };

  explicit ConcurrentInterner(std::size_t initial_slots = 1u << 12)
      : current_(new Table(round_up(initial_slots), nullptr)) {}

  ConcurrentInterner(const ConcurrentInterner&) = delete;
  ConcurrentInterner& operator=(const ConcurrentInterner&) = delete;

  ~ConcurrentInterner() {
    Table* t = newest();
    while (t != nullptr) {
      Table* prev = t->prev;
      delete t;
      t = prev;
    }
  }

  /// The payload of `words` (whose hash is `hash`), claiming it when
  /// absent; `c.cas_retries` counts lost reservations.  A claimed node is
  /// placed in `arena`.  Safe from any number of threads, each with its own
  /// arena.
  Ref intern(std::span<const std::uint64_t> words, std::uint64_t hash,
             ContentionCounters& c, ChunkArena& arena) {
    Table* t = current_.load(std::memory_order_seq_cst);
    for (;;) {
      // Keys can live in any older table of the chain; those are sealed, so
      // a key found there is fully published and final.
      for (Table* old = t->prev; old != nullptr; old = old->prev) {
        if (Node* n = search(*old, words, hash)) return Ref{&n->value, false};
      }
      const Ref r = claim(*t, words, hash, c, arena);
      if (r.value != nullptr) return r;
      if (t->sealed.load(std::memory_order_seq_cst)) {
        // The successor was published before the seal.  Help a lagging
        // head forward on the way.
        Table* next = t->next.load(std::memory_order_seq_cst);
        Table* expected = t;
        current_.compare_exchange_strong(expected, next,
                                         std::memory_order_seq_cst);
        t = next;
      } else {
        // Full before its grower sealed it: let the grower run.
        std::this_thread::yield();
        t = current_.load(std::memory_order_seq_cst);
      }
    }
  }

  /// Lookup without claiming; nullptr when absent.
  Value* find(std::span<const std::uint64_t> words,
              std::uint64_t hash) const {
    for (Table* t = newest(); t != nullptr; t = t->prev) {
      if (Node* n = search(*t, words, hash)) return &n->value;
    }
    return nullptr;
  }

  /// Number of distinct keys published.
  std::size_t size() const {
    return count_.load(std::memory_order_acquire);
  }

  /// Bytes held by slot tables and published nodes (bench accounting).
  std::size_t memory_bytes() const {
    std::size_t total = node_bytes_.load(std::memory_order_relaxed);
    for (const Table* t = newest(); t != nullptr; t = t->prev) {
      total += (t->mask + 1) * sizeof(std::atomic<Node*>) + sizeof(Table);
    }
    return total;
  }

  /// Slot, node and tombstone counts of every table, newest first (every
  /// table but the first is sealed).  Exact only when no thread is
  /// interning.
  std::vector<TableStats> table_stats() const {
    std::vector<TableStats> out;
    for (const Table* t = newest(); t != nullptr; t = t->prev) {
      TableStats& ts = out.emplace_back();
      ts.slots = t->mask + 1;
      for (std::size_t i = 0; i <= t->mask; ++i) {
        const Node* n = t->slots[i].load(std::memory_order_acquire);
        if (n == tombstone_sentinel()) ++ts.tombstones;
        if (is_node(n)) ++ts.nodes;
      }
    }
    return out;
  }

 private:
  struct Node {
    std::uint64_t hash;
    std::uint32_t nwords;
    Value value;
    // The key words live immediately after the node (one allocation).
    std::uint64_t* words() {
      return reinterpret_cast<std::uint64_t*>(this + 1);
    }
    const std::uint64_t* words() const {
      return reinterpret_cast<const std::uint64_t*>(this + 1);
    }
  };
  static_assert(alignof(Node) % alignof(std::uint64_t) == 0);

  struct Table {
    Table(std::size_t cap, Table* prev_table)
        : mask(cap - 1), prev(prev_table),
          slots(std::make_unique<std::atomic<Node*>[]>(cap)) {}
    const std::size_t mask;
    Table* const prev;
    std::atomic<Table*> next{nullptr};  ///< published before `sealed`
    std::atomic<bool> sealed{false};
    std::atomic<bool> growing{false};  ///< a grower has been elected
    alignas(kCacheLine) std::atomic<std::size_t> used{0};
    std::unique_ptr<std::atomic<Node*>[]> slots;
  };

  // Sentinel slot states.  Real nodes are aligned pointers > kTombstone.
  static Node* reserved_sentinel() { return reinterpret_cast<Node*>(1); }
  static Node* tombstone_sentinel() { return reinterpret_cast<Node*>(2); }
  static bool is_node(const Node* p) {
    return p != nullptr && p != reserved_sentinel() &&
           p != tombstone_sentinel();
  }

  static std::size_t round_up(std::size_t n) {
    std::size_t p = 8;
    while (p < n) p <<= 1;
    return p;
  }

  static bool key_equals(const Node& n, std::span<const std::uint64_t> words,
                         std::uint64_t hash) {
    if (n.hash != hash || n.nwords != words.size()) return false;
    const std::uint64_t* w = n.words();
    for (std::size_t i = 0; i < words.size(); ++i) {
      if (w[i] != words[i]) return false;
    }
    return true;
  }

  Node* make_node(std::span<const std::uint64_t> words, std::uint64_t hash,
                  ChunkArena& arena) {
    const std::size_t bytes =
        sizeof(Node) + words.size() * sizeof(std::uint64_t);
    Node* n = new (arena.allocate(bytes, alignof(Node)))
        Node{hash, static_cast<std::uint32_t>(words.size()), Value{}};
    std::uint64_t* w = n->words();
    for (std::size_t i = 0; i < words.size(); ++i) w[i] = words[i];
    node_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return n;
  }

  Table* newest() const {
    Table* t = current_.load(std::memory_order_seq_cst);
    while (Table* next = t->next.load(std::memory_order_seq_cst)) t = next;
    return t;
  }

  /// Published node for `words` in `t`, or nullptr.  Waits out in-flight
  /// reservations met along the probe path (publication is imminent).
  /// Tombstones are few (at most one per claimer per seal), but a table can
  /// still fill up with nodes while its grower allocates the successor, and
  /// then no empty slot ends the chain: the probe visits each slot at most
  /// once.
  static Node* search(const Table& t, std::span<const std::uint64_t> words,
                      std::uint64_t hash) {
    std::size_t slot = static_cast<std::size_t>(hash) & t.mask;
    for (std::size_t probes = 0; probes <= t.mask;
         ++probes, slot = (slot + 1) & t.mask) {
      Node* n = t.slots[slot].load(std::memory_order_seq_cst);
      while (n == reserved_sentinel()) {
        // Mid-publication: the claimer is two stores from done (or about
        // to tombstone); either outcome resolves the slot.
        n = t.slots[slot].load(std::memory_order_seq_cst);
      }
      if (n == nullptr) return nullptr;  // probe chain ends: absent here
      if (n == tombstone_sentinel()) continue;
      if (key_equals(*n, words, hash)) return n;
    }
    return nullptr;
  }

  /// Claims or finds `words` in `t`.  Ref.value == nullptr means `t` is
  /// sealed (met before or right after a reservation) or full (which only
  /// a table whose grower has not sealed it yet can be): the caller moves
  /// on to the successor or retries on the head.
  Ref claim(Table& t, std::span<const std::uint64_t> words,
            std::uint64_t hash, ContentionCounters& c, ChunkArena& arena) {
    if (t.sealed.load(std::memory_order_seq_cst)) return Ref{nullptr, false};
    std::size_t slot = static_cast<std::size_t>(hash) & t.mask;
    for (std::size_t probes = 0; probes <= t.mask;
         ++probes, slot = (slot + 1) & t.mask) {
      Node* cur = t.slots[slot].load(std::memory_order_seq_cst);
      if (cur == nullptr) {
        Node* expected = nullptr;
        if (t.slots[slot].compare_exchange_strong(
                expected, reserved_sentinel(), std::memory_order_seq_cst,
                std::memory_order_seq_cst)) {
          if (t.sealed.load(std::memory_order_seq_cst)) {
            // A grower sealed this table between our seal check and our
            // reservation; retire the slot and move to the successor.
            t.slots[slot].store(tombstone_sentinel(),
                                std::memory_order_seq_cst);
            return Ref{nullptr, false};
          }
          Node* n = nullptr;
          try {
            n = make_node(words, hash, arena);
          } catch (...) {
            // Never leave a reservation behind: probers spin on it.
            t.slots[slot].store(tombstone_sentinel(),
                                std::memory_order_seq_cst);
            throw;
          }
          t.slots[slot].store(n, std::memory_order_seq_cst);
          count_.fetch_add(1, std::memory_order_acq_rel);
          maybe_grow(t);
          return Ref{&n->value, true};
        }
        c.cas_retries += 1;
        cur = expected;  // re-examine whatever beat us
      }
      while (cur == reserved_sentinel()) {
        cur = t.slots[slot].load(std::memory_order_seq_cst);
      }
      if (cur == tombstone_sentinel()) continue;
      if (key_equals(*cur, words, hash)) return Ref{&cur->value, false};
    }
    return Ref{nullptr, false};
  }

  void maybe_grow(Table& t) {
    const std::size_t used =
        t.used.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Grow at ~60% load so probe chains stay short under contention.
    if (used * 10 < (t.mask + 1) * 6) return;
    if (t.growing.exchange(true, std::memory_order_acq_rel)) return;
    // Elected: allocate and zero the successor while `t` still takes
    // claims, publish it, and only then seal `t` (see GROWTH).
    Table* next = nullptr;
    try {
      next = new Table((t.mask + 1) * 2, &t);
    } catch (...) {
      t.growing.store(false, std::memory_order_release);  // a later claimer
      throw;                                              // retries
    }
    t.next.store(next, std::memory_order_seq_cst);
    t.sealed.store(true, std::memory_order_seq_cst);
    Table* expected = &t;
    current_.compare_exchange_strong(expected, next,
                                     std::memory_order_seq_cst);
  }

  std::atomic<Table*> current_;
  alignas(kCacheLine) std::atomic<std::size_t> count_{0};
  alignas(kCacheLine) std::atomic<std::size_t> node_bytes_{0};
};

}  // namespace wfregs::concurrent
