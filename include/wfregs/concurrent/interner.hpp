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
// chain, newest first.  A claimer that crosses the load threshold SEALS the
// current table (atomic exchange elects one grower) and installs a
// double-size successor; keys already published stay where they are and
// every lookup probes the chain newest -> oldest (O(log n) tables, the
// newest holding most keys).  A claimer that won its CAS in a table that
// turned out sealed converts the reservation into a TOMBSTONE (probers skip
// it, probes continue past it) and retries in the successor -- this is what
// makes a key impossible to publish twice across tables:
//
//   Slot operations on the claim path and the sealed/current flags are
//   seq_cst, so for two racing inserters of the same key either (a) both
//   claim in the same table -- same hash, same probe sequence, the second
//   one meets the first one's reservation and waits -- or (b) the earlier
//   claimer's sealed-check observes the seal that preceded the later
//   claimer's table switch and retires its reservation.  Either way exactly
//   one node per distinct key is ever published, which is what keeps the
//   explorer's `configs` counter (one fetch_add per inserted == true) exact.
//
// DELETION does not exist (the explorer only ever adds configurations), so
// there is no ABA and no reclamation problem: nodes and superseded tables
// are freed by the destructor, single-threaded, after the workers joined.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>

#include "wfregs/concurrent/cacheline.hpp"
#include "wfregs/concurrent/contention.hpp"

namespace wfregs::concurrent {

/// Value: the per-key payload, default-constructed exactly once by the
/// claiming thread (phase 2) before the key becomes visible.  Its address
/// is stable until the interner is destroyed.
template <class Value>
class ConcurrentInterner {
 public:
  struct Ref {
    Value* value = nullptr;
    bool inserted = false;  ///< this call claimed the key
  };

  explicit ConcurrentInterner(std::size_t initial_slots = 1u << 12)
      : current_(new Table(round_up(initial_slots), nullptr)) {}

  ConcurrentInterner(const ConcurrentInterner&) = delete;
  ConcurrentInterner& operator=(const ConcurrentInterner&) = delete;

  ~ConcurrentInterner() {
    Table* t = current_.load(std::memory_order_relaxed);
    while (t != nullptr) {
      for (std::size_t i = 0; i <= t->mask; ++i) {
        Node* n = t->slots[i].load(std::memory_order_relaxed);
        if (is_node(n)) destroy_node(n);
      }
      Table* prev = t->prev;
      delete t;
      t = prev;
    }
  }

  /// The payload of `words` (whose hash is `hash`), claiming it when
  /// absent; `c.cas_retries` counts lost reservations.  Safe from any
  /// number of threads.
  Ref intern(std::span<const std::uint64_t> words, std::uint64_t hash,
             ContentionCounters& c) {
    for (;;) {
      Table* head = current_.load(std::memory_order_seq_cst);
      // Keys can live in any table of the chain; older tables are sealed,
      // so a key found there is fully published and final.
      for (Table* t = head->prev; t != nullptr; t = t->prev) {
        if (Node* n = search(*t, words, hash)) return Ref{&n->value, false};
      }
      const Ref r = claim(*head, words, hash, c);
      if (r.value != nullptr) return r;
      // head was sealed under us (or is full while its grower installs the
      // successor); reload the current table and try again.
    }
  }

  /// Lookup without claiming; nullptr when absent.
  Value* find(std::span<const std::uint64_t> words,
              std::uint64_t hash) const {
    for (Table* t = current_.load(std::memory_order_seq_cst); t != nullptr;
         t = t->prev) {
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
    for (Table* t = current_.load(std::memory_order_acquire); t != nullptr;
         t = t->prev) {
      total += (t->mask + 1) * sizeof(std::atomic<Node*>) + sizeof(Table);
    }
    return total;
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
    std::atomic<bool> sealed{false};
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

  Node* make_node(std::span<const std::uint64_t> words, std::uint64_t hash) {
    const std::size_t bytes =
        sizeof(Node) + words.size() * sizeof(std::uint64_t);
    void* raw = ::operator new(bytes, std::align_val_t{alignof(Node)});
    Node* n = new (raw) Node{hash, static_cast<std::uint32_t>(words.size()),
                             Value{}};
    std::uint64_t* w = n->words();
    for (std::size_t i = 0; i < words.size(); ++i) w[i] = words[i];
    node_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    return n;
  }

  static void destroy_node(Node* n) {
    n->~Node();
    ::operator delete(static_cast<void*>(n),
                      std::align_val_t{alignof(Node)});
  }

  /// Published node for `words` in `t`, or nullptr.  Waits out in-flight
  /// reservations met along the probe path (publication is imminent).
  /// The probe visits each slot at most once: a sealed table can fill up
  /// completely with nodes and tombstones (claimers that keep meeting it
  /// while its grower is descheduled tombstone every empty slot), and then
  /// no empty slot ends the chain.
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

  /// Claims or finds `words` in `head`.  Ref.value == nullptr means `head`
  /// got sealed out from under the claim, or is full (which only a table
  /// whose growth is under way can be): caller must retry on the current
  /// table.
  Ref claim(Table& head, std::span<const std::uint64_t> words,
            std::uint64_t hash, ContentionCounters& c) {
    std::size_t slot = static_cast<std::size_t>(hash) & head.mask;
    for (std::size_t probes = 0; probes <= head.mask;
         ++probes, slot = (slot + 1) & head.mask) {
      Node* cur = head.slots[slot].load(std::memory_order_seq_cst);
      if (cur == nullptr) {
        Node* expected = nullptr;
        if (head.slots[slot].compare_exchange_strong(
                expected, reserved_sentinel(), std::memory_order_seq_cst,
                std::memory_order_seq_cst)) {
          if (head.sealed.load(std::memory_order_seq_cst)) {
            // A grower sealed this table before our reservation became
            // the key's home; retire the slot and move to the successor.
            head.slots[slot].store(tombstone_sentinel(),
                                   std::memory_order_seq_cst);
            return Ref{nullptr, false};
          }
          Node* n = nullptr;
          try {
            n = make_node(words, hash);
          } catch (...) {
            // Never leave a reservation behind: probers spin on it.
            head.slots[slot].store(tombstone_sentinel(),
                                   std::memory_order_seq_cst);
            throw;
          }
          head.slots[slot].store(n, std::memory_order_seq_cst);
          count_.fetch_add(1, std::memory_order_acq_rel);
          maybe_grow(head);
          return Ref{&n->value, true};
        }
        c.cas_retries += 1;
        cur = expected;  // re-examine whatever beat us
      }
      while (cur == reserved_sentinel()) {
        cur = head.slots[slot].load(std::memory_order_seq_cst);
      }
      if (cur == tombstone_sentinel()) continue;
      if (key_equals(*cur, words, hash)) return Ref{&cur->value, false};
    }
    return Ref{nullptr, false};
  }

  void maybe_grow(Table& head) {
    const std::size_t used =
        head.used.fetch_add(1, std::memory_order_acq_rel) + 1;
    // Grow at ~60% load so probe chains stay short under contention.
    if (used * 10 < (head.mask + 1) * 6) return;
    if (head.sealed.exchange(true, std::memory_order_seq_cst)) return;
    // We won the seal: we are the only installer of the successor.
    current_.store(new Table((head.mask + 1) * 2, &head),
                   std::memory_order_seq_cst);
  }

  std::atomic<Table*> current_;
  alignas(kCacheLine) std::atomic<std::size_t> count_{0};
  alignas(kCacheLine) std::atomic<std::size_t> node_bytes_{0};
};

}  // namespace wfregs::concurrent
