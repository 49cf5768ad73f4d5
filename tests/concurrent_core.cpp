// The wait-free concurrency core (wfregs/concurrent), raced directly and
// differentially:
//
//   * WsDeque -- owner LIFO / thief FIFO discipline, owner-side growth, and
//     an exactly-once claim stress (owner popping against thief packs);
//   * ConcurrentInterner -- the two-phase claim protocol's exactly-once
//     publication under same-key races, growth (table chaining) keeping
//     every key findable, and the tombstone bound of publishing the
//     successor before sealing;
//   * StatsSnapshot -- the seqlock + double-collect read is a consistent
//     cut (a writer-maintained cross-counter invariant survives concurrent
//     collects; a torn read would break it), and the quiescent collect is
//     exact;
//   * the parallel explorer's machinery vs the sequential explorer,
//     bit-identical across the zoo x 1/2/8 threads.
//
// Iteration counts default low so tier-1 stays fast; the CI
// concurrent-stress job raises them under ThreadSanitizer through
// WFREGS_STRESS_ITERS (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "test_support.hpp"
#include "wfregs/concurrent/chunk_arena.hpp"
#include "wfregs/concurrent/hash.hpp"
#include "wfregs/concurrent/interner.hpp"
#include "wfregs/concurrent/snapshot.hpp"
#include "wfregs/concurrent/ws_deque.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using concurrent::ConcurrentInterner;
using concurrent::ContentionCounters;
using concurrent::StatsSnapshot;
using concurrent::WsDeque;
using testsup::folding_scenario;
using testsup::share;

/// Iteration multiplier: WFREGS_STRESS_ITERS when set (the CI stress job),
/// else a small default that keeps tier-1 quick.
int stress_rounds(int fallback) {
  if (const char* s = std::getenv("WFREGS_STRESS_ITERS")) {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return fallback;
}

// ---------------------------------------------------------------------------
// WsDeque

TEST(ConcurrentCoreDeque, OwnerPopsLifoThievesStealFifo) {
  WsDeque<int> dq;
  std::vector<int> items(8);
  std::iota(items.begin(), items.end(), 0);
  for (int& v : items) dq.push(&v);
  // Owner side: LIFO (DFS locality).
  for (int expect = 7; expect >= 4; --expect) {
    ASSERT_EQ(dq.pop(), &items[static_cast<std::size_t>(expect)]);
  }
  // Thief side: FIFO (oldest, largest subtrees first).
  ContentionCounters c;
  for (int expect = 0; expect <= 3; ++expect) {
    ASSERT_EQ(dq.steal(c), &items[static_cast<std::size_t>(expect)]);
  }
  EXPECT_EQ(dq.pop(), nullptr);
  EXPECT_EQ(dq.steal(c), nullptr);
  EXPECT_EQ(c.steal_attempts, 5u);  // 4 hits + the empty probe
  EXPECT_EQ(c.steals, 4u);
}

TEST(ConcurrentCoreDeque, GrowthPreservesEveryItem) {
  WsDeque<int> dq(2);  // force repeated owner-side growth
  const int n = 1000;
  std::vector<int> items(static_cast<std::size_t>(n));
  std::iota(items.begin(), items.end(), 0);
  for (int& v : items) dq.push(&v);
  EXPECT_EQ(dq.size_estimate(), static_cast<std::size_t>(n));
  for (int expect = n - 1; expect >= 0; --expect) {
    ASSERT_EQ(dq.pop(), &items[static_cast<std::size_t>(expect)]);
  }
  EXPECT_EQ(dq.pop(), nullptr);
}

TEST(ConcurrentCoreDeque, StealStressClaimsEachItemExactlyOnce) {
  const int rounds = stress_rounds(4);
  const int kItems = 2000;
  const int kThieves = 4;
  for (int round = 0; round < rounds; ++round) {
    WsDeque<int> dq(4);  // growth happens live, under thieves
    std::vector<int> items(static_cast<std::size_t>(kItems));
    std::iota(items.begin(), items.end(), 0);
    std::atomic<int> remaining{kItems};
    std::atomic<bool> start{false};
    std::vector<std::vector<int>> claimed(
        static_cast<std::size_t>(kThieves) + 1);

    std::vector<std::thread> thieves;
    for (int th = 0; th < kThieves; ++th) {
      thieves.emplace_back([&, th] {
        ContentionCounters c;
        while (!start.load(std::memory_order_acquire)) {}
        while (remaining.load(std::memory_order_acquire) > 0) {
          if (int* p = dq.steal(c)) {
            claimed[static_cast<std::size_t>(th)].push_back(*p);
            remaining.fetch_sub(1, std::memory_order_acq_rel);
          }
        }
      });
    }
    // The owner interleaves pushes with pops, as the explorer does.
    start.store(true, std::memory_order_release);
    for (int& v : items) dq.push(&v);
    while (remaining.load(std::memory_order_acquire) > 0) {
      if (int* p = dq.pop()) {
        claimed[static_cast<std::size_t>(kThieves)].push_back(*p);
        remaining.fetch_sub(1, std::memory_order_acq_rel);
      }
    }
    for (auto& t : thieves) t.join();

    std::vector<int> seen(static_cast<std::size_t>(kItems), 0);
    for (const auto& per_thread : claimed) {
      for (const int v : per_thread) seen[static_cast<std::size_t>(v)] += 1;
    }
    for (int v = 0; v < kItems; ++v) {
      ASSERT_EQ(seen[static_cast<std::size_t>(v)], 1)
          << "item " << v << " round " << round;
    }
  }
}

// ---------------------------------------------------------------------------
// ConcurrentInterner

std::vector<std::uint64_t> key_words(std::uint64_t i) {
  // Variable-length keys (1-3 words) exercise the inline-words layout.
  std::vector<std::uint64_t> w{i};
  if (i % 3 != 0) w.push_back(concurrent::splitmix64(i));
  if (i % 3 == 2) w.push_back(~i);
  return w;
}

TEST(ConcurrentCoreInterner, ClaimsOnceThenShares) {
  concurrent::ChunkArena arena;
  ConcurrentInterner<int> interner;
  ContentionCounters c;
  const auto words = key_words(7);
  const std::uint64_t h = concurrent::hash_words(words);
  const auto first = interner.intern(words, h, c, arena);
  ASSERT_NE(first.value, nullptr);
  EXPECT_TRUE(first.inserted);
  *first.value = 42;
  const auto again = interner.intern(words, h, c, arena);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.value, first.value);  // address-stable payload
  EXPECT_EQ(*again.value, 42);
  EXPECT_EQ(interner.size(), 1u);
  EXPECT_EQ(interner.find(words, h), first.value);
  const auto absent = key_words(8);
  EXPECT_EQ(interner.find(absent, concurrent::hash_words(absent)), nullptr);
}

TEST(ConcurrentCoreInterner, GrowthKeepsEveryKeyFindable) {
  // Tiny initial table: the chain grows many times; published keys stay in
  // their original table and every lookup still finds them.
  concurrent::ChunkArena arena;
  ConcurrentInterner<std::uint64_t> interner(8);
  ContentionCounters c;
  const std::uint64_t n = 5000;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto words = key_words(i);
    const auto r =
        interner.intern(words, concurrent::hash_words(words), c, arena);
    ASSERT_TRUE(r.inserted) << i;
    *r.value = i;
  }
  EXPECT_EQ(interner.size(), n);
  EXPECT_GT(interner.memory_bytes(), n * sizeof(std::uint64_t));
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto words = key_words(i);
    auto* v = interner.find(words, concurrent::hash_words(words));
    ASSERT_NE(v, nullptr) << i;
    EXPECT_EQ(*v, i);
  }
}

TEST(ConcurrentCoreInterner, PublishRacePublishesEachKeyExactlyOnce) {
  const int rounds = stress_rounds(4);
  const int kThreads = 8;
  const std::uint64_t kKeys = 512;
  for (int round = 0; round < rounds; ++round) {
    // Small initial table: same-key races and seal/growth races overlap.
    std::vector<concurrent::ChunkArena> arenas(kThreads);
    ConcurrentInterner<int> interner(8);
    std::vector<std::atomic<int>> inserted_count(kKeys);
    for (auto& a : inserted_count) a.store(0, std::memory_order_relaxed);
    std::vector<std::atomic<int*>> address(kKeys);
    for (auto& a : address) a.store(nullptr, std::memory_order_relaxed);
    std::atomic<bool> start{false};

    std::vector<std::thread> threads;
    for (int th = 0; th < kThreads; ++th) {
      threads.emplace_back([&, th] {
        ContentionCounters c;
        concurrent::ChunkArena& arena = arenas[static_cast<std::size_t>(th)];
        while (!start.load(std::memory_order_acquire)) {}
        // Every thread interns EVERY key, in a thread-dependent order, so
        // each key sees kThreads racing claimers.
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          const std::uint64_t i =
              (k * 7 + static_cast<std::uint64_t>(th) * 61) % kKeys;
          const auto words = key_words(i);
          const auto r =
              interner.intern(words, concurrent::hash_words(words), c, arena);
          ASSERT_NE(r.value, nullptr);
          if (r.inserted) {
            inserted_count[i].fetch_add(1, std::memory_order_relaxed);
          }
          int* expected = nullptr;
          if (!address[i].compare_exchange_strong(
                  expected, r.value, std::memory_order_acq_rel)) {
            // Someone recorded the payload first: ours must be the same.
            ASSERT_EQ(r.value, expected);
          }
        }
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& t : threads) t.join();

    EXPECT_EQ(interner.size(), kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_EQ(inserted_count[i].load(std::memory_order_relaxed), 1)
          << "key " << i << " round " << round;
    }
  }
}

TEST(ConcurrentCoreInterner, GrowthLeavesAtMostOneTombstonePerClaimer) {
  // 8 claimers from an 8-slot table through a dozen growths.  Each key is
  // either shared (every thread interns it) or private to one thread.  The
  // grower publishes the successor before sealing, so a claimer only
  // tombstones a slot when its reservation straddles the seal: at most
  // once per claimer per table.
  const int rounds = stress_rounds(2);
  const int kThreads = 8;
  const std::uint64_t kShared = 2048;
  const std::uint64_t kPrivate = 512;  // per thread
  const std::uint64_t kKeys = kShared + kThreads * kPrivate;
  for (int round = 0; round < rounds; ++round) {
    std::vector<concurrent::ChunkArena> arenas(kThreads);
    ConcurrentInterner<std::uint64_t> interner(8);
    std::vector<std::atomic<int>> inserted_count(kKeys);
    for (auto& a : inserted_count) a.store(0, std::memory_order_relaxed);
    std::atomic<bool> start{false};

    std::vector<std::thread> threads;
    for (int th = 0; th < kThreads; ++th) {
      threads.emplace_back([&, th] {
        ContentionCounters c;
        concurrent::ChunkArena& arena = arenas[static_cast<std::size_t>(th)];
        const auto t = static_cast<std::uint64_t>(th);
        while (!start.load(std::memory_order_acquire)) {}
        const auto intern_key = [&](std::uint64_t i) {
          const auto words = key_words(i);
          const auto r =
              interner.intern(words, concurrent::hash_words(words), c, arena);
          ASSERT_NE(r.value, nullptr);
          if (r.inserted) {
            *r.value = i;
            inserted_count[i].fetch_add(1, std::memory_order_relaxed);
          }
        };
        // Every shared key in a thread-dependent order, with this thread's
        // private keys interleaved (kShared / kPrivate == 4).
        for (std::uint64_t k = 0; k < kShared; ++k) {
          intern_key((k * 7 + t * 61) % kShared);
          if (k % 4 == 0) intern_key(kShared + t * kPrivate + k / 4);
        }
      });
    }
    start.store(true, std::memory_order_release);
    for (auto& th : threads) th.join();

    ASSERT_EQ(interner.size(), kKeys);
    for (std::uint64_t i = 0; i < kKeys; ++i) {
      ASSERT_EQ(inserted_count[i].load(std::memory_order_relaxed), 1)
          << "key " << i << " round " << round;
      const auto words = key_words(i);
      const std::uint64_t* v =
          interner.find(words, concurrent::hash_words(words));
      ASSERT_NE(v, nullptr) << "key " << i << " round " << round;
      EXPECT_EQ(*v, i);
    }
    const auto tables = interner.table_stats();
    ASSERT_GE(tables.size(), 11u) << "round " << round;
    std::size_t nodes = 0;
    for (std::size_t k = 0; k < tables.size(); ++k) {
      // Every table but the newest is sealed; the newest has no tombstones
      // to bound.
      EXPECT_LE(tables[k].tombstones, static_cast<std::size_t>(kThreads))
          << "table " << k << " of " << tables[k].slots << " slots, round "
          << round;
      nodes += tables[k].nodes;
    }
    EXPECT_EQ(nodes, kKeys);
  }
}

// ---------------------------------------------------------------------------
// StatsSnapshot

TEST(ConcurrentCoreSnapshot, CollectIsAConsistentCutUnderWrites) {
  // Each writer maintains counter[1] == 2 * counter[0] in every published
  // record.  The invariant is linear, so it also holds for the summed
  // totals of any consistent cut -- while a torn read (mixing halves of
  // two publications) would break it.  tier-1 runs a short burst; the CI
  // stress job runs it long under TSan.
  const int publishes = 2000 * stress_rounds(1);
  const std::size_t kWriters = 3;
  StatsSnapshot stats(kWriters, 2);
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&stats, w, publishes] {
      auto writer = stats.writer(w);
      for (int i = 0; i < publishes; ++i) {
        writer.add(0, 1);
        writer.add(1, 2);
        writer.publish();
      }
    });
  }
  std::uint64_t collects = 0;
  ContentionCounters c;
  while (!done.load(std::memory_order_acquire)) {
    const auto totals = stats.collect(&c);
    ASSERT_EQ(totals.size(), 2u);
    ASSERT_EQ(totals[1], 2 * totals[0])
        << "torn snapshot after " << collects << " collects";
    ASSERT_LE(totals[0], static_cast<std::uint64_t>(publishes) * kWriters);
    ++collects;
    if (totals[0] == static_cast<std::uint64_t>(publishes) * kWriters) break;
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);

  // Quiescent: the collect is exact and retry-free.
  const auto final_totals = stats.collect();
  EXPECT_EQ(final_totals[0], static_cast<std::uint64_t>(publishes) * kWriters);
  EXPECT_EQ(final_totals[1],
            2 * static_cast<std::uint64_t>(publishes) * kWriters);
}

TEST(ConcurrentCoreSnapshot, SetOverwritesAndUnpublishedStagingIsInvisible) {
  StatsSnapshot stats(2, 3);
  auto w0 = stats.writer(0);
  auto w1 = stats.writer(1);
  w0.add(0, 5);
  w0.set(2, 99);
  // Nothing published yet: the cut is all zeros.
  EXPECT_EQ(stats.collect(), (std::vector<std::uint64_t>{0, 0, 0}));
  w0.publish();
  w1.add(0, 1);
  w1.publish();
  EXPECT_EQ(stats.collect(), (std::vector<std::uint64_t>{6, 0, 99}));
  w0.set(2, 100);  // monotone overwrite, republished as one record
  w0.publish();
  EXPECT_EQ(stats.collect(), (std::vector<std::uint64_t>{6, 0, 100}));
}

// ---------------------------------------------------------------------------
// Differential: the parallel engine (at any thread count, one included) vs
// the sequential explorer.

void ExpectIdentical(const ExploreOutcome& seq, const ExploreOutcome& par,
                     const std::string& what) {
  EXPECT_EQ(seq.wait_free, par.wait_free) << what;
  EXPECT_EQ(seq.complete, par.complete) << what;
  EXPECT_EQ(seq.violation, par.violation) << what;
  EXPECT_EQ(seq.stats.configs, par.stats.configs) << what;
  EXPECT_EQ(seq.stats.edges, par.stats.edges) << what;
  EXPECT_EQ(seq.stats.terminals, par.stats.terminals) << what;
  EXPECT_EQ(seq.stats.depth, par.stats.depth) << what;
  EXPECT_EQ(seq.stats.max_accesses, par.stats.max_accesses) << what;
  EXPECT_EQ(seq.stats.max_accesses_by_inv, par.stats.max_accesses_by_inv)
      << what;
  EXPECT_EQ(par.stats.interned_configs, par.stats.configs) << what;
}

TEST(ConcurrentCoreDifferential, EnginesMatchSequentialAcrossReductions) {
  const std::vector<std::pair<std::string, TypeSpec>> workloads = [] {
    std::vector<std::pair<std::string, TypeSpec>> out;
    out.emplace_back("register(3,2)", zoo::register_type(3, 2));
    out.emplace_back("cas(2,2)", zoo::cas_type(2, 2));
    out.emplace_back("fetch_and_add(4,2)", zoo::fetch_and_add_type(4, 2));
    out.emplace_back("queue(2,2,2)", zoo::queue_type(2, 2, 2));
    out.emplace_back("sticky_bit(2)", zoo::sticky_bit_type(2));
    out.emplace_back("nondet_coin(2)", zoo::nondet_coin_type(2));
    return out;
  }();
  constexpr int kThreadCounts[] = {1, 2, 8};
  // Deterministic outcome, so extra rounds only buy TSan more
  // interleavings: a few are enough even in the stress lane.
  const int rounds = std::min(stress_rounds(1), 4);

  for (const auto& [name, spec] : workloads) {
    const Engine root = folding_scenario(share(TypeSpec{spec}));
    ExploreOptions options;
    options.limits.track_access_bounds = true;
    options.limits.stop_at_violation = false;
    const auto seq = explore(root, options);
    ASSERT_TRUE(seq.complete) << name;
    for (int round = 0; round < rounds; ++round) {
      for (const int threads : kThreadCounts) {
        ExpectIdentical(
            seq, detail::explore_parallel_lockfree(root, {}, options, threads),
            name + " @ " + std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(ConcurrentCoreDifferential, LockFreeEngineReportsContention) {
  // A broad frontier at 8 workers: the idle workers' steal loops must
  // actually run (steal_attempts is the floor the E17 suite gates on).
  const Engine root = folding_scenario(share(zoo::register_type(3, 3)));
  ExploreOptions options;
  options.limits.stop_at_violation = false;
  const auto out = detail::explore_parallel_lockfree(root, {}, options, 8);
  ASSERT_TRUE(out.complete);
  EXPECT_GT(out.contention.steal_attempts, 0u);
  // Sequential exploration reports zero contention by construction.
  const auto seq = explore(root, options);
  EXPECT_EQ(seq.contention.cas_retries, 0u);
  EXPECT_EQ(seq.contention.steal_attempts, 0u);
  EXPECT_EQ(seq.contention.snapshot_retries, 0u);
}

}  // namespace
}  // namespace wfregs
