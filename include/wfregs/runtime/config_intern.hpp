// Configuration interning: the explorers' memo-table substrate.
//
// A ConfigKey is a short vector of 64-bit words.  A node-based memo table
// (std::unordered_map<ConfigKey, ...>) pays one heap allocation for the key
// vector plus one for the map node on every distinct configuration, and an
// FNV-1a key hash mixes words weakly (sequential small-integer words --
// exactly what configuration keys are made of -- land in clustered
// buckets).  This header provides the replacement:
//
//   * config_mix64 / config_hash_words -- a splitmix64-style per-word mixer
//     with full 64-bit avalanche, shared by ConfigKeyHash and the interners
//     so one hash computation serves probing and caching;
//   * ConfigInterner -- an arena pool that stores every distinct key's
//     words contiguously and maps each key to a dense u32 id through an
//     open-addressing flat table (power-of-two capacity, linear probing,
//     cached full hashes).  Ids are assigned in insertion order, so the
//     sequential explorer's node ids are deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "wfregs/concurrent/hash.hpp"

namespace wfregs {

/// splitmix64 finalizer: a bijective full-avalanche 64-bit mixer.  The
/// canonical definition is concurrent::mix64 (wfregs/concurrent/hash.hpp);
/// these names are kept as thin aliases so the runtime layer's historical
/// call sites -- and any hash value ever persisted by them -- stay exactly
/// what they were.
constexpr std::uint64_t config_mix64(std::uint64_t x) noexcept {
  return concurrent::mix64(x);
}

/// Hash of a word sequence (alias of concurrent::hash_words): every word is
/// mixed through config_mix64 before entering the chain, so single-bit and
/// small-integer differences anywhere in the key avalanche across the whole
/// output.
constexpr std::uint64_t config_hash_words(
    std::span<const std::uint64_t> words) noexcept {
  return concurrent::hash_words(words);
}

/// Arena-pooled key -> dense id map (see the header comment): the
/// sequential explorer's in-RAM key store.  Not thread-safe (the parallel
/// explorer uses concurrent::ConcurrentInterner).
class ConfigInterner {
 public:
  static constexpr std::uint32_t kNotFound = 0xffffffffu;

  ConfigInterner();

  /// Id of `words` (whose hash is `hash`), or kNotFound.
  std::uint32_t find(std::span<const std::uint64_t> words,
                     std::uint64_t hash) const noexcept;

  /// Id of `words`, inserting when absent.  New ids are dense and assigned
  /// in insertion order: the n-th distinct key gets id n-1.
  std::uint32_t intern(std::span<const std::uint64_t> words,
                       std::uint64_t hash);

  /// Number of distinct keys interned.
  std::size_t size() const { return starts_.size() - 1; }

  /// The words of key `id` (valid until the next intern()).
  std::span<const std::uint64_t> operator[](std::uint32_t id) const {
    const std::size_t b = starts_[id];
    return {arena_.data() + b, starts_[id + 1] - b};
  }

  /// Bytes held by the arena, offsets, hash cache and probe table --
  /// the bench layer's memory accounting.
  std::size_t memory_bytes() const;

 private:
  void grow();

  /// All interned keys' words, concatenated in id order.
  std::vector<std::uint64_t> arena_;
  /// starts_[id] .. starts_[id+1]: key id's slice of arena_ (sentinel last).
  std::vector<std::size_t> starts_;
  /// Cached full hash per id (rehash-free growth, cheap probe rejection).
  std::vector<std::uint64_t> hashes_;
  /// Open-addressing probe table of id+1 values (0 = empty slot);
  /// power-of-two size, linear probing.
  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
};

}  // namespace wfregs
