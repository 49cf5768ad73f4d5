// The repo's ONE splitmix64 mixer and word-sequence hash.
//
// Runtime and service call it through thin compatibility aliases
// (config_mix64 / config_hash_words in config_intern.hpp), so every hashing
// site -- interner probes, shard selection, JobKeys -- agrees on the exact
// same avalanche.
#pragma once

#include <cstdint>
#include <span>

namespace wfregs::concurrent {

/// splitmix64 finalizer: a bijective full-avalanche 64-bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

/// One full splitmix64 step -- the golden-ratio increment followed by the
/// finalizer -- a deterministic pseudo-random stream for seeded tests.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  return mix64(x + 0x9e3779b97f4a7c15ULL);
}

/// Hash of a word sequence: every word is mixed through mix64 before
/// entering the chain, so single-bit and small-integer differences anywhere
/// in the key avalanche across the whole output.
constexpr std::uint64_t hash_words(
    std::span<const std::uint64_t> words) noexcept {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ words.size();
  for (const std::uint64_t w : words) {
    h = mix64(h ^ mix64(w));
  }
  return h;
}

}  // namespace wfregs::concurrent
