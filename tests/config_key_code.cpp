// The configuration-key byte code (KeyPacker, config_intern.hpp; format at
// ConfigKey in engine.hpp).  The explorers never decode a key, so the
// decoder lives here only: it is the reference the packer is held to.
//
// Properties under test: packing round-trips, distinct value sequences
// never pack to the same words (zero padding included), word-vector order
// equals value-sequence order, and one engine configuration packs to a
// pinned golden value, so a format change fails here and not only in RSS.
#include "wfregs/runtime/config_intern.hpp"

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "wfregs/runtime/engine.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using Values = std::vector<std::uint64_t>;

constexpr std::uint64_t kOneByte = KeyPacker::kOneByte;
constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// The boundaries of the code: one-byte limit, tag widths 1, 2, 7 and 8.
const Values kBoundaries = {0,      1,          kOneByte - 1,
                            kOneByte, 0xFF,     0x100,
                            0xFFFF, 0x10000,    (std::uint64_t{1} << 56) - 1,
                            std::uint64_t{1} << 56, kMax - 1, kMax};

Values pack(const Values& values) {
  Values words;
  KeyPacker packer(words);
  for (const std::uint64_t v : values) packer.put(v);
  packer.finish();
  return words;
}

/// Inverse of pack(); nullopt unless `words` is exactly one well-formed
/// code: the terminator lies in the last word and only zeros follow it.
std::optional<Values> unpack(std::span<const std::uint64_t> words) {
  const std::size_t nbytes = words.size() * 8;
  const auto byte_at = [&words](std::size_t i) -> std::uint64_t {
    return (words[i / 8] >> (56 - 8 * (i % 8))) & 0xFF;
  };
  Values values;
  std::size_t i = 0;
  while (i < nbytes) {
    const std::uint64_t b = byte_at(i++);
    if (b == 0) {
      if (i + 8 <= nbytes) return std::nullopt;  // a whole word past the end
      for (; i < nbytes; ++i) {
        if (byte_at(i) != 0) return std::nullopt;
      }
      return values;
    }
    if (b <= kOneByte) {
      values.push_back(b - 1);
      continue;
    }
    const std::size_t n = static_cast<std::size_t>(b - kOneByte);
    if (i + n > nbytes) return std::nullopt;
    std::uint64_t v = 0;
    for (std::size_t k = 0; k < n; ++k) v = (v << 8) | byte_at(i++);
    // Canonical width only: the value needs all n bytes and no fewer.
    if (v < kOneByte || (n > 1 && (v >> (8 * (n - 1))) == 0)) {
      return std::nullopt;
    }
    values.push_back(v);
  }
  return std::nullopt;  // no terminator
}

/// A random value: mostly small, with every tag width and every boundary
/// represented.
std::uint64_t random_value(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return rng() % kOneByte;
    case 1:
      return kBoundaries[rng() % kBoundaries.size()];
    case 2:
      return rng() >> (rng() % 64);
    default:
      return rng() % 0x300;
  }
}

Values random_values(std::mt19937_64& rng, std::size_t max_len) {
  Values v(rng() % (max_len + 1));
  for (auto& x : v) x = random_value(rng);
  return v;
}

/// Every sequence of length <= max_len over `alphabet`.
std::vector<Values> all_sequences(const Values& alphabet, std::size_t max_len) {
  std::vector<Values> out = {{}};
  for (std::size_t begin = 0, len = 0; len < max_len; ++len) {
    const std::size_t end = out.size();
    for (std::size_t k = begin; k < end; ++k) {
      for (const std::uint64_t a : alphabet) {
        Values longer = out[k];
        longer.push_back(a);
        out.push_back(std::move(longer));
      }
    }
    begin = end;
  }
  return out;
}

int sign(bool less, bool greater) { return less ? -1 : (greater ? 1 : 0); }

TEST(ConfigKeyCode, BoundaryValuesTakeTheirWidth) {
  // (value, packed bytes): one byte below kOneByte, else tag + n bytes.
  const struct {
    std::uint64_t value;
    std::size_t bytes;
  } cases[] = {{0, 1},
               {kOneByte - 1, 1},
               {kOneByte, 2},
               {0xFF, 2},
               {0x100, 3},
               {(std::uint64_t{1} << 56) - 1, 8},
               {std::uint64_t{1} << 56, 9},
               {kMax, 9}};
  for (const auto& c : cases) {
    // Seven copies plus the terminator: the byte count is 7 * bytes + 1.
    const Values words = pack(Values(7, c.value));
    EXPECT_EQ(words.size(), (7 * c.bytes + 1 + 7) / 8) << c.value;
    EXPECT_EQ(unpack(words), Values(7, c.value)) << c.value;
  }
  EXPECT_EQ(pack({}), Values{0});
  EXPECT_EQ(pack({0}), Values{0x0100000000000000ull});
  EXPECT_EQ(pack({kOneByte}), Values{0xF8F7000000000000ull});
  EXPECT_EQ(pack({kMax}),
            (Values{0xFFFFFFFFFFFFFFFFull, 0xFF00000000000000ull}));
  EXPECT_EQ(pack({1, 2, 3, 4, 5, 6, 7}), Values{0x0203040506070800ull});
  EXPECT_EQ(pack({1, 2, 3, 4, 5, 6, 7, 8}),
            (Values{0x0203040506070809ull, 0}));
}

TEST(ConfigKeyCode, RandomSequencesRoundTrip) {
  std::mt19937_64 rng(20240611);
  for (int round = 0; round < 5000; ++round) {
    const Values values = random_values(rng, 48);
    const auto back = unpack(pack(values));
    ASSERT_TRUE(back.has_value()) << "round " << round;
    EXPECT_EQ(*back, values) << "round " << round;
  }
  for (const Values& values : all_sequences(kBoundaries, 3)) {
    EXPECT_EQ(unpack(pack(values)), values);
  }
}

TEST(ConfigKeyCode, DistinctSequencesNeverShareWords) {
  // Exhaustive over short sequences of boundary values, zero included, so
  // every "v, then zeros that look like padding" pair is covered.
  std::map<Values, Values> seen;
  for (const Values& values : all_sequences(kBoundaries, 3)) {
    const auto [it, inserted] = seen.emplace(pack(values), values);
    EXPECT_TRUE(inserted) << "two sequences share packed words";
  }
  // Trailing zero values fill padding bytes exactly: still distinct.
  std::mt19937_64 rng(77);
  for (int round = 0; round < 2000; ++round) {
    const Values base = random_values(rng, 20);
    Values padded = base;
    for (int z = 1; z <= 9; ++z) {
      padded.push_back(0);
      EXPECT_NE(pack(base), pack(padded)) << "round " << round << " +" << z;
    }
  }
}

TEST(ConfigKeyCode, WordOrderIsValueOrder) {
  const auto check = [](const Values& a, const Values& b) {
    const Values pa = pack(a);
    const Values pb = pack(b);
    ASSERT_EQ(sign(pa < pb, pb < pa), sign(a < b, b < a));
  };
  // Random pairs that share a prefix, then diverge or end (a proper prefix
  // must still order first).
  std::mt19937_64 rng(4242);
  for (int round = 0; round < 20000; ++round) {
    const Values prefix = random_values(rng, 30);
    Values a = prefix;
    Values b = prefix;
    for (const std::uint64_t v : random_values(rng, 3)) a.push_back(v);
    for (const std::uint64_t v : random_values(rng, 3)) b.push_back(v);
    check(a, b);
  }
  const std::vector<Values> all = all_sequences(kBoundaries, 2);
  for (const Values& a : all) {
    for (const Values& b : all) check(a, b);
  }
}

TEST(ConfigKeyCode, EngineConfigurationGolden) {
  // Two processes fold fetch&add responses; after one step each, the key
  // holds a pending access per process, the env handles split into gid and
  // port + 1, and the top-level frames' result register -1 (2^64 - 1, the
  // widest code).
  Engine e = testsup::folding_scenario(
      testsup::share(zoo::fetch_and_add_type(4, 2)));
  e.commit(0);
  e.commit(1);
  const Values words = e.config_key().words;

  // The fields, in emission order (Engine::emit_key).
  const Values fields = {
      2,                    // fetch&add state
      // process 0: running, no result, pending access (gid, port, inv, reg)
      0, 0, 1, 0, 0, 0, 0,
      1,                    // one frame
      0, 4, 2,              // program id, pc, two registers
      0, 1,                 // r0 = response, r1 = folded value
      kMax,                 // result register in parent: -1
      0, 1,                 // env: gid 0, port 0 + 1
      // process 1
      0, 0, 1, 0, 1, 0, 0,
      1,
      1, 4, 2,
      1, 2,
      kMax,
      0, 2};
  EXPECT_EQ(unpack(words), fields);
  EXPECT_EQ(words, (Values{0x0301010201010101ull, 0x020105030102FFFFull,
                           0xFFFFFFFFFFFFFF01ull, 0x0201010201020101ull,
                           0x020205030203FFFFull, 0xFFFFFFFFFFFFFF01ull,
                           0x0300000000000000ull}));
}

}  // namespace
}  // namespace wfregs
