// Tests for the compiled execution core: Engine::apply/revert undo
// exactness, the ConfigInterner memo substrate, the splitmix-style key hash,
// the differential holding explore() and explore_parallel to the naive
// oracle (explore_oracle.hpp), and the pinned DFS-order outcomes of aborted
// runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <numeric>
#include <sstream>
#include <vector>

#include "explore_oracle.hpp"
#include "test_support.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/runtime/config_intern.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/typesys/random_type.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::make_impl;
using testsup::one_shot;
using testsup::folding_scenario;
using testsup::share;

/// Every observable facet of an engine configuration, serialized: the
/// configuration key (object states, process program state, persistent
/// blocks), the commit clock, per-object access counters, and the full
/// history text.  Two engines with equal fingerprints are indistinguishable
/// to every consumer in this library.
std::string fingerprint(const Engine& e) {
  std::ostringstream os;
  for (const std::uint64_t w : e.config_key().words) os << w << ',';
  os << "|t" << e.time();
  const System& sys = e.system();
  for (ObjectId g = 0; g < sys.num_objects(); ++g) {
    if (!sys.is_base(g)) continue;
    os << "|g" << g << ':' << e.object_state(g) << ':' << e.access_count(g);
    const int invs = sys.base(g).spec->num_invocations();
    for (InvId i = 0; i < invs; ++i) os << ',' << e.access_count(g, i);
  }
  os << "|h" << e.history().to_string();
  return os.str();
}

/// Symmetric scenario over one shared instance of `t`: every process runs
/// the SAME program object, performing two invocations and folding
/// responses into local state per the memoization contract.
Engine symmetric_scenario(std::shared_ptr<const TypeSpec> t) {
  const int n = t->ports();
  const int invs = t->num_invocations();
  auto sys = std::make_shared<System>(n);
  std::vector<PortId> ports(static_cast<std::size_t>(n));
  std::iota(ports.begin(), ports.end(), 0);
  const ObjectId obj = sys->add_base(std::move(t), 0, ports);
  ProgramBuilder b;
  b.assign(1, lit(0));
  for (int k = 0; k < 2; ++k) {
    b.invoke(0, lit(k % invs), 0);
    b.assign(1, reg(1) * lit(1 << 20) + reg(0) + lit(1));
  }
  b.ret(reg(1));
  const ProgramRef prog = b.build("sym");
  for (ProcId p = 0; p < n; ++p) sys->set_toplevel(p, prog, {obj});
  return Engine{std::move(sys)};
}

/// Implemented-object scenario exercising everything the undo journal must
/// cover beyond base state: history begin/end, frame stacks, and per-port
/// persistent write-backs (each port counts its own calls in persistent
/// register 0).
Engine persistent_scenario() {
  const zoo::RegisterLayout lay{2};
  auto impl = make_impl("percall", share(zoo::mod_counter_type(8, 2)), 0);
  const int scratch = impl->add_base(share(zoo::bit_type(2)), 0, {0, 1});
  impl->set_persistent({0});
  {
    ProgramBuilder b;
    b.invoke(scratch, lit(lay.read()), 1);
    b.assign(0, reg(0) + lit(1));
    b.ret(reg(0));
    impl->set_program_all_ports(0, b.build("count"));
  }
  auto sys = std::make_shared<System>(2);
  const ObjectId obj = sys->add_implemented(impl, {0, 1});
  for (ProcId p = 0; p < 2; ++p) {
    ProgramBuilder b;
    b.invoke(0, lit(0), 0);
    b.invoke(0, lit(0), 1);
    b.ret(reg(1));
    sys->set_toplevel(p, b.build("driver" + std::to_string(p)), {obj});
  }
  return Engine{std::move(sys)};
}

/// One process spinning on a bit nobody sets: a configuration cycle, the
/// explorers' Koenig's-lemma abort path.
Engine spinner_scenario() {
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(1);
  const ObjectId b = sys->add_base(share(zoo::bit_type(1)), 0, {0});
  ProgramBuilder pb;
  const Label loop = pb.bind_here();
  pb.invoke(0, lit(lay.read()), 0);
  pb.branch_if(reg(0) == lit(0), loop);
  pb.ret(lit(1));
  sys->set_toplevel(0, pb.build("spinner"), {b});
  return Engine{std::move(sys)};
}

std::uint64_t lcg(std::uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s >> 33;
}

// ---- Engine::apply / Engine::revert ------------------------------------------

/// At every configuration along a seeded random walk, every enabled
/// (process, choice) edge is applied and reverted: apply must observe
/// exactly what commit on a copied engine observes, and revert must restore
/// the pre-apply fingerprint bit for bit.
void check_apply_revert_walk(const Engine& root, std::uint64_t seed,
                             int max_steps) {
  Engine e = root;
  std::uint64_t s = seed;
  Engine::UndoRecord undo;  // reused across every apply/revert pair
  for (int step = 0; step < max_steps && !e.all_done(); ++step) {
    const std::string before = fingerprint(e);
    const auto runnable = e.runnable();
    for (const ProcId p : runnable) {
      const int width = e.pending_choices(p);
      for (int c = 0; c < width; ++c) {
        Engine ref = e;
        const Engine::CommitInfo want = ref.commit(p, c);
        const Engine::CommitInfo got = e.apply(p, c, undo);
        EXPECT_EQ(want.object, got.object);
        EXPECT_EQ(want.port, got.port);
        EXPECT_EQ(want.inv, got.inv);
        EXPECT_EQ(want.resp, got.resp);
        ASSERT_EQ(fingerprint(e), fingerprint(ref))
            << "apply diverged from commit at step " << step << ", p=" << p
            << ", c=" << c;
        e.revert(undo);
        ASSERT_EQ(fingerprint(e), before)
            << "revert did not restore at step " << step << ", p=" << p
            << ", c=" << c;
      }
    }
    const ProcId p = runnable[lcg(s) % runnable.size()];
    e.commit(p, static_cast<int>(lcg(s) %
                                 static_cast<std::uint64_t>(
                                     e.pending_choices(p))));
  }
}

TEST(UndoRoundTrip, NondeterministicBaseScenario) {
  check_apply_revert_walk(symmetric_scenario(share(zoo::nondet_coin_type(2))),
                          7, 64);
}

TEST(UndoRoundTrip, ConsensusScenario) {
  check_apply_revert_walk(folding_scenario(share(zoo::consensus_type(2))),
                          11, 64);
}

TEST(UndoRoundTrip, ImplementedObjectWithPersistentState) {
  check_apply_revert_walk(persistent_scenario(), 13, 64);
}

TEST(UndoRoundTrip, RandomTypes) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    RandomTypeParams params;
    params.ports = 2 + static_cast<int>(seed % 2);
    params.num_states = 3 + static_cast<int>(seed % 3);
    params.num_invocations = 2 + static_cast<int>(seed % 2);
    params.branching = 1 + static_cast<int>(seed % 2);
    check_apply_revert_walk(
        folding_scenario(share(random_type(params, seed))), seed, 32);
  }
}

TEST(UndoRoundTrip, LifoChainUnwindsToRoot) {
  const Engine root = persistent_scenario();
  const std::string origin = fingerprint(root);
  Engine e = root;
  Engine ref = root;
  std::uint64_t s = 5;
  std::vector<std::unique_ptr<Engine::UndoRecord>> chain;
  while (!e.all_done()) {
    const auto runnable = e.runnable();
    const ProcId p = runnable[lcg(s) % runnable.size()];
    const int c = static_cast<int>(
        lcg(s) % static_cast<std::uint64_t>(e.pending_choices(p)));
    chain.push_back(std::make_unique<Engine::UndoRecord>());
    e.apply(p, c, *chain.back());
    ref.commit(p, c);
  }
  ASSERT_FALSE(chain.empty());
  EXPECT_EQ(fingerprint(e), fingerprint(ref));
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) e.revert(**it);
  EXPECT_EQ(fingerprint(e), origin);
}

TEST(UndoRoundTrip, RevertingAnUnusedRecordThrows) {
  Engine e = spinner_scenario();
  Engine::UndoRecord undo;
  EXPECT_THROW(e.revert(undo), std::logic_error);
  e.apply(0, 0, undo);
  e.revert(undo);
  // Consumed: a second revert of the same record must throw too.
  EXPECT_THROW(e.revert(undo), std::logic_error);
}

// ---- ConfigInterner ----------------------------------------------------------

std::vector<std::uint64_t> key_words(std::uint64_t i) {
  // Variable lengths to exercise the length check in probe comparison.
  std::vector<std::uint64_t> w{i, i * i + 3, 12345};
  if (i % 3 == 0) w.push_back(i ^ 0xabcdef);
  return w;
}

TEST(ConfigInterner, DenseInsertionOrderIds) {
  ConfigInterner pool;
  EXPECT_EQ(pool.size(), 0u);
  const std::vector<std::uint64_t> a{1, 2, 3};
  const std::vector<std::uint64_t> b{1, 2, 4};
  const std::uint64_t ha = config_hash_words(a);
  const std::uint64_t hb = config_hash_words(b);
  EXPECT_EQ(pool.find(a, ha), ConfigInterner::kNotFound);
  EXPECT_EQ(pool.intern(a, ha), 0u);
  EXPECT_EQ(pool.intern(b, hb), 1u);
  EXPECT_EQ(pool.intern(a, ha), 0u);  // idempotent
  EXPECT_EQ(pool.find(b, hb), 1u);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_TRUE(std::ranges::equal(pool[0], a));
  EXPECT_TRUE(std::ranges::equal(pool[1], b));
  // Same prefix, different length: distinct keys (no aliasing).
  const std::vector<std::uint64_t> c{1, 2};
  EXPECT_EQ(pool.intern(c, config_hash_words(c)), 2u);
}

TEST(ConfigInterner, GrowthKeepsIdsAndLookups) {
  ConfigInterner pool;
  constexpr std::uint64_t kKeys = 500;  // forces several doublings from 64
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const auto w = key_words(i);
    ASSERT_EQ(pool.intern(w, config_hash_words(w)), i);
  }
  EXPECT_EQ(pool.size(), kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    const auto w = key_words(i);
    ASSERT_EQ(pool.find(w, config_hash_words(w)), i) << "key " << i;
    ASSERT_TRUE(std::ranges::equal(pool[static_cast<std::uint32_t>(i)], w));
  }
  EXPECT_GT(pool.memory_bytes(),
            kKeys * 3 * sizeof(std::uint64_t));  // at least the arena words
}

// ---- the key hash ------------------------------------------------------------

TEST(ConfigHash, SmallIntegerKeysNeitherCollideNorCluster) {
  // Configuration key words are exactly this: small sequential integers in
  // every position.  The old FNV-1a chain clustered them; the splitmix
  // mixer must produce zero collisions over the full 21^3 grid and spread
  // the low bits (which pick the 64 parallel shards) evenly.
  std::vector<std::uint64_t> hashes;
  std::array<int, 64> shard_load{};
  for (std::uint64_t a = 0; a <= 20; ++a) {
    for (std::uint64_t b = 0; b <= 20; ++b) {
      for (std::uint64_t c = 0; c <= 20; ++c) {
        const std::array<std::uint64_t, 3> words{a, b, c};
        const std::uint64_t h = config_hash_words(words);
        hashes.push_back(h);
        ++shard_load[h % 64];
      }
    }
  }
  std::ranges::sort(hashes);
  EXPECT_EQ(std::adjacent_find(hashes.begin(), hashes.end()), hashes.end())
      << "hash collision among small-integer keys";
  const int expected = static_cast<int>(hashes.size()) / 64;
  for (int shard = 0; shard < 64; ++shard) {
    EXPECT_LT(shard_load[shard], 2 * expected)
        << "shard " << shard << " is overloaded";
    EXPECT_GT(shard_load[shard], expected / 2)
        << "shard " << shard << " is starved";
  }
}

TEST(ConfigHash, LengthIsPartOfTheKey) {
  const std::vector<std::uint64_t> zero1{0};
  const std::vector<std::uint64_t> zero2{0, 0};
  EXPECT_NE(config_hash_words(zero1), config_hash_words(zero2));
}

TEST(ConfigHash, ConfigKeyHashAgreesWithWordHash) {
  const Engine e = persistent_scenario();
  const ConfigKey key = e.config_key();
  EXPECT_EQ(ConfigKeyHash{}(key),
            static_cast<std::size_t>(config_hash_words(key.words)));
}

// ---- the explorers vs the naive oracle ---------------------------------------

void expect_same_outcome(const ExploreOutcome& want, const ExploreOutcome& got,
                         const std::string& what) {
  EXPECT_EQ(want.wait_free, got.wait_free) << what;
  EXPECT_EQ(want.complete, got.complete) << what;
  EXPECT_EQ(want.violation, got.violation) << what;
  EXPECT_EQ(want.stats.configs, got.stats.configs) << what;
  EXPECT_EQ(want.stats.edges, got.stats.edges) << what;
  EXPECT_EQ(want.stats.terminals, got.stats.terminals) << what;
  EXPECT_EQ(want.stats.depth, got.stats.depth) << what;
  EXPECT_EQ(want.stats.max_accesses, got.stats.max_accesses) << what;
  EXPECT_EQ(want.stats.max_accesses_by_inv, got.stats.max_accesses_by_inv)
      << what;
  EXPECT_EQ(got.stats.interned_configs, got.stats.configs)
      << what << ": intern pool occupancy must track the configs counter";
}

/// Holds explore(), and explore_parallel at 2 and 8 threads, to the oracle
/// on one scenario: the sequential explorer must reproduce the oracle's
/// verdict and counters exactly, and the parallel engine must be
/// bit-identical to the sequential one.
void expect_matches_oracle(const Engine& root, const std::string& name,
                           const TerminalCheck& check = {}) {
  const testsup::OracleOutcome want = testsup::oracle_explore(root, check);
  ASSERT_TRUE(want.complete) << name << ": oracle configuration cap hit";
  ExploreLimits limits;
  limits.track_access_bounds = true;
  limits.stop_at_violation = false;
  const ExploreOutcome got = explore(root, limits, check);
  EXPECT_EQ(got.wait_free, want.wait_free) << name;
  EXPECT_TRUE(got.complete) << name;
  if (want.wait_free) {
    EXPECT_EQ(got.stats.depth, want.depth) << name;
    EXPECT_EQ(got.stats.max_accesses, want.max_accesses) << name;
    EXPECT_EQ(got.stats.max_accesses_by_inv, want.max_accesses_by_inv)
        << name;
    EXPECT_EQ(got.violation.has_value(), !want.violations.empty()) << name;
    if (got.violation) {
      EXPECT_TRUE(want.violations.contains(*got.violation))
          << name << ": " << *got.violation;
    }
    EXPECT_EQ(got.stats.configs, want.configs) << name;
    EXPECT_EQ(got.stats.edges, want.edges) << name;
    EXPECT_EQ(got.stats.terminals, want.terminals) << name;
  }
  for (const int threads : {2, 8}) {
    expect_same_outcome(got, explore_parallel(root, check, limits, threads),
                        name + " threads " + std::to_string(threads));
  }
}

/// Agreement + validity on the results of a consensus scenario: a
/// configuration-only check, so the first reported violation is a
/// function of the DFS order alone.
TerminalCheck consensus_check(std::vector<int> inputs) {
  return [inputs](const Engine& e) -> std::optional<std::string> {
    const Val decided = *e.result(0);
    for (ProcId p = 0; p < static_cast<ProcId>(inputs.size()); ++p) {
      if (*e.result(p) != decided) {
        return "disagreement at p" + std::to_string(p);
      }
    }
    if (std::ranges::find(inputs, static_cast<int>(decided)) ==
        inputs.end()) {
      return "decided a value nobody proposed";
    }
    return std::nullopt;
  };
}

TEST(ExplorerVsOracle, ZooScenarios) {
  std::vector<std::pair<std::string, TypeSpec>> zoo_types;
  zoo_types.emplace_back("register(3,2)", zoo::register_type(3, 2));
  zoo_types.emplace_back("bit(2)", zoo::bit_type(2));
  zoo_types.emplace_back("mrsw_register(2,2)",
                         zoo::mrsw_register_type(2, 2));
  zoo_types.emplace_back("regular_bit",
                         zoo::weak_bit_type(zoo::WeakBitKind::kRegular));
  zoo_types.emplace_back("consensus(2)", zoo::consensus_type(2));
  zoo_types.emplace_back("test_and_set(2)", zoo::test_and_set_type(2));
  zoo_types.emplace_back("fetch_and_add(4,2)", zoo::fetch_and_add_type(4, 2));
  zoo_types.emplace_back("cas(2,2)", zoo::cas_type(2, 2));
  zoo_types.emplace_back("queue(2,2,2)", zoo::queue_type(2, 2, 2));
  zoo_types.emplace_back("snapshot(2,2)", zoo::snapshot_type(2, 2));
  zoo_types.emplace_back("nondet_coin(2)", zoo::nondet_coin_type(2));
  zoo_types.emplace_back("sticky_bit(2)", zoo::sticky_bit_type(2));
  for (auto& [name, t] : zoo_types) {
    expect_matches_oracle(folding_scenario(share(std::move(t))), name);
  }
  expect_matches_oracle(symmetric_scenario(share(zoo::nondet_coin_type(2))),
                        "symmetric nondet_coin(2)");
  expect_matches_oracle(symmetric_scenario(share(zoo::sticky_bit_type(3))),
                        "symmetric sticky_bit(3)");
  expect_matches_oracle(persistent_scenario(), "persistent_impl");
  expect_matches_oracle(spinner_scenario(), "spinner");
}

TEST(ExplorerVsOracle, ConsensusProtocols) {
  std::vector<std::pair<std::string, std::shared_ptr<const Implementation>>>
      protocols;
  protocols.emplace_back("tas", consensus::from_test_and_set());
  protocols.emplace_back("queue", consensus::from_queue());
  protocols.emplace_back("faa", consensus::from_fetch_and_add());
  protocols.emplace_back("cas(3)", consensus::from_cas(3));
  protocols.emplace_back("sticky_bit(3)", consensus::from_sticky_bit(3));
  protocols.emplace_back("shift_register(2,2)",
                         consensus::from_shift_register(2, 2));
  // Harbors genuine agreement violations.
  protocols.emplace_back("registers_only(2)",
                         consensus::registers_only_attempt(2));
  for (const auto& [name, impl] : protocols) {
    const int n = impl->iface().ports();
    for (const int vec : {0, 1, (1 << n) - 2}) {
      std::vector<int> inputs;
      for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
      expect_matches_oracle(
          Engine{consensus::consensus_scenario(impl, inputs)},
          name + " inputs " + std::to_string(vec), consensus_check(inputs));
    }
  }
}

TEST(ExplorerVsOracle, RandomTypes) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomTypeParams params;
    params.ports = 2 + static_cast<int>(seed % 2);
    params.num_states = 3 + static_cast<int>(seed % 3);
    params.num_invocations = 2 + static_cast<int>(seed % 2);
    params.branching = 1 + static_cast<int>(seed % 2);
    expect_matches_oracle(folding_scenario(share(random_type(params, seed))),
                          "random_type seed " + std::to_string(seed));
  }
}

// ---- pinned DFS-order outcomes ----------------------------------------------
//
// Aborted runs report counters at the abort point, so they depend on the
// traversal order: ascending processes, choices inner, memo lookup before
// the cycle abort before the limit check.  These outcomes were recorded
// from the copy-the-engine reference explorer that first defined this
// order, before it was retired; explore() must keep reproducing them.
// kSleep explores exactly like kNone, so its rows repeat kNone's.  The
// kSleepSymmetry rows were re-recorded when sleep sets were deleted; a
// build of the previous explorer with its sleep sets switched off gives
// the same values.

struct Pinned {
  std::size_t configs;
  std::size_t edges;
  std::size_t terminals;
  bool wait_free;
  bool complete;
};

void expect_pinned(const ExploreOutcome& got, const Pinned& want,
                   const std::string& what) {
  EXPECT_EQ(got.stats.configs, want.configs) << what;
  EXPECT_EQ(got.stats.edges, want.edges) << what;
  EXPECT_EQ(got.stats.terminals, want.terminals) << what;
  EXPECT_EQ(got.stats.interned_configs, want.configs) << what;
  EXPECT_EQ(got.wait_free, want.wait_free) << what;
  EXPECT_EQ(got.complete, want.complete) << what;
}

TEST(CompiledVsLegacy, CycleAbortMatches) {
  const auto got = explore(spinner_scenario());
  expect_pinned(got, {1, 1, 0, false, true}, "spinner");
  EXPECT_FALSE(got.violation.has_value());
}

TEST(CompiledVsLegacy, LimitAbortMatches) {
  const Engine root = symmetric_scenario(share(zoo::nondet_coin_type(2)));
  // [max_configs 1, 5, 17]
  const Pinned pinned[3] = {{1, 1, 0, true, false},
                            {5, 5, 1, true, false},
                            {17, 19, 8, true, false}};
  const std::size_t caps[] = {1, 5, 17};
  for (int k = 0; k < 3; ++k) {
    ExploreLimits limits;
    limits.max_configs = caps[k];
    const auto got = explore(root, limits);
    expect_pinned(got, pinned[k],
                  "max_configs " + std::to_string(caps[k]));
    EXPECT_FALSE(got.violation.has_value());
  }
}

TEST(CompiledVsLegacy, ViolationStopMatches) {
  const Engine root = symmetric_scenario(share(zoo::nondet_coin_type(2)));
  // Flags every terminal: exercises the first-violation bookkeeping and the
  // stop_at_violation abort on configuration-only (contract-safe) checks.
  // The second check names the terminal, so the text pins WHICH terminal
  // the traversal reached first.
  const TerminalCheck flag_all =
      [](const Engine&) -> std::optional<std::string> {
    return "every terminal is flagged";
  };
  const TerminalCheck name_results =
      [](const Engine& e) -> std::optional<std::string> {
    return "results " + std::to_string(*e.result(0)) + "," +
           std::to_string(*e.result(1));
  };
  // [stop_at_violation true, false]
  const Pinned pinned[2] = {{5, 4, 1, true, true}, {49, 84, 16, true, true}};
  for (const bool stop : {true, false}) {
    ExploreLimits limits;
    limits.stop_at_violation = stop;
    const std::string what = stop ? "stop" : "no-stop";
    const auto flagged = explore(root, limits, flag_all);
    expect_pinned(flagged, pinned[stop ? 0 : 1], what);
    EXPECT_EQ(flagged.violation, "every terminal is flagged") << what;
    const auto named = explore(root, limits, name_results);
    expect_pinned(named, pinned[stop ? 0 : 1], what);
    EXPECT_EQ(named.violation, "results 1048577,1048577") << what;
    if (!stop) {
      EXPECT_EQ(named.stats.depth, 4) << what;
    }
    // The processes run different programs here, so the first terminal
    // reached -- named by its results -- pins the process order too.
    const auto asym =
        explore(folding_scenario(share(zoo::fetch_and_add_type(4, 2))),
                limits, name_results);
    expect_pinned(asym,
                  stop ? Pinned{5, 4, 1, true, true}
                       : Pinned{19, 18, 6, true, true},
                  "fetch_and_add " + what);
    EXPECT_EQ(asym.violation, "results 1048578,3145732") << what;
  }
}

}  // namespace
}  // namespace wfregs
