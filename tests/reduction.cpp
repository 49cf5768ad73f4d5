// Differential tests for the reduction layer: on every zoo type, every
// consensus protocol, the register-elimination pipeline stages and 24 seeded
// random types, exploring with Reduction::kSleep / kSleepSymmetry must
// report the SAME verdicts (wait-freedom, violation presence, depth,
// per-object access bounds) as Reduction::kNone while visiting no more --
// and on symmetric systems provably fewer -- configurations.  Also covers
// the parallel reduced explorer (bit-identical to the sequential reduced
// one), ExploreStats lower bounds under early aborts, the analysis-refined
// independence table, and the shared-port fallback.
#include "wfregs/runtime/reduction.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "test_support.hpp"
#include "wfregs/analysis/independence.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/core/register_elimination.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/typesys/random_type.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::folding_scenario;
using testsup::share;

constexpr Reduction kReductions[] = {Reduction::kSleep,
                                     Reduction::kSleepSymmetry};

std::string reduction_name(Reduction r) {
  switch (r) {
    case Reduction::kNone:
      return "none";
    case Reduction::kSleep:
      return "sleep";
    case Reduction::kSleepSymmetry:
      return "sleep+symmetry";
  }
  return "?";
}

/// The reduction contract: verdicts, depth and access bounds match the
/// unreduced run.  Node counts are NOT asserted <=: reduced nodes are
/// (configuration, sleep mask) pairs, so on small dependence-heavy systems
/// -- where pruning fires only partially -- the same configuration can
/// appear under two sleep masks and the reduced graph runs a few nodes
/// larger.  That exact identity is what keeps reduced runs deterministic at
/// any thread count; the payoff on independence- and symmetry-rich systems
/// is asserted separately.  A 2x guard still catches pathological blowup.
void ExpectSameVerdict(const ExploreOutcome& none, const ExploreOutcome& red,
                       const std::string& what) {
  EXPECT_EQ(none.wait_free, red.wait_free) << what;
  EXPECT_EQ(none.complete, red.complete) << what;
  EXPECT_EQ(none.violation.has_value(), red.violation.has_value()) << what;
  EXPECT_EQ(none.stats.depth, red.stats.depth) << what;
  EXPECT_EQ(none.stats.max_accesses, red.stats.max_accesses) << what;
  EXPECT_EQ(none.stats.max_accesses_by_inv, red.stats.max_accesses_by_inv)
      << what;
  EXPECT_LE(red.stats.configs, 2 * none.stats.configs) << what;
}

void ExpectIdentical(const ExploreOutcome& a, const ExploreOutcome& b,
                     const std::string& what) {
  EXPECT_EQ(a.wait_free, b.wait_free) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.violation.has_value(), b.violation.has_value()) << what;
  EXPECT_EQ(a.stats.configs, b.stats.configs) << what;
  EXPECT_EQ(a.stats.edges, b.stats.edges) << what;
  EXPECT_EQ(a.stats.terminals, b.stats.terminals) << what;
  EXPECT_EQ(a.stats.depth, b.stats.depth) << what;
  EXPECT_EQ(a.stats.max_accesses, b.stats.max_accesses) << what;
  EXPECT_EQ(a.stats.max_accesses_by_inv, b.stats.max_accesses_by_inv) << what;
}

/// Fully symmetric scenario: every process runs the SAME shared program (two
/// identical invocations, responses folded) on its own port of one shared
/// object.  When the object is port-oblivious every process permutation is a
/// system automorphism, so kSleepSymmetry collapses whole orbits.
Engine symmetric_scenario_for(std::shared_ptr<const TypeSpec> t, InvId inv) {
  const int n = t->ports();
  auto sys = std::make_shared<System>(n);
  std::vector<PortId> ports(static_cast<std::size_t>(n));
  std::iota(ports.begin(), ports.end(), 0);
  const ObjectId obj = sys->add_base(std::move(t), 0, ports);
  ProgramBuilder b;
  b.assign(1, lit(0));
  for (int k = 0; k < 2; ++k) {
    b.invoke(0, lit(inv), 0);
    b.assign(1, reg(1) * lit(1 << 20) + reg(0) + lit(1));
  }
  b.ret(reg(1));
  const ProgramRef shared_prog = b.build("hammer");
  for (ProcId p = 0; p < n; ++p) {
    sys->set_toplevel(p, shared_prog, {obj});
  }
  return Engine{std::move(sys)};
}

std::vector<std::pair<std::string, TypeSpec>> zoo_instances() {
  std::vector<std::pair<std::string, TypeSpec>> out;
  out.emplace_back("register(3,2)", zoo::register_type(3, 2));
  out.emplace_back("register(2,3)", zoo::register_type(2, 3));
  out.emplace_back("bit(2)", zoo::bit_type(2));
  out.emplace_back("srsw_register(2)", zoo::srsw_register_type(2));
  out.emplace_back("srsw_bit", zoo::srsw_bit_type());
  out.emplace_back("mrsw_register(2,2)", zoo::mrsw_register_type(2, 2));
  out.emplace_back("safe_bit", zoo::weak_bit_type(zoo::WeakBitKind::kSafe));
  out.emplace_back("regular_bit",
                   zoo::weak_bit_type(zoo::WeakBitKind::kRegular));
  out.emplace_back("one_use_bit", zoo::one_use_bit_type());
  out.emplace_back("consensus(2)", zoo::consensus_type(2));
  out.emplace_back("multi_consensus(3,2)", zoo::multi_consensus_type(3, 2));
  out.emplace_back("test_and_set(2)", zoo::test_and_set_type(2));
  out.emplace_back("fetch_and_add(4,2)", zoo::fetch_and_add_type(4, 2));
  out.emplace_back("cas(2,2)", zoo::cas_type(2, 2));
  out.emplace_back("cas_old(2,2)", zoo::cas_old_type(2, 2));
  out.emplace_back("sticky_bit(2)", zoo::sticky_bit_type(2));
  out.emplace_back("queue(2,2,2)", zoo::queue_type(2, 2, 2));
  out.emplace_back("stack(2,2,2)", zoo::stack_type(2, 2, 2));
  out.emplace_back("snapshot(2,2)", zoo::snapshot_type(2, 2));
  out.emplace_back("trivial_toggle(2)", zoo::trivial_toggle_type(2));
  out.emplace_back("trivial_sink(2)", zoo::trivial_sink_type(2));
  out.emplace_back("nondet_coin(2)", zoo::nondet_coin_type(2));
  out.emplace_back("port_flag(2)", zoo::port_flag_type(2));
  out.emplace_back("mod_counter(3,2)", zoo::mod_counter_type(3, 2));
  return out;
}

ExploreLimits full_limits() {
  ExploreLimits limits;
  limits.track_access_bounds = true;
  limits.stop_at_violation = false;
  return limits;
}

TEST(Reduction, DifferentialOnZooTypes) {
  const ExploreLimits limits = full_limits();
  for (auto& [name, t] : zoo_instances()) {
    const Engine root = folding_scenario(share(std::move(t)));
    const auto none = explore(root, limits);
    ASSERT_TRUE(none.complete) << name;
    for (const Reduction r : kReductions) {
      const auto red = explore(root, ExploreOptions{limits, r});
      ExpectSameVerdict(none, red, name + " @ " + reduction_name(r));
    }
  }
}

TEST(Reduction, DifferentialOnConsensusProtocols) {
  const ExploreLimits limits = full_limits();
  const std::vector<
      std::pair<std::string, std::shared_ptr<const Implementation>>>
      protocols = {
          {"test_and_set", consensus::from_test_and_set()},
          {"queue", consensus::from_queue()},
          {"fetch_and_add", consensus::from_fetch_and_add()},
          {"cas(2)", consensus::from_cas(2)},
          {"cas(3)", consensus::from_cas(3)},
          {"sticky_bit(2)", consensus::from_sticky_bit(2)},
          {"sticky_bit(3)", consensus::from_sticky_bit(3)},
          {"consensus_object(3)", consensus::from_consensus_object(3)},
          {"cas_ids(2)", consensus::from_cas_ids(2)},
          // Deliberately broken: agreement violations must survive reduction.
          {"registers_only(2)", consensus::registers_only_attempt(2)},
      };
  for (const auto& [name, impl] : protocols) {
    const int n = impl->iface().ports();
    const TerminalCheck check =
        [n](const Engine& e) -> std::optional<std::string> {
      const Val decided = *e.result(0);
      for (ProcId p = 1; p < n; ++p) {
        if (*e.result(p) != decided) return "disagreement";
      }
      return std::nullopt;
    };
    for (int vec = 0; vec < (1 << n); ++vec) {
      std::vector<int> inputs;
      for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
      const Engine root{consensus::consensus_scenario(impl, inputs)};
      const auto none = explore(root, limits, check);
      ASSERT_TRUE(none.complete) << name;
      for (const Reduction r : kReductions) {
        const auto red = explore(root, ExploreOptions{limits, r}, check);
        ExpectSameVerdict(none, red,
                          name + " inputs " + std::to_string(vec) + " @ " +
                              reduction_name(r));
      }
    }
  }
}

TEST(Reduction, DifferentialOnEliminationStages) {
  // The register-elimination pipeline produces the deepest composed
  // implementations in the library; its stage outputs are the stress test
  // for reduction over virtual objects, persistent state and port plumbing.
  core::EliminationOptions options;  // empty factory: keep one-use bits
  const auto report =
      core::eliminate_registers(consensus::from_test_and_set(), options);
  ASSERT_TRUE(report.ok) << report.detail;
  for (const auto& stage : {report.bits_stage, report.result}) {
    VerifyOptions none;
    none.threads = 1;
    none.limits.track_access_bounds = true;
    const auto base = consensus::check_consensus(stage, none);
    ASSERT_TRUE(base.solves) << base.detail;
    for (const Reduction r : kReductions) {
      VerifyOptions red = none;
      red.reduction = r;
      const auto out = consensus::check_consensus(stage, red);
      const std::string what = stage->name() + " @ " + reduction_name(r);
      EXPECT_EQ(base.solves, out.solves) << what;
      EXPECT_EQ(base.wait_free, out.wait_free) << what;
      EXPECT_EQ(base.complete, out.complete) << what;
      EXPECT_EQ(base.depth, out.depth) << what;
      EXPECT_EQ(base.max_accesses, out.max_accesses) << what;
      EXPECT_EQ(base.max_accesses_by_inv, out.max_accesses_by_inv) << what;
      EXPECT_LE(out.configs, base.configs) << what;
    }
  }
}

TEST(Reduction, DifferentialOnRandomTypes) {
  // Same 24-seed family as the fuzz differential suite, so a failure here
  // has a known repro recipe there.
  const ExploreLimits limits = full_limits();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    RandomTypeParams params;
    params.ports = 2 + static_cast<int>(seed % 2);
    params.num_states = 3 + static_cast<int>(seed % 3);
    params.num_invocations = 2 + static_cast<int>(seed % 2);
    params.num_responses = 2 + static_cast<int>(seed % 2);
    params.oblivious = (seed % 3) == 0;
    params.branching = 1 + static_cast<int>(seed % 2);
    const TypeSpec t = random_type(params, seed);
    const Engine root = folding_scenario(share(t));
    const auto none = explore(root, limits);
    ASSERT_TRUE(none.complete) << "seed " << seed;
    for (const Reduction r : kReductions) {
      const auto red = explore(root, ExploreOptions{limits, r});
      ExpectSameVerdict(none, red,
                        "seed " + std::to_string(seed) + " @ " +
                            reduction_name(r));
    }
  }
}

TEST(Reduction, ParallelMatchesSequentialReducedBitForBit) {
  // The determinism guarantee extends to reduced runs: the parallel
  // explorer must reproduce the sequential reduced explorer's counters
  // exactly, at any thread count.
  const ExploreLimits limits = full_limits();
  std::vector<std::pair<std::string, Engine>> roots;
  roots.emplace_back("cas(2,2)", folding_scenario(share(zoo::cas_type(2, 2))));
  roots.emplace_back("queue(2,2,2)",
                     folding_scenario(share(zoo::queue_type(2, 2, 2))));
  roots.emplace_back(
      "symmetric fetch_and_add(4,3)",
      symmetric_scenario_for(share(zoo::fetch_and_add_type(4, 3)), 0));
  roots.emplace_back("consensus cas(3)",
                     Engine{consensus::consensus_scenario(
                         consensus::from_cas(3), {1, 1, 1})});
  for (const auto& [name, root] : roots) {
    for (const Reduction r : kReductions) {
      const ExploreOptions options{limits, r};
      const auto seq = explore(root, options);
      ASSERT_TRUE(seq.complete) << name;
      for (const int threads : {2, 8}) {
        const auto par = explore_parallel(root, {}, options, threads);
        ExpectIdentical(seq, par,
                        name + " @ " + reduction_name(r) + " x " +
                            std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(Reduction, SymmetricScenarioShrinksAtLeastThreefold) {
  // Three identical processes hammering one port-oblivious object: the
  // symmetry group is all of S_3, so canonicalization should collapse (at
  // least) the 3!-sized orbits of the asymmetric configurations.
  const ExploreLimits limits = full_limits();
  const Engine root =
      symmetric_scenario_for(share(zoo::fetch_and_add_type(4, 3)), 0);
  const auto none = explore(root, limits);
  ASSERT_TRUE(none.complete);
  const auto red =
      explore(root, ExploreOptions{limits, Reduction::kSleepSymmetry});
  ExpectSameVerdict(none, red, "symmetric fetch_and_add");
  EXPECT_LE(red.stats.configs * 3, none.stats.configs)
      << "expected >= 3x reduction, got " << none.stats.configs << " -> "
      << red.stats.configs;
}

TEST(Reduction, SymmetricConsensusScenarioShrinks) {
  // consensus_scenario shares one propose program per input value, so the
  // all-equal-input roots are fully symmetric.
  const ExploreLimits limits = full_limits();
  const Engine root{
      consensus::consensus_scenario(consensus::from_cas(3), {1, 1, 1})};
  const auto none = explore(root, limits);
  ASSERT_TRUE(none.complete);
  const auto red =
      explore(root, ExploreOptions{limits, Reduction::kSleepSymmetry});
  ExpectSameVerdict(none, red, "cas(3) all-ones");
  // One-invocation propose programs keep this tree shallow, so the orbit
  // collapse stays below the asymptotic |S_3| = 6; 2x is already symmetry
  // at work (sleep alone GROWS this root: see DifferentialOnConsensusProtocols).
  EXPECT_LE(red.stats.configs * 2, none.stats.configs)
      << "expected >= 2x reduction, got " << none.stats.configs << " -> "
      << red.stats.configs;
}

TEST(Reduction, EarlyAbortCountersAreLowerBounds) {
  const Engine root = folding_scenario(share(zoo::register_type(3, 3)));
  for (const Reduction r : kReductions) {
    const auto full = explore(root, ExploreOptions{full_limits(), r});
    ASSERT_TRUE(full.complete);
    // Config-limit abort: incomplete, and every counter is a valid lower
    // bound of the completed reduced run's counter.
    ExploreLimits capped;
    capped.max_configs = 5;
    const auto seq = explore(root, ExploreOptions{capped, r});
    EXPECT_FALSE(seq.complete);
    EXPECT_LE(seq.stats.configs, full.stats.configs);
    EXPECT_LE(seq.stats.terminals, full.stats.terminals);
    for (const int threads : {2, 8}) {
      const auto par = explore_parallel(root, {}, ExploreOptions{capped, r},
                                        threads);
      EXPECT_FALSE(par.complete);
      EXPECT_LE(par.stats.configs, full.stats.configs);
      EXPECT_LE(par.stats.terminals, full.stats.terminals);
    }
  }
}

TEST(Reduction, StopAtViolationStillReportsViolation) {
  const Engine root = folding_scenario(share(zoo::nondet_coin_type(2)));
  // Every terminal violates, so any early stop must still surface one.
  const TerminalCheck check =
      [](const Engine&) -> std::optional<std::string> { return "always"; };
  ExploreLimits limits;
  limits.stop_at_violation = true;
  for (const Reduction r : kReductions) {
    const auto seq = explore(root, ExploreOptions{limits, r}, check);
    EXPECT_TRUE(seq.violation.has_value()) << reduction_name(r);
    EXPECT_GE(seq.stats.configs, 1u);
    for (const int threads : {2, 8}) {
      const auto par =
          explore_parallel(root, check, ExploreOptions{limits, r}, threads);
      EXPECT_TRUE(par.violation.has_value())
          << reduction_name(r) << " x " << threads;
    }
  }
}

TEST(Reduction, InjectedRefinedTableStaysSound) {
  const ExploreLimits limits = full_limits();
  for (auto& [name, t] : {std::pair<std::string, TypeSpec>{
                              "cas(2,2)", zoo::cas_type(2, 2)},
                          {"queue(2,2,2)", zoo::queue_type(2, 2, 2)},
                          {"mod_counter(3,2)", zoo::mod_counter_type(3, 2)}}) {
    const Engine root = folding_scenario(share(std::move(t)));
    const auto none = explore(root, limits);
    const IndependenceTable refined =
        analysis::refined_independence(root.system());
    ExploreOptions options{limits, Reduction::kSleep};
    options.independence = &refined;
    const auto red = explore(root, options);
    ExpectSameVerdict(none, red, name + " @ refined table");
    // The refined table is never coarser than the baseline.
    const auto baseline =
        explore(root, ExploreOptions{limits, Reduction::kSleep});
    EXPECT_LE(red.stats.configs, baseline.stats.configs) << name;
  }
}

TEST(Reduction, RefinedTableNeverCoarserThanBaseline) {
  for (auto& [name, t] : zoo_instances()) {
    const Engine root = folding_scenario(share(std::move(t)));
    const System& sys = root.system();
    const IndependenceTable baseline = IndependenceTable::build(sys);
    const IndependenceTable refined = analysis::refined_independence(sys);
    EXPECT_GE(refined.independent_pairs(), baseline.independent_pairs())
        << name;
    const std::string description = analysis::describe_independence(sys);
    EXPECT_NE(description.find("total independent pairs"), std::string::npos)
        << name;
  }
}

TEST(Reduction, SharedPortSystemsFallBackToSymmetryOnly) {
  // Two processes sharing port 0 of an oblivious counter: steps conflict
  // through per-port state identity, so sleep-set pruning must deactivate
  // and the reduced run must degrade gracefully to the unreduced graph.
  auto sys = std::make_shared<System>(2);
  const ObjectId obj =
      sys->add_base(share(zoo::fetch_and_add_type(4, 2)), 0, {0, 0});
  for (ProcId p = 0; p < 2; ++p) {
    ProgramBuilder b;
    b.assign(1, lit(0));
    b.invoke(0, lit(0), 0);
    b.assign(1, reg(1) * lit(1 << 20) + reg(0) + lit(1));
    b.ret(reg(1));
    sys->set_toplevel(p, b.build("shared_p" + std::to_string(p)), {obj});
  }
  const Engine root{std::move(sys)};
  const ReductionContext ctx(root.system(), Reduction::kSleep, nullptr);
  EXPECT_FALSE(ctx.sleep_active());
  const ExploreLimits limits = full_limits();
  const auto none = explore(root, limits);
  const auto red = explore(root, ExploreOptions{limits, Reduction::kSleep});
  ExpectSameVerdict(none, red, "shared-port");
  EXPECT_EQ(none.stats.configs, red.stats.configs);
}

TEST(Reduction, InjectedTableShapeMismatchThrows) {
  const Engine a = folding_scenario(share(zoo::cas_type(2, 2)));
  const Engine b = folding_scenario(share(zoo::queue_type(2, 2, 2)));
  const IndependenceTable wrong = IndependenceTable::build(a.system());
  ExploreOptions options{{}, Reduction::kSleep};
  options.independence = &wrong;
  EXPECT_THROW(explore(b, options), std::invalid_argument);
}

TEST(Reduction, VerifiersThreadReductionThrough) {
  // End-to-end: VerifyOptions::reduction reaches the explorer and preserves
  // the consensus verdict and measured bounds.
  const auto impl = consensus::from_test_and_set();
  VerifyOptions none;
  none.threads = 1;
  none.limits.track_access_bounds = true;
  const auto base = consensus::check_consensus(impl, none);
  ASSERT_TRUE(base.solves) << base.detail;
  for (const Reduction r : kReductions) {
    VerifyOptions red = none;
    red.reduction = r;
    const auto out = consensus::check_consensus(impl, red);
    EXPECT_TRUE(out.solves) << out.detail;
    EXPECT_EQ(base.depth, out.depth) << reduction_name(r);
    EXPECT_EQ(base.max_accesses, out.max_accesses) << reduction_name(r);
    EXPECT_LE(out.configs, base.configs) << reduction_name(r);
  }
}

}  // namespace
}  // namespace wfregs
