// Differential tests for the reduction layer: on every zoo type, every
// consensus protocol, the register-elimination pipeline stages and 24 seeded
// random types, exploring with Reduction::kSleep / kSleepSymmetry must
// report the SAME verdicts (wait-freedom, violation presence, depth,
// per-object access bounds) as Reduction::kNone while visiting no more --
// and on symmetric systems provably fewer -- configurations.  kSleep must
// explore exactly like kNone.  Also covers the parallel reduced explorer
// (bit-identical to the sequential reduced one), ExploreStats lower bounds
// under early aborts, shared-port systems, and the metamorphic orbit
// oracle: every root of a consensus job's renaming orbit gives equal stats,
// and check_consensus, which explores one root per orbit, matches the
// root-by-root loop on every field.
#include "wfregs/runtime/reduction.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "consensus_oracle.hpp"
#include "test_support.hpp"
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
/// unreduced run, and the reduced run visits no more configurations (a
/// symmetry quotient is never larger than the graph it quotients).
void ExpectSameVerdict(const ExploreOutcome& none, const ExploreOutcome& red,
                       const std::string& what) {
  EXPECT_EQ(none.wait_free, red.wait_free) << what;
  EXPECT_EQ(none.complete, red.complete) << what;
  EXPECT_EQ(none.violation.has_value(), red.violation.has_value()) << what;
  EXPECT_EQ(none.stats.depth, red.stats.depth) << what;
  EXPECT_EQ(none.stats.max_accesses, red.stats.max_accesses) << what;
  EXPECT_EQ(none.stats.max_accesses_by_inv, red.stats.max_accesses_by_inv)
      << what;
  EXPECT_LE(red.stats.configs, none.stats.configs) << what;
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
  // at work.
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

TEST(Reduction, SharedPortSystemsFallBackToSymmetryOnly) {
  // Two processes sharing port 0 of an oblivious counter, each with its own
  // program: no renaming is an automorphism, so every mode explores the
  // unreduced graph.
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
  EXPECT_TRUE(symmetry_renamings(root.system()).empty());
  const ExploreLimits limits = full_limits();
  const auto none = explore(root, limits);
  for (const Reduction r : kReductions) {
    const auto red = explore(root, ExploreOptions{limits, r});
    ExpectIdentical(none, red, "shared-port @ " + reduction_name(r));
  }
}

TEST(Reduction, SleepExploresExactlyLikeNone) {
  // kSleep is a job-text spelling of kNone: every counter, sequential and
  // parallel, on symmetric and asymmetric roots alike.
  const ExploreLimits limits = full_limits();
  std::vector<std::pair<std::string, Engine>> roots;
  for (auto& [name, t] : zoo_instances()) {
    roots.emplace_back(name, folding_scenario(share(std::move(t))));
  }
  roots.emplace_back(
      "symmetric fetch_and_add(4,3)",
      symmetric_scenario_for(share(zoo::fetch_and_add_type(4, 3)), 0));
  roots.emplace_back("consensus cas(3)",
                     Engine{consensus::consensus_scenario(
                         consensus::from_cas(3), {1, 1, 1})});
  for (const auto& [name, root] : roots) {
    const auto none = explore(root, limits);
    ExpectIdentical(none, explore(root, ExploreOptions{limits,
                                                       Reduction::kSleep}),
                    name);
    ExpectIdentical(
        none,
        explore_parallel(root, {}, ExploreOptions{limits, Reduction::kSleep},
                         2),
        name + " x 2 threads");
  }
}

TEST(Reduction, RenamedRootsGiveEqualStats) {
  // Metamorphic oracle for exploring one input vector per orbit.  A process
  // renaming pi in the scenario's symmetry group (taken from the all-zero
  // instance) maps the root for input vector v onto the root for the
  // renamed vector w, w[pi(p)] = v[p]; the two configuration graphs are
  // isomorphic, and so are their symmetry quotients.  A renaming moves
  // ports, never object or invocation ids, so even the access-bound vectors
  // must match.
  const ExploreLimits limits = full_limits();
  for (int n = 3; n <= 5; ++n) {
    const std::vector<
        std::pair<std::string, std::shared_ptr<const Implementation>>>
        protocols = {
            {"cas(" + std::to_string(n) + ")", consensus::from_cas(n)},
            {"sticky_bit(" + std::to_string(n) + ")",
             consensus::from_sticky_bit(n)},
            {"consensus_object(" + std::to_string(n) + ")",
             consensus::from_consensus_object(n)},
        };
    for (const auto& [name, impl] : protocols) {
      const consensus::ScenarioTemplate scenario(impl);
      const std::vector<ProcessRenaming> group = symmetry_renamings(
          *scenario.instantiate(std::vector<int>(n, 0)));
      ASSERT_FALSE(group.empty()) << name;
      for (const Reduction r : {Reduction::kNone, Reduction::kSleepSymmetry}) {
        std::vector<ExploreOutcome> by_vec;
        for (int vec = 0; vec < (1 << n); ++vec) {
          std::vector<int> inputs;
          for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
          by_vec.push_back(explore(Engine{scenario.instantiate(inputs)},
                                   ExploreOptions{limits, r}));
          ASSERT_TRUE(by_vec.back().complete) << name;
        }
        for (int vec = 0; vec < (1 << n); ++vec) {
          for (const ProcessRenaming& pi : group) {
            int renamed = 0;
            for (int p = 0; p < n; ++p) {
              renamed |= ((vec >> p) & 1) << pi.proc_map[p];
            }
            const ExploreStats& a = by_vec[vec].stats;
            const ExploreStats& b = by_vec[renamed].stats;
            const std::string what = name + " @ " + reduction_name(r) +
                                     ": inputs " + std::to_string(vec) +
                                     " vs " + std::to_string(renamed);
            EXPECT_EQ(a.configs, b.configs) << what;
            EXPECT_EQ(a.edges, b.edges) << what;
            EXPECT_EQ(a.terminals, b.terminals) << what;
            EXPECT_EQ(a.interned_configs, b.interned_configs) << what;
            EXPECT_EQ(a.depth, b.depth) << what;
            EXPECT_EQ(a.max_accesses, b.max_accesses) << what;
            EXPECT_EQ(a.max_accesses_by_inv, b.max_accesses_by_inv) << what;
          }
        }
      }
    }
  }
}

TEST(Reduction, OrbitRepresentativesGiveTheRootByRootCheck) {
  // check_consensus explores one input vector per symmetry orbit and
  // credits the rest; the root-by-root loop explores all 2^n.  Every field
  // must agree, in every mode, at 1 and 4 threads, with and without access
  // bounds -- on the benchmark's consensus zoo and on failing jobs, whose
  // violating orbits are explored member by member.
  struct Job {
    std::string name;
    std::shared_ptr<const Implementation> impl;
    /// Every process permutation is a symmetry, so the orbits are the
    /// vectors with k ones, least members 2^k - 1; otherwise the group is
    /// trivial.
    bool symmetric = false;
  };
  std::vector<Job> jobs = {{"tas", consensus::from_test_and_set()},
                           {"queue", consensus::from_queue()},
                           {"faa", consensus::from_fetch_and_add()}};
  for (int n = 2; n <= 5; ++n) {
    const std::string k = "(" + std::to_string(n) + ")";
    jobs.push_back({"cas" + k, consensus::from_cas(n), true});
    jobs.push_back({"sticky_bit" + k, consensus::from_sticky_bit(n), true});
    jobs.push_back({"consensus_object" + k,
                    consensus::from_consensus_object(n), true});
  }
  for (int n = 2; n <= 4; ++n) {
    for (int w = 2; w <= 5; ++w) {
      jobs.push_back({"shift_register(" + std::to_string(n) + "," +
                          std::to_string(w) + ")",
                      consensus::from_shift_register(n, w)});
    }
    jobs.push_back({"registers_only_attempt(" + std::to_string(n) + ")",
                    consensus::registers_only_attempt(n)});
  }
  for (int n = 3; n <= 4; ++n) {
    jobs.push_back({"cas_ids(" + std::to_string(n) + ")",
                    consensus::from_cas_ids(n)});
  }
  for (const Job& job : jobs) {
    SCOPED_TRACE(job.name);
    const consensus::ScenarioTemplate scenario(job.impl);
    std::vector<int> want;
    if (job.symmetric) {
      for (int vec = 0; vec < (1 << scenario.processes()); ++vec) {
        want.push_back((1 << std::popcount(static_cast<unsigned>(vec))) - 1);
      }
    }
    EXPECT_EQ(scenario.orbit_representatives(), want);
    for (const Reduction r :
         {Reduction::kNone, Reduction::kSleep, Reduction::kSleepSymmetry}) {
      for (const int threads : {1, 4}) {
        for (const bool bounds : {false, true}) {
          SCOPED_TRACE(reduction_name(r) + " x " + std::to_string(threads) +
                       (bounds ? " threads, bounds" : " threads"));
          VerifyOptions options;
          options.reduction = r;
          options.threads = threads;
          options.limits.track_access_bounds = bounds;
          testsup::ExpectSameCheck(
              consensus::check_consensus(job.impl, options),
              testsup::check_root_by_root(job.impl, options));
        }
      }
    }
  }
  // A representative cut by a limit stands for nothing: counts at a stop
  // depend on DFS order, so every member of its orbit runs.  Each cap lets
  // the all-zero root finish (it is credited to nobody else) and cuts the
  // roots with one or two ones.  One thread only, since a parallel limit
  // hit reports run-dependent lower bounds.
  struct Cut {
    std::shared_ptr<const Implementation> impl;
    Reduction reduction;
    std::size_t max_configs;
  };
  for (const Cut& cut : {Cut{consensus::from_cas(4), Reduction::kNone, 70},
                         Cut{consensus::from_cas(4),
                             Reduction::kSleepSymmetry, 20},
                         Cut{consensus::from_sticky_bit(4), Reduction::kNone,
                             20},
                         Cut{consensus::from_sticky_bit(4),
                             Reduction::kSleepSymmetry, 10}}) {
    SCOPED_TRACE(cut.impl->name() + " @ " + reduction_name(cut.reduction));
    VerifyOptions options;
    options.reduction = cut.reduction;
    options.threads = 1;
    options.limits.max_configs = cut.max_configs;
    options.limits.track_access_bounds = true;
    const auto got = consensus::check_consensus(cut.impl, options);
    ASSERT_EQ(got.per_root.size(), 16u);
    EXPECT_LT(got.per_root[0].configs, cut.max_configs);
    EXPECT_FALSE(got.complete);
    testsup::ExpectSameCheck(got,
                             testsup::check_root_by_root(cut.impl, options));
  }
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
