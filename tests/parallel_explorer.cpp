// Differential tests for the parallel explorer: on every zoo type and every
// consensus protocol, explore_parallel must return a BIT-IDENTICAL
// ExploreOutcome to the sequential explorer at 1, 2 and 8 threads whenever
// discovery runs to completion (the determinism guarantee of the PARALLEL
// EXPLORATION contract in explorer.hpp) -- including the partial stats at a
// cycle-detection abort, which the canonical replay reproduces exactly.
#include "wfregs/runtime/explorer.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "test_support.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/runtime/regularity.hpp"
#include "wfregs/runtime/verify.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::folding_scenario;
using testsup::make_impl;
using testsup::one_shot;
using testsup::share;

constexpr int kThreadCounts[] = {1, 2, 8};

void ExpectIdentical(const ExploreOutcome& seq, const ExploreOutcome& par,
                     const std::string& what) {
  EXPECT_EQ(seq.wait_free, par.wait_free) << what;
  EXPECT_EQ(seq.complete, par.complete) << what;
  EXPECT_EQ(seq.violation.has_value(), par.violation.has_value()) << what;
  EXPECT_EQ(seq.stats.configs, par.stats.configs) << what;
  EXPECT_EQ(seq.stats.edges, par.stats.edges) << what;
  EXPECT_EQ(seq.stats.terminals, par.stats.terminals) << what;
  EXPECT_EQ(seq.stats.depth, par.stats.depth) << what;
  EXPECT_EQ(seq.stats.max_accesses, par.stats.max_accesses) << what;
  EXPECT_EQ(seq.stats.max_accesses_by_inv, par.stats.max_accesses_by_inv)
      << what;
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

TEST(ParallelExplorer, DifferentialOnZooTypes) {
  ExploreLimits limits;
  limits.track_access_bounds = true;
  limits.stop_at_violation = false;
  for (auto& [name, t] : zoo_instances()) {
    const Engine root = folding_scenario(share(std::move(t)));
    const auto seq = explore(root, limits);
    EXPECT_TRUE(seq.complete) << name;
    for (const int threads : kThreadCounts) {
      ExpectIdentical(seq, explore_parallel(root, {}, limits, threads),
                      name + " @ " + std::to_string(threads) + " threads");
    }
  }
}

void DifferentialOnProtocol(const std::string& name,
                            std::shared_ptr<const Implementation> impl) {
  const int n = impl->iface().ports();
  ExploreLimits limits;
  limits.track_access_bounds = true;
  limits.stop_at_violation = false;
  for (int vec = 0; vec < (1 << n); ++vec) {
    std::vector<int> inputs;
    for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
    // Agreement-only check: results are configuration state, so this is
    // exhaustive under memoization and safe to run concurrently.
    const TerminalCheck check =
        [n](const Engine& e) -> std::optional<std::string> {
      const Val decided = *e.result(0);
      for (ProcId p = 1; p < n; ++p) {
        if (*e.result(p) != decided) return "disagreement";
      }
      return std::nullopt;
    };
    const Engine root{consensus::consensus_scenario(impl, inputs)};
    const auto seq = explore(root, limits, check);
    EXPECT_TRUE(seq.complete) << name;
    for (const int threads : kThreadCounts) {
      ExpectIdentical(seq, explore_parallel(root, check, limits, threads),
                      name + " inputs " + std::to_string(vec) + " @ " +
                          std::to_string(threads) + " threads");
    }
  }
}

TEST(ParallelExplorer, DifferentialOnConsensusProtocols) {
  DifferentialOnProtocol("test_and_set", consensus::from_test_and_set());
  DifferentialOnProtocol("queue", consensus::from_queue());
  DifferentialOnProtocol("fetch_and_add", consensus::from_fetch_and_add());
  DifferentialOnProtocol("cas(2)", consensus::from_cas(2));
  DifferentialOnProtocol("cas(3)", consensus::from_cas(3));
  DifferentialOnProtocol("sticky_bit(2)", consensus::from_sticky_bit(2));
  DifferentialOnProtocol("sticky_bit(3)", consensus::from_sticky_bit(3));
  DifferentialOnProtocol("consensus_object(3)",
                         consensus::from_consensus_object(3));
  DifferentialOnProtocol("cas_ids(2)", consensus::from_cas_ids(2));
  // The deliberately broken protocol: agreement violations exist, and with
  // stop_at_violation off both explorers visit every terminal, so the full
  // outcome (including which violation is reported first) is identical.
  DifferentialOnProtocol("registers_only(2)",
                         consensus::registers_only_attempt(2));
}

TEST(ParallelExplorer, CycleAbortMatchesSequentialBitForBit) {
  // The lock-style waiting scenario from the sequential explorer tests: the
  // schedule that never runs the setter revisits a configuration.  The
  // canonical replay must abort at the same point with the same partial
  // counters as the sequential DFS.
  const auto bit = share(zoo::bit_type(2));
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(2);
  const ObjectId b = sys->add_base(bit, 0, {0, 1});
  sys->set_toplevel(0, one_shot("setter", 0, lay.write(1)), {b});
  ProgramBuilder pb;
  const Label loop = pb.bind_here();
  pb.invoke(0, lit(lay.read()), 0);
  pb.branch_if(reg(0) == lit(0), loop);
  pb.ret(lit(1));
  sys->set_toplevel(1, pb.build("waiter"), {b});
  const Engine root{std::move(sys)};
  const auto seq = explore(root);
  ASSERT_FALSE(seq.wait_free);
  for (const int threads : {2, 8}) {
    const auto par = explore_parallel(root, {}, ExploreLimits{}, threads);
    ExpectIdentical(seq, par, "lock-style @ " + std::to_string(threads));
  }
}

TEST(ParallelExplorer, StopAtViolationAbortsEarly) {
  const auto coin = share(zoo::nondet_coin_type(1));
  auto sys = std::make_shared<System>(1);
  const ObjectId c = sys->add_base(coin, 0, {0});
  sys->set_toplevel(0, one_shot("flipper", 0, 0), {c});
  const Engine root{std::move(sys)};
  const TerminalCheck check =
      [](const Engine& e) -> std::optional<std::string> {
    if (e.result(0) == 1) return "saw tails";
    return std::nullopt;
  };
  for (const int threads : {2, 8}) {
    const auto out = explore_parallel(root, check, ExploreLimits{}, threads);
    ASSERT_TRUE(out.violation.has_value());
    EXPECT_EQ(*out.violation, "saw tails");
    EXPECT_TRUE(out.wait_free);
    EXPECT_TRUE(out.complete);
  }
}

TEST(ParallelExplorer, ConfigLimitReportsIncomplete) {
  const Engine root = folding_scenario(share(zoo::register_type(3, 3)));
  ExploreLimits limits;
  limits.max_configs = 5;
  for (const int threads : {2, 8}) {
    const auto out = explore_parallel(root, {}, limits, threads);
    EXPECT_FALSE(out.complete);
  }
}

TEST(ParallelExplorer, CheckConsensusThreadsKnob) {
  const auto impl = consensus::from_test_and_set();
  VerifyOptions sequential;
  sequential.threads = 1;
  sequential.limits.track_access_bounds = true;
  VerifyOptions parallel = sequential;
  parallel.threads = 8;
  const auto seq = consensus::check_consensus(impl, sequential);
  const auto par = consensus::check_consensus(impl, parallel);
  EXPECT_TRUE(par.solves);
  EXPECT_EQ(seq.solves, par.solves);
  EXPECT_EQ(seq.configs, par.configs);
  EXPECT_EQ(seq.terminals, par.terminals);
  EXPECT_EQ(seq.depth, par.depth);
  EXPECT_EQ(seq.max_accesses, par.max_accesses);
  EXPECT_EQ(seq.max_accesses_by_inv, par.max_accesses_by_inv);
}

TEST(ParallelExplorer, VerifyLinearizableThreadsKnob) {
  const auto impl = consensus::from_consensus_object(2);
  VerifyOptions sequential;
  sequential.threads = 1;
  sequential.limits.track_access_bounds = true;
  VerifyOptions parallel = sequential;
  parallel.threads = 8;
  const auto seq = verify_linearizable(impl, {{0}, {1}}, sequential);
  const auto par = verify_linearizable(impl, {{0}, {1}}, parallel);
  EXPECT_TRUE(par.ok) << par.detail;
  EXPECT_EQ(seq.ok, par.ok);
  EXPECT_EQ(seq.stats.configs, par.stats.configs);
  EXPECT_EQ(seq.stats.depth, par.stats.depth);
  EXPECT_EQ(seq.stats.max_accesses, par.stats.max_accesses);
}

/// A pass-through SRSW register: each interface invocation forwards to one
/// base register of the same type.
std::shared_ptr<const Implementation> passthrough_srsw_register() {
  auto impl = make_impl("passthrough", share(zoo::srsw_register_type(2)), 0);
  const int base = impl->add_base(share(zoo::srsw_register_type(2)), 0, {0, 1});
  for (InvId i = 0; i < impl->iface().num_invocations(); ++i) {
    ProgramBuilder b;
    b.invoke(base, lit(i), 0);
    b.ret(reg(0));
    impl->set_program_all_ports(i, b.build("fwd"));
  }
  return impl;
}

TEST(ParallelExplorer, VerifyRegularThreadsKnob) {
  const zoo::SrswRegisterLayout lay{2};
  const auto impl = passthrough_srsw_register();
  const std::vector<std::vector<InvId>> scripts{{lay.read(), lay.read()},
                                                {lay.write(1)}};
  VerifyOptions sequential;
  sequential.threads = 1;
  VerifyOptions parallel = sequential;
  parallel.threads = 8;
  const auto seq = verify_regular(impl, scripts, 2, sequential);
  const auto par = verify_regular(impl, scripts, 2, parallel);
  EXPECT_TRUE(par.ok) << par.detail;
  EXPECT_EQ(seq.ok, par.ok);
  EXPECT_EQ(seq.stats.configs, par.stats.configs);
  EXPECT_EQ(seq.stats.depth, par.stats.depth);
}

}  // namespace
}  // namespace wfregs
