// Tests for the random-schedule fuzz harness itself: determinism in the
// seed, argument checking, and -- most importantly -- that it actually
// catches broken implementations.  Also the property-based differential
// test driving seeded random types through the sequential AND parallel
// explorers, failing with the serialized type as a repro artifact.
#include "wfregs/runtime/fuzz.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "test_support.hpp"
#include "wfregs/analysis/consensus_power.hpp"
#include "wfregs/analysis/lint.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/hierarchy/hierarchy.hpp"
#include "wfregs/core/bounded_register.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/typesys/compiled_type.hpp"
#include "wfregs/typesys/random_type.hpp"
#include "wfregs/typesys/serialize.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::make_impl;
using testsup::share;

// A deliberately broken "bit": reads always return 1, writes are dropped.
std::shared_ptr<const Implementation> stuck_bit() {
  const zoo::RegisterLayout lay{2};
  auto impl = make_impl("stuck_bit", share(zoo::bit_type(2)), 0);
  const int scratch = impl->add_base(share(zoo::bit_type(2)), 0, {0, 1});
  {
    ProgramBuilder b;
    b.invoke(scratch, lit(lay.read()), 0);
    b.ret(lit(1));  // lie
    impl->set_program_all_ports(lay.read(), b.build("stuck_read"));
  }
  for (int v = 0; v < 2; ++v) {
    ProgramBuilder b;
    b.invoke(scratch, lit(lay.read()), 0);
    b.ret(lit(lay.ok()));  // drop the write
    impl->set_program_all_ports(lay.write(v), b.build("stuck_write"));
  }
  return impl;
}

TEST(Fuzz, CatchesABrokenImplementation) {
  const zoo::RegisterLayout lay{2};
  const auto r = fuzz_linearizable(stuck_bit(), {{lay.read()}, {}});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("not linearizable"), std::string::npos);
}

TEST(Fuzz, PassesACorrectImplementation) {
  const zoo::SrswRegisterLayout lay{2};
  const auto impl = core::bounded_bit_from_oneuse(3, 2, 0);
  FuzzOptions options;
  options.runs = 25;
  const auto r = fuzz_linearizable(
      impl,
      {{lay.read(), lay.read(), lay.read()}, {lay.write(1), lay.write(0)}},
      options);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_EQ(r.runs, 25u);
  EXPECT_GT(r.total_steps, 0u);
}

TEST(Fuzz, DeterministicInSeed) {
  const zoo::SrswRegisterLayout lay{2};
  const auto impl = core::bounded_bit_from_oneuse(2, 1, 0);
  FuzzOptions options;
  options.runs = 10;
  options.seed = 99;
  const auto a = fuzz_linearizable(impl, {{lay.read()}, {lay.write(1)}},
                                   options);
  const auto b = fuzz_linearizable(impl, {{lay.read()}, {lay.write(1)}},
                                   options);
  EXPECT_EQ(a.total_steps, b.total_steps);
}

TEST(Fuzz, ArgumentChecking) {
  EXPECT_THROW(fuzz_linearizable(nullptr, {}), std::invalid_argument);
  const auto impl = core::bounded_bit_from_oneuse(1, 1, 0);
  EXPECT_THROW(fuzz_linearizable(impl, {{}}), std::invalid_argument);
}

/// Scenario over one shared instance of `t`: every port performs two
/// invocations, folding responses into process state (the memoization
/// contract), so both explorers see rich, check-relevant configurations.
Engine random_scenario(std::shared_ptr<const TypeSpec> t) {
  const int n = t->ports();
  const int invs = t->num_invocations();
  auto sys = std::make_shared<System>(n);
  std::vector<PortId> ports(static_cast<std::size_t>(n));
  std::iota(ports.begin(), ports.end(), 0);
  const ObjectId obj = sys->add_base(std::move(t), 0, ports);
  for (ProcId p = 0; p < n; ++p) {
    ProgramBuilder b;
    b.assign(1, lit(0));
    for (int k = 0; k < 2; ++k) {
      b.invoke(0, lit((p + k) % invs), 0);
      b.assign(1, reg(1) * lit(1 << 20) + reg(0) + lit(1));
    }
    b.ret(reg(1));
    sys->set_toplevel(p, b.build("p" + std::to_string(p)), {obj});
  }
  return Engine{std::move(sys)};
}

TEST(Fuzz, DifferentialExplorersOnRandomTypes) {
  ExploreLimits limits;
  limits.track_access_bounds = true;
  limits.stop_at_violation = false;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    RandomTypeParams params;
    params.ports = 2 + static_cast<int>(seed % 2);
    params.num_states = 3 + static_cast<int>(seed % 3);
    params.num_invocations = 2 + static_cast<int>(seed % 2);
    params.num_responses = 2 + static_cast<int>(seed % 2);
    params.oblivious = (seed % 3) == 0;
    params.branching = 1 + static_cast<int>(seed % 2);
    const TypeSpec t = random_type(params, seed);
    const Engine root = random_scenario(testsup::share(t));
    // Pseudo-agreement check: process results are configuration state, so
    // the verdict is exhaustive under memoization and thread-safe.
    const int n = params.ports;
    const TerminalCheck check =
        [n](const Engine& e) -> std::optional<std::string> {
      const Val first = *e.result(0);
      for (ProcId p = 1; p < n; ++p) {
        if (*e.result(p) != first) return "results diverge";
      }
      return std::nullopt;
    };
    const auto seq = explore(root, limits, check);
    ASSERT_TRUE(seq.complete) << "seed " << seed;
    for (const int threads : {2, 8}) {
      const auto par = explore_parallel(root, check, limits, threads);
      const bool same = seq.wait_free == par.wait_free &&
                        seq.complete == par.complete &&
                        seq.violation.has_value() ==
                            par.violation.has_value() &&
                        seq.stats.configs == par.stats.configs &&
                        seq.stats.edges == par.stats.edges &&
                        seq.stats.terminals == par.stats.terminals &&
                        seq.stats.depth == par.stats.depth &&
                        seq.stats.max_accesses == par.stats.max_accesses &&
                        seq.stats.max_accesses_by_inv ==
                            par.stats.max_accesses_by_inv;
      if (!same) {
        const std::string repro =
            "fuzz_explorer_repro_seed" + std::to_string(seed) + ".wfregs";
        save_type(t, repro);
        ADD_FAILURE() << "sequential/parallel explorer mismatch at seed "
                      << seed << ", " << threads
                      << " threads; type saved to " << repro
                      << "; repro type:\n"
                      << print_type(t);
      }
    }
  }
}

/// Wraps `t` in the identity pass-through implementation: iface = t, one
/// base of type t wired port-for-port, every program a single forwarded
/// invocation.
std::shared_ptr<const Implementation> pass_through(
    std::shared_ptr<const TypeSpec> t) {
  const int ports = t->ports();
  const int invs = t->num_invocations();
  auto impl = make_impl("fuzz_passthrough", t, 0);
  std::vector<PortId> identity(static_cast<std::size_t>(ports));
  std::iota(identity.begin(), identity.end(), 0);
  const int slot = impl->add_base(t, 0, identity);
  for (InvId i = 0; i < invs; ++i) {
    impl->set_program_all_ports(i, testsup::one_shot("fwd", slot, i));
  }
  return impl;
}

TEST(Fuzz, LintAcceptsEveryRandomImplementation) {
  // The static checker must digest arbitrary (valid) implementations
  // without crashing, yield a bound for the one base object, and never
  // report wiring errors for the identity pass-through.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RandomTypeParams params;
    params.ports = 2 + static_cast<int>(seed % 3);
    params.num_states = 2 + static_cast<int>(seed % 4);
    params.num_invocations = 1 + static_cast<int>(seed % 3);
    params.num_responses = 2 + static_cast<int>(seed % 2);
    params.oblivious = (seed % 2) == 0;
    params.branching = 1 + static_cast<int>(seed % 2);
    const auto impl = pass_through(share(random_type(params, seed)));
    analysis::LintReport report;
    ASSERT_NO_THROW(report = analysis::lint(*impl)) << "seed " << seed;
    ASSERT_EQ(report.bounds.size(), 1u) << "seed " << seed;
    // One forwarded invocation per port: the static bound must cover it.
    EXPECT_TRUE(analysis::Bound::dominates(
        report.bounds.front().accesses,
        static_cast<std::size_t>(params.ports)))
        << "seed " << seed << ": " << report.to_string();
    for (const auto& d : report.diagnostics) {
      EXPECT_NE(d.pass, analysis::Diagnostic::Pass::kStructure)
          << "seed " << seed << ": " << d.to_string();
    }
  }
}

/// Differential check of one compiled table against its source spec: every
/// cell's transition slice, the deterministic accessor and the structural
/// flags.
void expect_compiled_matches(const TypeSpec& t) {
  const CompiledType c = t.compile();
  EXPECT_EQ(c.name(), t.name());
  EXPECT_EQ(c.ports(), t.ports());
  EXPECT_EQ(c.num_states(), t.num_states());
  EXPECT_EQ(c.num_invocations(), t.num_invocations());
  EXPECT_EQ(c.num_responses(), t.num_responses());
  EXPECT_EQ(c.is_total(), t.is_total());
  EXPECT_EQ(c.is_deterministic(), t.is_deterministic());
  EXPECT_EQ(c.is_oblivious(), t.is_oblivious());
  for (StateId q = 0; q < t.num_states(); ++q) {
    for (PortId p = 0; p < t.ports(); ++p) {
      for (InvId i = 0; i < t.num_invocations(); ++i) {
        const auto want = t.delta(q, p, i);
        const auto got = c.delta(q, p, i);
        ASSERT_TRUE(std::equal(want.begin(), want.end(), got.begin(),
                               got.end()))
            << t.name() << " delta(" << q << ", " << p << ", " << i << ")";
        ASSERT_EQ(c.width(q, p, i), static_cast<int>(want.size()));
        if (want.size() == 1) {
          const Transition det = c.delta_det(q, p, i);
          EXPECT_EQ(det.next, want.front().next);
          EXPECT_EQ(det.resp, want.front().resp);
        } else {
          EXPECT_THROW(c.delta_det(q, p, i), std::logic_error);
        }
      }
    }
  }
  EXPECT_THROW(c.delta(t.num_states(), 0, 0), std::out_of_range);
  EXPECT_THROW(c.delta(0, t.ports(), 0), std::out_of_range);
  EXPECT_THROW(c.delta(0, 0, t.num_invocations()), std::out_of_range);
}

TEST(Fuzz, CompiledTypeMatchesSpecAcrossTheZoo) {
  expect_compiled_matches(zoo::register_type(3, 2));
  expect_compiled_matches(zoo::bit_type(3));
  expect_compiled_matches(zoo::srsw_register_type(3));
  expect_compiled_matches(zoo::srsw_bit_type());
  expect_compiled_matches(zoo::mrsw_register_type(2, 2));
  expect_compiled_matches(zoo::weak_bit_type(zoo::WeakBitKind::kSafe));
  expect_compiled_matches(zoo::weak_bit_type(zoo::WeakBitKind::kRegular));
  expect_compiled_matches(zoo::one_use_bit_type());
  expect_compiled_matches(zoo::consensus_type(3));
  expect_compiled_matches(zoo::multi_consensus_type(3, 2));
  expect_compiled_matches(zoo::test_and_set_type(2));
  expect_compiled_matches(zoo::fetch_and_add_type(4, 2));
  expect_compiled_matches(zoo::cas_type(2, 2));
  expect_compiled_matches(zoo::cas_old_type(2, 2));
  expect_compiled_matches(zoo::sticky_bit_type(3));
  expect_compiled_matches(zoo::queue_type(2, 2, 2));
  expect_compiled_matches(zoo::stack_type(2, 2, 2));
  expect_compiled_matches(zoo::snapshot_type(2, 2));
  expect_compiled_matches(zoo::trivial_toggle_type(2));
  expect_compiled_matches(zoo::trivial_sink_type(2));
  expect_compiled_matches(zoo::nondet_coin_type(2));
  expect_compiled_matches(zoo::port_flag_type(3));
  expect_compiled_matches(zoo::mod_counter_type(5, 2));
  expect_compiled_matches(zoo::shift_register_type(3, 2));
}

TEST(Fuzz, CompiledTypeMatchesSpecOnTheZoosLargeTypes) {
  // The consensus zoo's biggest tables, where compiling is slowest: the
  // 4-port, 26-invocation cas5 and the MRSW registers of cas_ids(4), the
  // 5-port cas3 of cas(5), and a 5-port nondeterministic coin.
  for (const auto& impl :
       {consensus::from_cas_ids(4), consensus::from_cas(5)}) {
    for (const ObjectDecl& decl : impl->objects()) {
      ASSERT_TRUE(decl.spec) << impl->name();
      SCOPED_TRACE(impl->name() + ": " + decl.spec->name());
      expect_compiled_matches(*decl.spec);
    }
  }
  expect_compiled_matches(zoo::nondet_coin_type(5));
}

TEST(Fuzz, CompiledTypeMatchesSpecOnRandomTypes) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    RandomTypeParams params;
    params.ports = 1 + static_cast<int>(seed % 4);
    params.num_states = 2 + static_cast<int>(seed % 5);
    params.num_invocations = 1 + static_cast<int>(seed % 4);
    params.num_responses = 2 + static_cast<int>(seed % 3);
    params.oblivious = (seed % 3) == 0;
    params.branching = 1 + static_cast<int>(seed % 3);
    const TypeSpec t = random_type(params, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_compiled_matches(t);
  }
}

TEST(Fuzz, StaticConsensusBoundsNeverContradictTheModelChecker) {
  // Differential gate for the static consensus-power classifier: on seeded
  // random types, every emitted certificate must pass the independent
  // checker, a finite static upper bound must agree with the hierarchy
  // harness's exhaustive witness searches (a race or adopt witness IS a
  // verified 2-consensus protocol, so its existence would contradict
  // cons <= 1), and a static lower bound >= 2 whose gadget the harness can
  // also realize must yield a protocol the model checker accepts.  Any
  // failure saves the type as a repro artifact.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    RandomTypeParams params;
    params.ports = 2;
    params.num_states = 2 + static_cast<int>(seed % 4);
    params.num_invocations = 1 + static_cast<int>(seed % 3);
    params.num_responses = 2 + static_cast<int>(seed % 3);
    params.oblivious = (seed % 5) == 0;
    params.branching = 1 + static_cast<int>(seed % 3 == 0 ? 1 : 0);
    const TypeSpec t = random_type(params, seed);
    SCOPED_TRACE("seed " + std::to_string(seed));
    if (!t.is_total()) continue;

    auto repro = [&](const std::string& what) {
      const std::string path =
          "fuzz_static_power_repro_seed" + std::to_string(seed) + ".wfregs";
      save_type(t, path);
      ADD_FAILURE() << what << " at seed " << seed << "; type saved to "
                    << path << "; repro type:\n"
                    << print_type(t);
    };

    analysis::ConsensusPowerResult r;
    try {
      r = analysis::classify_consensus_power(t);
    } catch (const std::exception& e) {
      repro(std::string("classifier threw: ") + e.what());
      continue;
    }
    for (const auto& claim : r.claims) {
      const auto check = analysis::check_certificate(t, claim);
      if (!check.ok) {
        repro(std::string("certificate rejected (") +
              analysis::power_rule_name(claim.rule) + "): " + check.detail);
      }
    }
    if (r.upper_finite && r.lower > r.upper) {
      repro("contradictory interval");
      continue;
    }

    if (!t.is_deterministic()) {
      // Nondeterministic types must get the solo bound only -- the static
      // rules argue over delta as a function.
      if (r.lower != 1 || r.upper_finite) repro("nondeterministic overclaim");
      continue;
    }

    if (r.upper_finite) {
      // cons <= 1 certified: the exhaustive harness searches must agree
      // that no single-object 2-consensus gadget exists.
      if (hierarchy::find_race_witness(t)) {
        repro("static upper bound 1 but a race witness exists");
      }
      if (hierarchy::find_adopt_witness(t)) {
        repro("static upper bound 1 but an adopt witness exists");
      }
    }
    if (r.lower >= 2) {
      // cons >= 2 certified: when the harness can realize a gadget of its
      // own, the resulting protocol must model-check.  (The static race
      // gadget is broader than the harness's same-invocation witness, so a
      // null protocol here is not by itself a contradiction.)
      auto protocol = hierarchy::race_consensus(t);
      if (!protocol) protocol = hierarchy::adopt_consensus(t);
      if (protocol) {
        const auto verdict = consensus::check_consensus(protocol);
        if (!verdict.complete || !verdict.solves) {
          repro("static lower bound 2 but the harness protocol fails: " +
                verdict.detail);
        }
      }
    }
  }
}

TEST(Fuzz, StepBudgetIsReported) {
  // A tiny step budget cannot finish the scenario: reported as failure.
  const zoo::SrswRegisterLayout lay{2};
  const auto impl = core::bounded_bit_from_oneuse(2, 2, 0);
  FuzzOptions options;
  options.max_steps_per_run = 1;
  const auto r = fuzz_linearizable(
      impl, {{lay.read()}, {lay.write(1)}}, options);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.detail.find("did not finish"), std::string::npos);
}

}  // namespace
}  // namespace wfregs
