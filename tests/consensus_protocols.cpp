// Exhaustive verification of the consensus protocol zoo: every protocol is
// model-checked over all schedules, all nondeterministic transitions and all
// 2^n input vectors.
#include <gtest/gtest.h>

#include <set>

#include "consensus_oracle.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/registers/chain.hpp"

namespace wfregs {
namespace {

using consensus::check_consensus;

TEST(ConsensusProtocols, TestAndSetSolvesTwoProcess) {
  const auto r = check_consensus(consensus::from_test_and_set());
  EXPECT_TRUE(r.solves) << r.detail;
  EXPECT_TRUE(r.wait_free);
  EXPECT_TRUE(r.complete);
  EXPECT_GE(r.depth, 2);
}

TEST(ConsensusProtocols, QueueSolvesTwoProcess) {
  const auto r = check_consensus(consensus::from_queue());
  EXPECT_TRUE(r.solves) << r.detail;
}

TEST(ConsensusProtocols, FetchAndAddSolvesTwoProcess) {
  const auto r = check_consensus(consensus::from_fetch_and_add());
  EXPECT_TRUE(r.solves) << r.detail;
}

class CasSweep : public ::testing::TestWithParam<int> {};

TEST_P(CasSweep, CasSolvesNProcess) {
  const auto r = check_consensus(consensus::from_cas(GetParam()));
  EXPECT_TRUE(r.solves) << r.detail;
}

INSTANTIATE_TEST_SUITE_P(N, CasSweep, ::testing::Values(1, 2, 3, 4));

class StickySweep : public ::testing::TestWithParam<int> {};

TEST_P(StickySweep, StickyBitSolvesNProcess) {
  const auto r = check_consensus(consensus::from_sticky_bit(GetParam()));
  EXPECT_TRUE(r.solves) << r.detail;
}

INSTANTIATE_TEST_SUITE_P(N, StickySweep, ::testing::Values(1, 2, 3, 4));

TEST(ConsensusProtocols, ConsensusObjectForwards) {
  for (int n = 1; n <= 3; ++n) {
    const auto r = check_consensus(consensus::from_consensus_object(n));
    EXPECT_TRUE(r.solves) << "n=" << n << ": " << r.detail;
  }
}

TEST(ConsensusProtocols, CasIdsSolvesWithRegisters) {
  for (int n = 2; n <= 3; ++n) {
    const auto r = check_consensus(consensus::from_cas_ids(n));
    EXPECT_TRUE(r.solves) << "n=" << n << ": " << r.detail;
  }
}

class ShiftRegisterSweep : public ::testing::TestWithParam<int> {};

TEST_P(ShiftRegisterSweep, WidthWSolvesWProcesses) {
  // cons(shift-register of width w) >= w [Aspnes 2025, arXiv 2505.01691]:
  // one w-bit shift register initialized to the marker value 1 solves
  // wait-free w-process consensus, no auxiliary registers needed.
  const int w = GetParam();
  const auto r = check_consensus(consensus::from_shift_register(w));
  EXPECT_TRUE(r.solves) << "w=" << w << ": " << r.detail;
  EXPECT_TRUE(r.wait_free);
  EXPECT_TRUE(r.complete);
}

INSTANTIATE_TEST_SUITE_P(W, ShiftRegisterSweep, ::testing::Values(1, 2, 3, 4));

TEST(ConsensusProtocols, ShiftRegisterOverWidthFailsAgreement) {
  // cons(shift-register of width w) = w exactly: with w+1 processes the
  // marker bit is shifted out of the top and the late shifters decode the
  // wrong bit (or mistake themselves for first).  The protocol stays
  // wait-free; only agreement breaks.
  for (int w = 1; w <= 3; ++w) {
    const auto r = check_consensus(consensus::from_shift_register(w + 1, w));
    EXPECT_FALSE(r.solves) << "w=" << w;
    EXPECT_TRUE(r.wait_free) << "w=" << w;
    EXPECT_NE(r.detail.find("agreement"), std::string::npos)
        << "w=" << w << ": " << r.detail;
  }
}

TEST(ConsensusProtocols, RegistersOnlyAttemptFailsAgreement) {
  // Registers cannot solve 2-process consensus [FLP85, LA87, Herlihy91]:
  // the natural register-only protocol is wait-free but loses agreement,
  // and the checker exhibits it.
  const auto r = check_consensus(consensus::registers_only_attempt(2));
  EXPECT_FALSE(r.solves);
  EXPECT_TRUE(r.wait_free);  // it IS wait-free; it just disagrees
  EXPECT_NE(r.detail.find("agreement"), std::string::npos) << r.detail;
}

TEST(ConsensusProtocols, RegistersOnlyAttemptFailsForThree) {
  const auto r = check_consensus(consensus::registers_only_attempt(3));
  EXPECT_FALSE(r.solves);
}

TEST(ConsensusProtocols, AccessBoundsAreReportedWhenTracked) {
  ExploreLimits limits;
  limits.track_access_bounds = true;
  const auto r = check_consensus(consensus::from_test_and_set(), limits);
  ASSERT_TRUE(r.solves) << r.detail;
  // System objects: bit, bit, test&set, consensus(top).  Every execution
  // touches the test&set exactly once per process.
  ASSERT_EQ(r.max_accesses.size(), 4u);
  EXPECT_EQ(r.max_accesses[2], 2u);  // the test&set object
  EXPECT_LE(r.max_accesses[0], 2u);  // announce bit: 1 write + <=1 read
  EXPECT_GE(r.depth, 4);             // at least 2 steps per process
  EXPECT_LE(r.depth, 6);             // publish + race + read, two processes
}

TEST(ConsensusProtocols, InvalidArguments) {
  EXPECT_THROW(consensus::from_cas(0), std::invalid_argument);
  EXPECT_THROW(consensus::from_shift_register(0), std::invalid_argument);
  EXPECT_THROW(consensus::from_shift_register(2, 0), std::invalid_argument);
  EXPECT_THROW(consensus::from_sticky_bit(0), std::invalid_argument);
  EXPECT_THROW(consensus::from_cas_ids(1), std::invalid_argument);
  EXPECT_THROW(consensus::registers_only_attempt(1), std::invalid_argument);
}

TEST(ConsensusCheck, RootsShareOneBuildAndMatchARootByRootCheck) {
  const std::vector<std::pair<std::string,
                              std::shared_ptr<const Implementation>>>
      jobs = {{"cas(3)", consensus::from_cas(3)},
              {"cas_ids(3)", consensus::from_cas_ids(3)},
              {"sticky_bit(3)", consensus::from_sticky_bit(3)},
              // A failing job, so `detail` is compared on a violation.
              {"registers_only(2)", consensus::registers_only_attempt(2)}};
  for (const auto& [name, impl] : jobs) {
    SCOPED_TRACE(name);
    // One template per job: every root system holds the template's
    // CompiledType for each base object, and check_consensus compiles each
    // distinct spec exactly once (counted below), whatever its n.
    const consensus::ScenarioTemplate scenario(impl);
    const int n = scenario.processes();
    std::vector<std::shared_ptr<System>> roots;
    for (int vec = 0; vec < (1 << n); ++vec) {
      std::vector<int> inputs;
      for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
      roots.push_back(scenario.instantiate(inputs));
    }
    std::set<const TypeSpec*> specs;
    std::set<const CompiledType*> compiled;
    for (const auto& root : roots) {
      ASSERT_EQ(root->num_objects(), roots.front()->num_objects());
      for (ObjectId g = 0; g < root->num_objects(); ++g) {
        if (!root->is_base(g)) continue;
        EXPECT_EQ(root->base(g).compiled, roots.front()->base(g).compiled)
            << "object " << g;
        specs.insert(root->base(g).spec.get());
        compiled.insert(root->base(g).compiled.get());
      }
    }
    EXPECT_EQ(compiled.size(), specs.size());

    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      VerifyOptions options;
      options.limits.track_access_bounds = true;
      // A parallel run cut at its first violation reports lower bounds that
      // vary from run to run; explored to the end, every count and the first
      // violation in canonical order are exact.
      options.limits.stop_at_violation = false;
      options.threads = threads;
      const std::uint64_t compiles = CompiledType::compiled_count();
      const auto got = check_consensus(impl, options);
      EXPECT_EQ(CompiledType::compiled_count() - compiles, specs.size());
      testsup::ExpectSameCheck(got,
                               testsup::check_root_by_root(impl, options));
    }
  }
}

TEST(ConsensusScenario, RejectsBadInputs) {
  EXPECT_THROW(consensus::consensus_scenario(nullptr, {0, 1}),
               std::invalid_argument);
  EXPECT_THROW(
      consensus::consensus_scenario(consensus::from_test_and_set(), {0}),
      std::invalid_argument);
  EXPECT_THROW(
      consensus::consensus_scenario(consensus::from_test_and_set(), {0, 7}),
      std::invalid_argument);
}

}  // namespace
}  // namespace wfregs
