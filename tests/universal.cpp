// Tests for the universality layer (Section 2.3): multi-valued consensus
// from binary consensus + registers, and Herlihy's universal construction
// of arbitrary deterministic types from consensus slots.
#include "wfregs/consensus/universal.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "wfregs/consensus/multivalued.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/runtime/verify.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using consensus::binary_slot_factory;
using consensus::multivalued_from_binary;
using consensus::universal_implementation;

// ---- multi-valued consensus -----------------------------------------------------

// Exhaustively checks agreement + validity of a multi-valued consensus
// implementation for every input vector over `values`.
void check_multivalued(const std::shared_ptr<const Implementation>& impl,
                       int values, int n) {
  const zoo::MultiConsensusLayout lay{values};
  std::vector<int> inputs(static_cast<std::size_t>(n), 0);
  const auto next_vector = [&inputs, values]() -> bool {
    for (auto& v : inputs) {
      if (++v < values) return true;
      v = 0;
    }
    return false;
  };
  do {
    auto sys = std::make_shared<System>(n);
    std::vector<PortId> ports;
    for (PortId p = 0; p < n; ++p) ports.push_back(p);
    const ObjectId obj = sys->add_implemented(impl, ports);
    for (ProcId p = 0; p < n; ++p) {
      ProgramBuilder b;
      b.invoke(0, lit(lay.propose(inputs[static_cast<std::size_t>(p)])), 0);
      b.ret(reg(0));
      sys->set_toplevel(p, b.build(testsup::indexed_name("p", p)), {obj});
    }
    const auto check = [&inputs, n](const Engine& e)
        -> std::optional<std::string> {
      const Val decided = *e.result(0);
      for (ProcId p = 1; p < n; ++p) {
        if (*e.result(p) != decided) return "agreement violated";
      }
      for (int p = 0; p < n; ++p) {
        if (inputs[static_cast<std::size_t>(p)] == decided) {
          return std::nullopt;
        }
      }
      return "validity violated";
    };
    const Engine root{std::move(sys)};
    const auto out = explore(root, ExploreLimits{}, check);
    ASSERT_TRUE(out.wait_free);
    ASSERT_TRUE(out.complete);
    ASSERT_FALSE(out.violation.has_value())
        << *out.violation << " for inputs vector starting with "
        << inputs[0];
  } while (next_vector());
}

TEST(MultivaluedConsensus, TwoProcessesFourValues) {
  check_multivalued(multivalued_from_binary(4, 2), 4, 2);
}

TEST(MultivaluedConsensus, TwoProcessesThreeValues) {
  // Non-power-of-two value count exercises the prefix-matching path.
  check_multivalued(multivalued_from_binary(3, 2), 3, 2);
}

TEST(MultivaluedConsensus, ThreeProcessesThreeValues) {
  check_multivalued(multivalued_from_binary(3, 3), 3, 3);
}

TEST(MultivaluedConsensus, RejectsBadShapes) {
  EXPECT_THROW(multivalued_from_binary(1, 2), std::invalid_argument);
  EXPECT_THROW(multivalued_from_binary(2, 0), std::invalid_argument);
}

// ---- the universal construction ---------------------------------------------------

TEST(Universal, RegisterFromConsensusSlots) {
  const auto bit = zoo::bit_type(2);
  const zoo::RegisterLayout lay{2};
  const auto impl = universal_implementation(bit, 0, /*log_length=*/6);
  const auto r = verify_linearizable(
      impl, {{lay.write(1), lay.read()}, {lay.read(), lay.write(0)}});
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_TRUE(r.wait_free);
}

TEST(Universal, TestAndSetFromConsensusSlots) {
  const auto tas = zoo::test_and_set_type(2);
  const zoo::TestAndSetLayout lay;
  const auto impl = universal_implementation(tas, 0, 4);
  const auto r = verify_linearizable(
      impl, {{lay.test_and_set()}, {lay.test_and_set()}});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Universal, QueueFromConsensusSlots) {
  const auto q = zoo::queue_type(2, 2, 2);
  const zoo::QueueLayout lay{2, 2};
  const auto impl =
      universal_implementation(q, lay.state_of(std::array<int, 0>{}), 5);
  const auto r = verify_linearizable(
      impl,
      {{lay.enqueue(1), lay.dequeue()}, {lay.enqueue(0), lay.dequeue()}});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Universal, ThreeProcessCounter) {
  const auto counter = zoo::mod_counter_type(4, 3);
  const auto impl = universal_implementation(counter, 0, 4);
  const auto r = verify_linearizable(impl, {{0}, {0}, {0}});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Universal, LogExhaustionFailsLoudly) {
  const auto bit = zoo::bit_type(2);
  const zoo::RegisterLayout lay{2};
  const auto impl = universal_implementation(bit, 0, /*log_length=*/1);
  EXPECT_THROW(
      verify_linearizable(impl, {{lay.read(), lay.read()}, {}}),
      std::runtime_error);
}

TEST(Universal, ComposedDownToBinaryConsensusAndRegisters) {
  // The full tower: a bit implemented from consensus slots, each slot
  // multi-valued consensus from BINARY consensus + registers.  One
  // concurrent race, exhaustively explored.
  const auto bit = zoo::bit_type(2);
  const zoo::RegisterLayout lay{2};
  const auto impl =
      universal_implementation(bit, 0, 3, binary_slot_factory());
  EXPECT_GT(impl->flattened_base_count(), 10);
  const auto r = verify_linearizable(impl, {{lay.write(1)}, {lay.read()}});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(Universal, RejectsBadInput) {
  EXPECT_THROW(universal_implementation(zoo::nondet_coin_type(2), 0, 4),
               std::invalid_argument);
  EXPECT_THROW(universal_implementation(zoo::bit_type(2), 9, 4),
               std::out_of_range);
  EXPECT_THROW(universal_implementation(zoo::bit_type(2), 0, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace wfregs
