// Tests for the Section 4.3 construction: a bounded-use SRSW bit from
// r_b * (w_b + 1) one-use bits.
#include "wfregs/core/bounded_register.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <unordered_set>
#include <vector>

#include "wfregs/core/oneuse_from_type.hpp"
#include "wfregs/runtime/verify.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using core::bounded_bit_from_oneuse;
using core::oneuse_bits_needed;

const zoo::SrswRegisterLayout kBit{2};

TEST(OneUseBitsNeeded, MatchesPaperFormula) {
  EXPECT_EQ(oneuse_bits_needed(3, 2), 9);   // r_b (w_b + 1)
  EXPECT_EQ(oneuse_bits_needed(1, 0), 1);
  EXPECT_EQ(oneuse_bits_needed(0, 5), 0);
  EXPECT_THROW(oneuse_bits_needed(-1, 0), std::invalid_argument);
}

TEST(BoundedBit, StructureMatchesFormula) {
  const auto impl = bounded_bit_from_oneuse(3, 2, 0);
  EXPECT_EQ(impl->flattened_base_count(), 9);
  EXPECT_EQ(impl->iface().ports(), 2);
  EXPECT_THROW(bounded_bit_from_oneuse(1, 1, 7), std::out_of_range);
  EXPECT_THROW(bounded_bit_from_oneuse(-1, 1, 0), std::invalid_argument);
}

// Scenario sweep: writer performs a sequence of writes, reader interleaves
// reads; all schedules must linearize against the SRSW bit spec.
struct BoundedBitScenario {
  int initial;
  std::vector<int> writes;
  int reads;
};

// Names each instance by its fields. Without this gtest prints the raw
// bytes, heap pointers and padding included, so the test names (and the
// ctest names derived from them) changed from run to run.
void PrintTo(const BoundedBitScenario& sc, std::ostream* os) {
  *os << "initial " << sc.initial << ", writes ";
  if (sc.writes.empty()) *os << "none";
  for (const int w : sc.writes) *os << w;
  *os << ", reads " << sc.reads;
}

class BoundedBitSweep
    : public ::testing::TestWithParam<BoundedBitScenario> {};

TEST_P(BoundedBitSweep, LinearizableUnderAllSchedules) {
  const auto& sc = GetParam();
  // Value-changing writes are what consume rows.
  int changes = 0;
  int cur = sc.initial;
  for (const int w : sc.writes) {
    if (w != cur) ++changes;
    cur = w;
  }
  const auto impl =
      bounded_bit_from_oneuse(sc.reads, changes, sc.initial);
  std::vector<InvId> reader_script(static_cast<std::size_t>(sc.reads),
                                   kBit.read());
  std::vector<InvId> writer_script;
  for (const int w : sc.writes) writer_script.push_back(kBit.write(w));
  const auto r =
      verify_linearizable(impl, {reader_script, writer_script});
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_TRUE(r.wait_free);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, BoundedBitSweep,
    ::testing::Values(BoundedBitScenario{0, {1}, 1},
                      BoundedBitScenario{0, {1, 0}, 2},
                      BoundedBitScenario{1, {0, 1}, 2},
                      BoundedBitScenario{0, {1, 1, 0}, 2},
                      BoundedBitScenario{1, {}, 3},
                      BoundedBitScenario{0, {0, 0}, 2}));

TEST(BoundedBit, SameValueWritesCostNothing) {
  // w_b = 0: every write repeats the initial value and must still succeed.
  const auto impl = bounded_bit_from_oneuse(1, 0, 1);
  const auto r = verify_linearizable(
      impl, {{kBit.read()}, {kBit.write(1), kBit.write(1)}});
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(BoundedBit, ExceedingWriteBoundFailsLoudly) {
  const auto impl = bounded_bit_from_oneuse(1, 1, 0);
  EXPECT_THROW(verify_linearizable(
                   impl, {{}, {kBit.write(1), kBit.write(0)}}),
               std::runtime_error);
}

TEST(BoundedBit, ExceedingReadBoundFailsLoudly) {
  const auto impl = bounded_bit_from_oneuse(1, 1, 0);
  EXPECT_THROW(verify_linearizable(impl, {{kBit.read(), kBit.read()}, {}}),
               std::runtime_error);
}

// The paper's claim that the type's nondeterminism "will play no role": in
// all uses, no one-use bit is ever read in the DEAD state, so every access
// has exactly one possible transition.  We walk the whole configuration
// space and assert every pending access is deterministic.
TEST(BoundedBit, NoDeadReadsEver) {
  const auto impl = bounded_bit_from_oneuse(2, 2, 0);
  auto sys = std::make_shared<System>(2);
  const ObjectId obj = sys->add_implemented(impl, {0, 1});
  {
    ProgramBuilder b;
    b.invoke(0, lit(kBit.read()), 0);
    b.invoke(0, lit(kBit.read()), 0);
    b.ret(lit(0));
    sys->set_toplevel(0, b.build("reader"), {obj});
  }
  {
    ProgramBuilder b;
    b.invoke(0, lit(kBit.write(1)), 0);
    b.invoke(0, lit(kBit.write(0)), 0);
    b.ret(lit(0));
    sys->set_toplevel(1, b.build("writer"), {obj});
  }
  const Engine root{std::move(sys)};
  std::unordered_set<ConfigKey, ConfigKeyHash> seen;
  const auto walk = [&](const auto& self, const Engine& e) -> void {
    if (!seen.insert(e.config_key()).second) return;
    for (const ProcId p : e.runnable()) {
      ASSERT_EQ(e.pending_choices(p), 1)
          << "nondeterministic one-use-bit access (a DEAD read?)";
      Engine child = e;
      child.commit(p, 0);
      self(self, child);
    }
  };
  walk(walk, root);
  EXPECT_GT(seen.size(), 10u);
}

TEST(BoundedBit, WorksWithSynthesizedOneUseBits) {
  // One-use bits manufactured from test&set objects (Section 5.1) plugged
  // into the Section 4.3 array: the composed object is still an SRSW bit.
  const auto tas = zoo::test_and_set_type(2);
  const core::OneUseFactory factory = [&tas] {
    return core::oneuse_from_oblivious(tas);
  };
  const auto impl = bounded_bit_from_oneuse(2, 1, 0, factory);
  // All base objects are now test&sets.
  auto census_ok = true;
  for (const ObjectDecl& decl : impl->objects()) {
    census_ok = census_ok && !decl.is_base();
  }
  EXPECT_TRUE(census_ok);
  const auto r = verify_linearizable(
      impl, {{kBit.read(), kBit.read()}, {kBit.write(1)}});
  EXPECT_TRUE(r.ok) << r.detail;
}

}  // namespace
}  // namespace wfregs
