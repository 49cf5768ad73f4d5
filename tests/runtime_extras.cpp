// Further runtime-layer tests: object placement bookkeeping, per-port
// persistent state, history error paths, verify() argument checking, the
// scripted drivers' response fold on long scripts, and a
// crash-tolerance scenario exercising the wait-freedom semantics the paper's
// model is built on (a stopped process cannot block others, and the
// resulting history with a pending operation is still linearizable).
#include <gtest/gtest.h>

#include "test_support.hpp"
#include "wfregs/core/bounded_register.hpp"
#include "wfregs/runtime/linearizability.hpp"
#include "wfregs/runtime/regularity.hpp"
#include "wfregs/runtime/verify.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::make_impl;
using testsup::one_shot;
using testsup::share;

// ---- placement -----------------------------------------------------------------

TEST(Placement, PathsIdentifyNestedObjects) {
  // outer implemented object with: [0] base bit, [1] nested impl holding a
  // base bit of its own.
  const auto bit = share(zoo::bit_type(1));
  auto inner = make_impl("inner", share(zoo::bit_type(1)), 0);
  const int inner_slot = inner->add_base(bit, 0, {0});
  inner->set_program_all_ports(0, one_shot("r", inner_slot, 0));
  auto outer = make_impl("outer", share(zoo::bit_type(1)), 0);
  outer->add_base(bit, 0, {0});
  const int nested = outer->add_nested(inner, {0});
  outer->set_program_all_ports(0, one_shot("r", nested, 0));

  auto sys = std::make_shared<System>(1);
  const ObjectId top = sys->add_implemented(outer, {0});
  sys->set_toplevel(0, one_shot("main", 0, 0), {top});

  // Flatten order: outer's base bit, inner's base bit, inner virtual, outer.
  ASSERT_EQ(sys->num_objects(), 4);
  EXPECT_EQ(sys->placement(0).top, top);
  EXPECT_EQ(sys->placement(0).path, (std::vector<int>{0}));
  EXPECT_EQ(sys->placement(1).path, (std::vector<int>{1, 0}));
  EXPECT_EQ(sys->placement(2).path, (std::vector<int>{1}));
  EXPECT_TRUE(sys->placement(top).path.empty());
  // resolve() inverts placement().
  for (ObjectId g = 0; g < sys->num_objects(); ++g) {
    EXPECT_EQ(sys->resolve(top, sys->placement(g).path), g);
  }
  EXPECT_THROW(sys->resolve(top, std::array<int, 1>{9}), std::out_of_range);
  EXPECT_THROW(sys->placement(99), std::out_of_range);
}

// ---- persistent per-port state -----------------------------------------------------

TEST(PersistentState, SurvivesAcrossOperationsPerPort) {
  // An implemented "counter view": op() returns how many times THIS port
  // called it (kept in persistent register 0); the shared bit is only
  // touched to consume a step.
  const auto bit_spec = share(zoo::bit_type(2));
  const zoo::RegisterLayout lay{2};
  auto impl = make_impl("percall", share(zoo::mod_counter_type(8, 2)), 0);
  const int scratch = impl->add_base(bit_spec, 0, {0, 1});
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
    b.invoke(0, lit(0), 2);
    b.ret(reg(2));
    sys->set_toplevel(p, b.build("driver" + std::to_string(p)), {obj});
  }
  Engine e{std::move(sys)};
  while (!e.all_done()) {
    for (const ProcId p : e.runnable()) e.commit(p);
  }
  // Each port counted ITS OWN three calls: persistence is per port.
  EXPECT_EQ(e.result(0), 3);
  EXPECT_EQ(e.result(1), 3);
}

// ---- history error paths -------------------------------------------------------------

TEST(History, ErrorPaths) {
  History h;
  const int op = h.begin_op(0, 0, 0, 0, 1);
  EXPECT_THROW(h.end_op(99, 0, 2), std::out_of_range);
  h.end_op(op, 5, 2);
  EXPECT_THROW(h.end_op(op, 5, 3), std::logic_error);
  EXPECT_NE(h.to_string().find("op0"), std::string::npos);
}

// ---- verify() argument checking -----------------------------------------------------

TEST(Verify, ArgumentChecking) {
  EXPECT_THROW(verify_linearizable(nullptr, {}), std::invalid_argument);
  const auto impl = core::bounded_bit_from_oneuse(1, 1, 0);
  EXPECT_THROW(verify_linearizable(impl, {{}}), std::invalid_argument);
}

/// bit_type(2) implemented over one inner bit: every operation is passed
/// through, except that with `stale_reads` a read returns 0 without looking.
std::shared_ptr<const Implementation> passthrough_bit(bool stale_reads) {
  const zoo::RegisterLayout lay{2};
  auto impl = make_impl(stale_reads ? "stale_bit" : "passthrough_bit",
                        share(zoo::bit_type(2)), 0);
  const int inner = impl->add_base(share(zoo::bit_type(2)), 0, {0, 1});
  impl->set_program_all_ports(
      lay.read(), stale_reads ? testsup::constant("read", lay.value_resp(0))
                              : one_shot("read", inner, lay.read()));
  for (const int v : {0, 1}) {
    impl->set_program_all_ports(lay.write(v),
                                one_shot("write", inner, lay.write(v)));
  }
  return impl;
}

TEST(Verify, LongScriptsFoldEveryResponseWithoutOverflow) {
  // The drivers fold each response in radix num_responses + 1 (4 for a
  // bit), so 8-operation scripts stay far from INT64_MAX; the old radix
  // 2^20 overflowed at the fifth operation.  Both verifiers must give the
  // right verdict: the stale bit is caught by a read after a write of 1.
  const zoo::RegisterLayout lay{2};
  const std::vector<std::vector<InvId>> scripts = {
      {lay.write(1), lay.read(), lay.write(0), lay.read(), lay.write(1),
       lay.read(), lay.read(), lay.read()},
      {lay.read(), lay.read(), lay.read(), lay.read(), lay.read(), lay.read(),
       lay.read(), lay.read()}};
  VerifyOptions options;
  options.threads = 1;
  const auto good = verify_linearizable(passthrough_bit(false), scripts,
                                        options);
  EXPECT_TRUE(good.ok) << good.detail;
  const auto stale = verify_linearizable(passthrough_bit(true), scripts,
                                         options);
  EXPECT_TRUE(stale.complete);
  EXPECT_FALSE(stale.ok);
  EXPECT_TRUE(verify_regular(passthrough_bit(false), scripts, 2, options).ok);
  EXPECT_FALSE(verify_regular(passthrough_bit(true), scripts, 2, options).ok);
}

TEST(Verify, OverlongScriptsAreRejected) {
  // A bit has 3 responses, so the fold is in radix 4: 4^31 = 2^62 fits an
  // int64, 4^32 does not.
  const zoo::RegisterLayout lay{2};
  VerifyOptions options;
  options.threads = 1;
  const std::vector<std::vector<InvId>> longest = {
      std::vector<InvId>(31, lay.read()), {}};
  EXPECT_TRUE(verify_linearizable(passthrough_bit(false), longest, options).ok);
  EXPECT_TRUE(verify_regular(passthrough_bit(false), longest, 2, options).ok);
  const std::vector<std::vector<InvId>> overlong = {
      std::vector<InvId>(32, lay.read()), {}};
  EXPECT_THROW(verify_linearizable(passthrough_bit(false), overlong, options),
               std::invalid_argument);
  EXPECT_THROW(verify_regular(passthrough_bit(false), overlong, 2, options),
               std::invalid_argument);
}

// ---- crash tolerance ------------------------------------------------------------------

TEST(CrashTolerance, StoppedWriterCannotBlockTheReader) {
  // The Section 4.3 bit: the writer "crashes" mid-write (we simply stop
  // scheduling it after its first one-use-bit access).  Wait-freedom means
  // the reader still finishes, and the history -- with the write pending --
  // is linearizable (the pending write may be linearized or dropped).
  const zoo::SrswRegisterLayout bit{2};
  const auto impl = core::bounded_bit_from_oneuse(2, 2, 0);
  auto sys = std::make_shared<System>(2);
  const ObjectId obj = sys->add_implemented(impl, {0, 1});
  {
    ProgramBuilder b;
    b.invoke(0, lit(bit.read()), 0);
    b.invoke(0, lit(bit.read()), 1);
    b.ret(reg(1));
    sys->set_toplevel(0, b.build("reader"), {obj});
  }
  sys->set_toplevel(1, one_shot("writer", 0, bit.write(1)), {obj});
  Engine e{std::move(sys)};
  // Writer performs exactly one low-level step of its write, then crashes.
  e.commit(1);
  EXPECT_FALSE(e.done(1));
  // The reader must finish on its own steps alone.
  int guard = 0;
  while (!e.done(0)) {
    e.commit(0);
    ASSERT_LT(++guard, 100) << "reader did not finish: not wait-free";
  }
  const auto ops = e.history().ops_on(obj);
  ASSERT_EQ(ops.size(), 3u);  // 2 reads + 1 pending write
  int pending = 0;
  for (const auto& op : ops) {
    if (!op.response) {
      ++pending;
      EXPECT_EQ(op.inv, bit.write(1));  // the crashed write
    }
  }
  EXPECT_EQ(pending, 1);
  const auto spec = zoo::srsw_bit_type();
  EXPECT_TRUE(check_linearizable(ops, spec, 0).linearizable)
      << describe_history(ops, spec);
}

TEST(CrashTolerance, AllCrashPointsLeaveLinearizableHistories) {
  // Sweep every prefix length k: writer takes k steps then crashes; reader
  // runs to completion; history must linearize for every k.
  const zoo::SrswRegisterLayout bit{2};
  const auto spec = zoo::srsw_bit_type();
  for (int k = 0; k < 8; ++k) {
    const auto impl = core::bounded_bit_from_oneuse(2, 2, 0);
    auto sys = std::make_shared<System>(2);
    const ObjectId obj = sys->add_implemented(impl, {0, 1});
    {
      ProgramBuilder b;
      b.invoke(0, lit(bit.read()), 0);
      b.invoke(0, lit(bit.read()), 1);
      b.ret(reg(1));
      sys->set_toplevel(0, b.build("reader"), {obj});
    }
    {
      ProgramBuilder b;
      b.invoke(0, lit(bit.write(1)), 0);
      b.invoke(0, lit(bit.write(0)), 1);
      b.ret(lit(0));
      sys->set_toplevel(1, b.build("writer"), {obj});
    }
    Engine e{std::move(sys)};
    for (int s = 0; s < k && !e.done(1); ++s) e.commit(1);
    while (!e.done(0)) e.commit(0);
    const auto ops = e.history().ops_on(obj);
    EXPECT_TRUE(check_linearizable(ops, spec, 0).linearizable)
        << "crash point " << k << ":\n"
        << describe_history(ops, spec);
  }
}

// ---- stack type (zoo extension) ------------------------------------------------------

TEST(StackType, LifoSemantics) {
  const auto t = zoo::stack_type(3, 2, 2);
  const zoo::StackLayout lay{3, 2};
  const StateId empty = lay.state_of(std::array<int, 0>{});
  StateId q = t.delta_det(empty, 0, lay.push(1)).next;
  q = t.delta_det(q, 0, lay.push(0)).next;
  auto tr = t.delta_det(q, 0, lay.pop());
  EXPECT_EQ(tr.resp, lay.top_value(0));  // LIFO: last pushed first
  tr = t.delta_det(tr.next, 0, lay.pop());
  EXPECT_EQ(tr.resp, lay.top_value(1));
  tr = t.delta_det(tr.next, 0, lay.pop());
  EXPECT_EQ(tr.resp, lay.empty());
}

TEST(StackType, FullAndErrors) {
  const auto t = zoo::stack_type(1, 2, 2);
  const zoo::StackLayout lay{1, 2};
  const std::array<int, 1> one{1};
  const StateId full = lay.state_of(one);
  EXPECT_EQ(t.delta_det(full, 0, lay.push(0)).resp, lay.full());
  EXPECT_EQ(t.delta_det(full, 0, lay.push(0)).next, full);
  EXPECT_THROW(zoo::stack_type(0, 2, 2), std::invalid_argument);
  const std::array<int, 2> too_long{0, 0};
  EXPECT_THROW(lay.state_of(too_long), std::out_of_range);
}

}  // namespace
}  // namespace wfregs
