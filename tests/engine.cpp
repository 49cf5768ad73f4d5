// Tests for System flattening and Engine stepping semantics: base accesses,
// nested implemented objects, port plumbing, nondeterministic choice,
// history recording and configuration keys.
#include "wfregs/runtime/engine.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "test_support.hpp"
#include "wfregs/runtime/scheduler.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::constant;
using testsup::make_impl;
using testsup::one_shot;
using testsup::share;
using testsup::two_shot;

TEST(System, RejectsBadConstruction) {
  EXPECT_THROW(System(0), std::invalid_argument);
  System sys(2);
  EXPECT_THROW(sys.add_base(nullptr, 0, {0, 1}), std::invalid_argument);
  const auto bit = share(zoo::bit_type(2));
  EXPECT_THROW(sys.add_base(bit, 5, {0, 1}), std::out_of_range);
  EXPECT_THROW(sys.add_base(bit, 0, {0}), std::invalid_argument);
  EXPECT_THROW(sys.add_base(bit, 0, {0, 7}), std::out_of_range);
}

TEST(Engine, WriteThenReadOnBaseRegister) {
  const auto reg4 = share(zoo::register_type(4, 2));
  const zoo::RegisterLayout lay{4};
  auto sys = std::make_shared<System>(2);
  const ObjectId r = sys->add_base(reg4, lay.state_of(0), {0, 1});
  // p0: write(3) then read; p1: read.
  sys->set_toplevel(0, two_shot("p0", 0, lay.write(3), lay.read()), {r});
  sys->set_toplevel(1, one_shot("p1", 0, lay.read()), {r});
  Engine e(std::move(sys));
  // Run p0 fully first, then p1.
  e.commit(0);  // write(3)
  e.commit(0);  // read
  EXPECT_TRUE(e.done(0));
  EXPECT_EQ(e.result(0), lay.value_resp(3));
  e.commit(1);
  EXPECT_EQ(e.result(1), lay.value_resp(3));
  EXPECT_TRUE(e.all_done());
  EXPECT_EQ(e.time(), 3u);
}

TEST(Engine, ProcessWithoutSharedAccessFinishesImmediately) {
  auto sys = std::make_shared<System>(1);
  sys->set_toplevel(0, constant("noop", 17), {});
  Engine e(std::move(sys));
  EXPECT_TRUE(e.all_done());
  EXPECT_EQ(e.result(0), 17);
  EXPECT_TRUE(e.runnable().empty());
}

TEST(Engine, PortsRouteToTypeDelta) {
  // port_flag: port 0 observes, port 1 raises.
  const auto flag = share(zoo::port_flag_type(2));
  const zoo::PortFlagLayout lay;
  auto sys = std::make_shared<System>(2);
  // Process 0 holds port 1 (writer), process 1 holds port 0 (reader).
  const ObjectId f = sys->add_base(flag, 0, {1, 0});
  sys->set_toplevel(0, one_shot("toucher", 0, lay.touch()), {f});
  sys->set_toplevel(1, one_shot("observer", 0, lay.touch()), {f});
  Engine e(std::move(sys));
  e.commit(0);  // raise via port 1
  e.commit(1);  // observe via port 0
  EXPECT_EQ(e.result(0), lay.ok());
  EXPECT_EQ(e.result(1), lay.one());
}

TEST(Engine, NondeterministicAccessExposesChoices) {
  const auto oub = share(zoo::one_use_bit_type());
  const zoo::OneUseBitLayout lay;
  auto sys = std::make_shared<System>(1);
  // Read the bit twice: the second read happens in DEAD and has 2 choices.
  const ObjectId b = sys->add_base(oub, lay.dead(), {0});
  sys->set_toplevel(0, one_shot("deadread", 0, lay.read()), {b});
  Engine e(std::move(sys));
  EXPECT_EQ(e.pending_choices(0), 2);
  Engine e1 = e;
  e1.commit(0, 0);
  EXPECT_EQ(e1.result(0), lay.zero());
  Engine e2 = e;
  e2.commit(0, 1);
  EXPECT_EQ(e2.result(0), lay.one());
  EXPECT_THROW(e.commit(0, 2), std::out_of_range);
}

// An implemented "negated bit": read returns 1-v, write(v) stores 1-v.
std::shared_ptr<Implementation> negated_bit_impl(int ports) {
  const zoo::RegisterLayout lay{2};
  auto impl = make_impl("negated_bit", share(zoo::bit_type(ports)), 0);
  std::vector<PortId> identity;
  for (int p = 0; p < ports; ++p) identity.push_back(p);
  const int slot = impl->add_base(share(zoo::bit_type(ports)), 1, identity);
  {
    ProgramBuilder b;
    b.invoke(slot, lit(lay.read()), 0);
    b.ret(lit(1) - reg(0));
    impl->set_program_all_ports(lay.read(), b.build("negread"));
  }
  for (int v = 0; v < 2; ++v) {
    ProgramBuilder b;
    b.invoke(slot, lit(lay.write(1 - v)), 0);
    b.ret(lit(lay.ok()));
    impl->set_program_all_ports(lay.write(v), b.build("negwrite"));
  }
  return impl;
}

TEST(Engine, ImplementedObjectRunsItsPrograms) {
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(2);
  const ObjectId nb = sys->add_implemented(negated_bit_impl(2), {0, 1});
  sys->set_toplevel(0, two_shot("p0", 0, lay.write(1), lay.read()), {nb});
  sys->set_toplevel(1, one_shot("p1", 0, lay.read()), {nb});
  Engine e(std::move(sys));
  e.commit(0);  // inner write(0)
  e.commit(0);  // inner read -> 0, negated to 1
  e.commit(1);
  EXPECT_EQ(e.result(0), lay.value_resp(1));
  EXPECT_EQ(e.result(1), lay.value_resp(1));
  // The negated-bit ops were recorded in the history.
  const auto& ops = e.history().ops();
  ASSERT_EQ(ops.size(), 3u);
  EXPECT_EQ(ops[0].inv, lay.write(1));
  EXPECT_EQ(ops[0].proc, 0);
  ASSERT_TRUE(ops[0].response.has_value());
  EXPECT_EQ(*ops[0].response, lay.ok());
  EXPECT_LT(ops[0].invoke_time, ops[0].response_time);
}

// Two processes writing then reading one negated bit.  `held`, when
// non-null, receives the implementation and programs, as a caller that
// keeps its own pointers would.
std::shared_ptr<System> negated_bit_system(
    std::vector<std::shared_ptr<const void>>* held) {
  const zoo::RegisterLayout lay{2};
  auto impl = negated_bit_impl(2);
  auto p0 = two_shot("p0", 0, lay.write(1), lay.read());
  auto p1 = two_shot("p1", 0, lay.write(0), lay.read());
  auto sys = std::make_shared<System>(2);
  const ObjectId nb = sys->add_implemented(impl, {0, 1});
  sys->set_toplevel(0, p0, {nb});
  sys->set_toplevel(1, p1, {nb});
  if (held) held->insert(held->end(), {impl, p0, p1});
  return sys;
}

TEST(Engine, FramesNeedOnlyTheSystemToOwnPrograms) {
  // Frames point at programs without owning them: the System owns every
  // implementation and program, and every engine copy shares the System.
  // So an engine whose creator dropped all its pointers -- the System's
  // included -- must behave exactly like one whose creator kept them.
  std::vector<std::shared_ptr<const void>> held;
  Engine reference(negated_bit_system(&held));
  std::optional<Engine> original;
  original.emplace(negated_bit_system(nullptr));
  Engine e = *original;
  original.reset();  // the copy is now the System's only owner
  EXPECT_EQ(e.config_key(), reference.config_key());
  e.commit(0);  // p0 is inside the negated bit's write program
  reference.commit(0);
  EXPECT_EQ(e.config_key(), reference.config_key());
  const ConfigKey before = e.config_key();
  Engine::UndoRecord undo;
  Engine::UndoRecord reference_undo;
  for (int round = 0; round < 2; ++round) {  // the second reuses the records
    e.apply(1, 0, undo);
    reference.apply(1, 0, reference_undo);
    EXPECT_EQ(e.config_key(), reference.config_key());
    e.revert(undo);
    reference.revert(reference_undo);
    EXPECT_EQ(e.config_key(), before);
    EXPECT_EQ(reference.config_key(), before);
  }
  while (!e.all_done()) {
    const ProcId p = e.runnable().front();
    e.commit(p);
    reference.commit(p);
    EXPECT_EQ(e.config_key(), reference.config_key());
  }
  EXPECT_EQ(e.result(0), reference.result(0));
  EXPECT_EQ(e.result(1), reference.result(1));
}

TEST(Engine, NestedImplementationsFlatten) {
  // A negated-negated bit: behaves like a plain bit, two layers deep.
  const zoo::RegisterLayout lay{2};
  auto outer =
      make_impl("double_negated_bit", share(zoo::bit_type(2)), 0);
  const int slot = outer->add_nested(negated_bit_impl(2), {0, 1});
  outer->set_program_all_ports(lay.read(), one_shot("fwdread", slot,
                                                    lay.read()));
  for (int v = 0; v < 2; ++v) {
    outer->set_program_all_ports(lay.write(v),
                                 one_shot("fwdwrite", slot, lay.write(v)));
  }
  auto sys = std::make_shared<System>(1);
  const ObjectId obj = sys->add_implemented(outer, {0});
  sys->set_toplevel(0, two_shot("p0", 0, lay.write(1), lay.read()), {obj});
  Engine e(std::move(sys));
  EXPECT_EQ(e.system().num_base_objects(), 1);
  EXPECT_EQ(e.system().num_objects(), 3);  // bit, negated, double-negated
  e.commit(0);
  e.commit(0);
  EXPECT_EQ(e.result(0), lay.value_resp(1));
}

TEST(Engine, NoPortAccessIsRejected) {
  const auto bit = share(zoo::bit_type(2));
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(2);
  const ObjectId b = sys->add_base(bit, 0, {0, kNoPort});
  sys->set_toplevel(0, one_shot("ok", 0, lay.read()), {b});
  sys->set_toplevel(1, one_shot("bad", 0, lay.read()), {b});
  EXPECT_THROW(Engine e(std::move(sys)), std::logic_error);
}

TEST(Engine, UnknownSlotIsRejected) {
  auto sys = std::make_shared<System>(1);
  sys->set_toplevel(0, one_shot("bad", 3, 0), {});
  EXPECT_THROW(Engine e(std::move(sys)), std::logic_error);
}

TEST(Engine, AccessCountsPerObjectAndInvocation) {
  const auto reg2 = share(zoo::bit_type(1));
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(1);
  const ObjectId r = sys->add_base(reg2, 0, {0});
  sys->set_toplevel(0, two_shot("p0", 0, lay.write(1), lay.read()), {r});
  Engine e(std::move(sys));
  e.commit(0);
  e.commit(0);
  EXPECT_EQ(e.access_count(r), 2u);
  EXPECT_EQ(e.access_count(r, lay.read()), 1u);
  EXPECT_EQ(e.access_count(r, lay.write(1)), 1u);
  EXPECT_EQ(e.access_count(r, lay.write(0)), 0u);
}

TEST(Engine, ConfigKeysIdentifyConfigurations) {
  const auto bit = share(zoo::bit_type(2));
  const zoo::RegisterLayout lay{2};
  // Keys embed program identity, so they are only comparable between
  // engines over the same System instance.
  auto sys = std::make_shared<System>(2);
  const ObjectId bid = sys->add_base(bit, 0, {0, 1});
  sys->set_toplevel(0, two_shot("p0", 0, lay.write(1), lay.read()), {bid});
  sys->set_toplevel(1, one_shot("p1", 0, lay.write(1)), {bid});
  Engine a{sys};
  Engine b = a;  // copied engine: same configuration
  EXPECT_EQ(a.config_key(), b.config_key());
  b.commit(0);
  EXPECT_FALSE(a.config_key() == b.config_key());
  a.commit(0);
  EXPECT_EQ(a.config_key(), b.config_key());
  // Different schedules reaching equivalent configurations compare equal:
  // both processes write 1, so either order leaves the same configuration.
  Engine c{sys};
  Engine d{sys};
  c.commit(0);
  c.commit(1);
  d.commit(1);
  d.commit(0);
  EXPECT_EQ(c.config_key(), d.config_key());
  const ConfigKeyHash h;
  EXPECT_EQ(h(c.config_key()), h(d.config_key()));
}

TEST(Engine, RunToCompletionWithSchedulers) {
  const auto reg4 = share(zoo::register_type(4, 3));
  const zoo::RegisterLayout lay{4};
  auto sys = std::make_shared<System>(3);
  const ObjectId r = sys->add_base(reg4, 0, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p) {
    sys->set_toplevel(
        p, two_shot("p" + std::to_string(p), 0, lay.write(p + 1), lay.read()),
        {r});
  }
  {
    Engine e{std::make_shared<System>(*sys)};
    RoundRobinScheduler sched;
    FirstChooser chooser;
    EXPECT_TRUE(run_to_completion(e, sched, chooser));
    EXPECT_TRUE(e.all_done());
  }
  {
    Engine e{std::make_shared<System>(*sys)};
    RandomScheduler sched(123);
    RandomChooser chooser(456);
    EXPECT_TRUE(run_to_completion(e, sched, chooser));
    // Every process read one of the written values.
    for (ProcId p = 0; p < 3; ++p) {
      const Val v = *e.result(p);
      EXPECT_GE(v, 1);
      EXPECT_LE(v, 3);
    }
  }
}

}  // namespace
}  // namespace wfregs
