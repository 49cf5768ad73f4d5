// Tests for the scheduler family: round-robin fairness, replay pinning, and
// the contention-seeking adversary.
#include "wfregs/runtime/scheduler.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "wfregs/core/bounded_register.hpp"
#include "wfregs/runtime/linearizability.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::indexed_name;
using testsup::share;
using testsup::two_shot;

std::shared_ptr<System> two_writer_system(
    const std::shared_ptr<const TypeSpec>& reg4) {
  const zoo::RegisterLayout lay{4};
  auto sys = std::make_shared<System>(2);
  const ObjectId r = sys->add_base(reg4, 0, {0, 1});
  for (ProcId p = 0; p < 2; ++p) {
    sys->set_toplevel(
        p, two_shot(indexed_name("p", p), 0, lay.write(p + 1), lay.read()),
        {r});
  }
  return sys;
}

TEST(RoundRobin, AlternatesAmongRunnable) {
  const auto reg4 = share(zoo::register_type(4, 2));
  Engine e{two_writer_system(reg4)};
  RoundRobinScheduler sched;
  std::vector<ProcId> order;
  FirstChooser chooser;
  while (!e.all_done()) {
    const ProcId p = sched.pick(e, e.runnable());
    order.push_back(p);
    e.commit(p, 0);
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order, (std::vector<ProcId>{0, 1, 0, 1}));
}

TEST(Replay, PinsASchedule) {
  const auto reg4 = share(zoo::register_type(4, 2));
  Engine e{two_writer_system(reg4)};
  ReplayScheduler sched({1, 1, 0, 0});
  FirstChooser chooser;
  EXPECT_TRUE(run_to_completion(e, sched, chooser));
  // p1 ran fully first: p1 reads its own 2, p0 reads its own 1.
  const zoo::RegisterLayout lay{4};
  EXPECT_EQ(e.result(1), lay.value_resp(2));
  EXPECT_EQ(e.result(0), lay.value_resp(1));
}

TEST(Replay, ErrorsOnBadSequences) {
  const auto reg4 = share(zoo::register_type(4, 2));
  {
    Engine e{two_writer_system(reg4)};
    ReplayScheduler sched({0});
    FirstChooser chooser;
    EXPECT_THROW(run_to_completion(e, sched, chooser), std::out_of_range);
  }
  {
    Engine e{two_writer_system(reg4)};
    ReplayScheduler sched({0, 0, 0, 1, 1});  // p0 done after 2 steps
    FirstChooser chooser;
    EXPECT_THROW(run_to_completion(e, sched, chooser), std::out_of_range);
  }
}

TEST(Adversary, InterleavesRacingProcesses) {
  // Both processes hammer one register: the adversary must alternate, not
  // let either run solo.
  const auto reg4 = share(zoo::register_type(4, 2));
  Engine e{two_writer_system(reg4)};
  AdversarialScheduler sched;
  std::vector<ProcId> order;
  while (!e.all_done()) {
    const ProcId p = sched.pick(e, e.runnable());
    order.push_back(p);
    e.commit(p, 0);
  }
  ASSERT_EQ(order.size(), 4u);
  EXPECT_NE(order[0], order[1]);  // alternation within the racing pair
  EXPECT_NE(order[1], order[2]);
}

TEST(Adversary, DrivesLinearizableRunsOnRealConstructions) {
  // Adversarial single runs over the bounded-bit construction still produce
  // linearizable histories (sanity: the adversary is a stressor, not a
  // soundness hazard).
  const zoo::SrswRegisterLayout bit{2};
  const auto impl = core::bounded_bit_from_oneuse(2, 2, 0);
  auto sys = std::make_shared<System>(2);
  const ObjectId obj = sys->add_implemented(impl, {0, 1});
  {
    ProgramBuilder b;
    b.invoke(0, lit(bit.read()), 0);
    b.invoke(0, lit(bit.read()), 0);
    b.ret(lit(0));
    sys->set_toplevel(0, b.build("reader"), {obj});
  }
  {
    ProgramBuilder b;
    b.invoke(0, lit(bit.write(1)), 0);
    b.invoke(0, lit(bit.write(0)), 0);
    b.ret(lit(0));
    sys->set_toplevel(1, b.build("writer"), {obj});
  }
  Engine e{std::move(sys)};
  AdversarialScheduler sched;
  FirstChooser chooser;
  ASSERT_TRUE(run_to_completion(e, sched, chooser));
  const auto ops = e.history().ops_on(obj);
  const auto spec = zoo::srsw_bit_type();
  EXPECT_TRUE(check_linearizable(ops, spec, 0).linearizable)
      << describe_history(ops, spec);
}

}  // namespace
}  // namespace wfregs
