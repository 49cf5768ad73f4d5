// Tests for the exhaustive explorer: depth computation, cycle detection
// (non-wait-freedom), terminal checks, nondeterministic branching and
// access-bound tracking.
#include "wfregs/runtime/explorer.hpp"

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::indexed_name;
using testsup::one_shot;
using testsup::share;
using testsup::two_shot;

TEST(Explorer, SingleProcessStraightLine) {
  const auto bit = share(zoo::bit_type(1));
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(1);
  const ObjectId b = sys->add_base(bit, 0, {0});
  sys->set_toplevel(0, two_shot("p0", 0, lay.write(1), lay.read()), {b});
  const Engine root{std::move(sys)};
  const auto out = explore(root);
  EXPECT_TRUE(out.wait_free);
  EXPECT_TRUE(out.complete);
  EXPECT_FALSE(out.violation.has_value());
  EXPECT_EQ(out.stats.depth, 2);
  EXPECT_EQ(out.stats.terminals, 1u);
  EXPECT_EQ(out.stats.configs, 3u);  // initial, after write, after read
}

TEST(Explorer, TwoProcessInterleavingsShareConfigs) {
  // Two writers to distinct registers: 2 interleavings, diamond-shaped DAG.
  const auto bit = share(zoo::bit_type(1));
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(2);
  const ObjectId b0 = sys->add_base(bit, 0, {0, kNoPort});
  const ObjectId b1 = sys->add_base(bit, 0, {kNoPort, 0});
  sys->set_toplevel(0, one_shot("p0", 0, lay.write(1)), {b0});
  sys->set_toplevel(1, one_shot("p1", 0, lay.write(1)), {b1});
  const Engine root{std::move(sys)};
  const auto out = explore(root);
  EXPECT_TRUE(out.wait_free);
  EXPECT_EQ(out.stats.depth, 2);
  EXPECT_EQ(out.stats.configs, 4u);  // diamond: both orders converge
  EXPECT_EQ(out.stats.terminals, 1u);
}

TEST(Explorer, NondeterministicObjectBranches) {
  const auto coin = share(zoo::nondet_coin_type(1));
  auto sys = std::make_shared<System>(1);
  const ObjectId c = sys->add_base(coin, 0, {0});
  sys->set_toplevel(0, one_shot("flipper", 0, 0), {c});
  const Engine root{std::move(sys)};
  const auto out = explore(root);
  EXPECT_TRUE(out.wait_free);
  // Terminal configs differ in the process result (0 vs 1).
  EXPECT_EQ(out.stats.terminals, 2u);
}

TEST(Explorer, SpinLoopIsDetectedAsNotWaitFree) {
  // A process that re-reads a bit until it becomes 1 -- which never happens
  // because nobody writes: a configuration cycle.
  const auto bit = share(zoo::bit_type(1));
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(1);
  const ObjectId b = sys->add_base(bit, 0, {0});
  ProgramBuilder pb;
  const Label loop = pb.bind_here();
  pb.invoke(0, lit(lay.read()), 0);
  pb.branch_if(reg(0) == lit(0), loop);
  pb.ret(lit(1));
  sys->set_toplevel(0, pb.build("spinner"), {b});
  const Engine root{std::move(sys)};
  const auto out = explore(root);
  EXPECT_FALSE(out.wait_free);
}

TEST(Explorer, LockStyleWaitingIsNotWaitFree) {
  // p1 spins on a flag that p0 sets after 1 step: every schedule terminates
  // under fairness, but the schedule that never runs p0 is a cycle, so the
  // implementation is not wait-free.  This is the behaviour that separates
  // wait-freedom from mere livelock-freedom.
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
  EXPECT_FALSE(explore(root).wait_free);
}

TEST(Explorer, DivergingLocalStateHitsDepthLimit) {
  // A counter in a register grows forever: no configuration ever repeats,
  // so only the depth limit stops exploration.
  const auto big = share(zoo::register_type(50, 1));
  const zoo::RegisterLayout lay{50};
  auto sys = std::make_shared<System>(1);
  const ObjectId r = sys->add_base(big, 0, {0});
  ProgramBuilder pb;
  const Label loop = pb.bind_here();
  pb.invoke(0, lit(lay.read()), 0);
  pb.invoke(0, (reg(0) + lit(1)) % lit(50) + lit(1), 1);  // write(v+1 mod 50)
  pb.jump(loop);
  sys->set_toplevel(0, pb.build("counter"), {r});
  const Engine root{std::move(sys)};
  ExploreLimits limits;
  limits.max_depth = 64;
  const auto out = explore(root, limits);
  // Either the cycle in register states is found (wait_free false) or the
  // depth limit fires (complete false); for this program states do repeat.
  EXPECT_FALSE(out.wait_free && out.complete);
}

TEST(Explorer, TerminalCheckSeesAllOutcomes) {
  // Nondeterministic coin: flag any terminal where the result is 1.
  const auto coin = share(zoo::nondet_coin_type(1));
  auto sys = std::make_shared<System>(1);
  const ObjectId c = sys->add_base(coin, 0, {0});
  sys->set_toplevel(0, one_shot("flipper", 0, 0), {c});
  const Engine root{std::move(sys)};
  const auto check = [](const Engine& e) -> std::optional<std::string> {
    if (e.result(0) == 1) return "saw tails";
    return std::nullopt;
  };
  const auto out = explore(root, ExploreLimits{}, check);
  ASSERT_TRUE(out.violation.has_value());
  EXPECT_EQ(*out.violation, "saw tails");
}

TEST(Explorer, ViolationStopsEarlyByDefault) {
  const auto coin = share(zoo::nondet_coin_type(1));
  auto sys = std::make_shared<System>(1);
  const ObjectId c = sys->add_base(coin, 0, {0});
  sys->set_toplevel(0, two_shot("flipper", 0, 0, 0), {c});
  const Engine root{std::move(sys)};
  std::size_t terminals_seen = 0;
  const auto check =
      [&terminals_seen](const Engine&) -> std::optional<std::string> {
    ++terminals_seen;
    return "always bad";
  };
  const auto stopped = explore(root, ExploreLimits{}, check);
  EXPECT_TRUE(stopped.violation.has_value());
  EXPECT_EQ(terminals_seen, 1u);
  terminals_seen = 0;
  ExploreLimits keep_going;
  keep_going.stop_at_violation = false;
  const auto full = explore(root, keep_going, check);
  EXPECT_TRUE(full.violation.has_value());
  // 2x2 coin outcomes, but terminal *configurations* are memoized and the
  // first flip's value dies with its frame: 2 distinct terminals remain.
  EXPECT_EQ(terminals_seen, 2u);
}

TEST(Explorer, AccessBoundsTrackMaxOverPaths) {
  const auto bit = share(zoo::bit_type(2));
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(2);
  const ObjectId b = sys->add_base(bit, 0, {0, 1});
  sys->set_toplevel(0, two_shot("p0", 0, lay.write(1), lay.read()), {b});
  sys->set_toplevel(1, one_shot("p1", 0, lay.read()), {b});
  const Engine root{std::move(sys)};
  ExploreLimits limits;
  limits.track_access_bounds = true;
  const auto out = explore(root, limits);
  EXPECT_TRUE(out.wait_free);
  ASSERT_EQ(out.stats.max_accesses.size(), 1u);
  EXPECT_EQ(out.stats.max_accesses[0], 3u);  // every path: 3 accesses total
  EXPECT_EQ(out.stats.depth, 3);
}

TEST(Explorer, ConfigLimitReportsIncomplete) {
  const auto reg8 = share(zoo::register_type(8, 3));
  const zoo::RegisterLayout lay{8};
  auto sys = std::make_shared<System>(3);
  const ObjectId r = sys->add_base(reg8, 0, {0, 1, 2});
  for (ProcId p = 0; p < 3; ++p) {
    sys->set_toplevel(
        p, two_shot(indexed_name("p", p), 0, lay.write(p), lay.read()),
        {r});
  }
  const Engine root{std::move(sys)};
  ExploreLimits limits;
  limits.max_configs = 5;
  const auto out = explore(root, limits);
  EXPECT_FALSE(out.complete);
}

}  // namespace
}  // namespace wfregs
