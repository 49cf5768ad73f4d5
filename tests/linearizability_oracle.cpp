// Differential testing of the Wing-Gong linearizability checker against a
// brute-force oracle that enumerates every permutation of the operations.
// Random histories are produced by mutating genuinely-linearizable ones
// (generated from sequential executions), so both verdicts occur.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "wfregs/runtime/history_check.hpp"
#include "wfregs/runtime/linearizability.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

// Brute force: some permutation of the (completed) ops respects real-time
// order and replays against the spec.
bool oracle(std::vector<OpRecord> ops, const TypeSpec& spec,
            StateId initial) {
  std::vector<int> order(ops.size());
  for (std::size_t k = 0; k < ops.size(); ++k) order[k] = static_cast<int>(k);
  std::ranges::sort(order);
  do {
    bool ok = true;
    // Real-time: if a finishes before b starts, a must precede b.
    for (std::size_t x = 0; x < order.size() && ok; ++x) {
      for (std::size_t y = x + 1; y < order.size() && ok; ++y) {
        const auto& a = ops[static_cast<std::size_t>(order[x])];
        const auto& b = ops[static_cast<std::size_t>(order[y])];
        if (b.response_time < a.invoke_time) ok = false;
      }
    }
    if (!ok) continue;
    StateId q = initial;
    for (std::size_t x = 0; x < order.size() && ok; ++x) {
      const auto& op = ops[static_cast<std::size_t>(order[x])];
      bool matched = false;
      for (const Transition& t : spec.delta(q, op.port, op.inv)) {
        if (static_cast<Val>(t.resp) == *op.response) {
          q = t.next;
          matched = true;
          break;
        }
      }
      ok = matched;
    }
    if (ok) return true;
  } while (std::ranges::next_permutation(order).found);
  return false;
}

class OracleSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OracleSweep, CheckerAgreesWithBruteForce) {
  std::mt19937_64 rng(GetParam());
  const auto spec = zoo::register_type(3, 3);
  const zoo::RegisterLayout lay{3};
  std::uniform_int_distribution<int> val(0, 2);
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<std::size_t> jitter(0, 6);

  // Generate a sequential history, then randomly perturb intervals and
  // responses so both verdicts arise.
  std::vector<OpRecord> ops;
  int value = 0;
  const int n = 6;
  for (int k = 0; k < n; ++k) {
    OpRecord rec;
    rec.proc = k % 3;
    rec.object = 0;
    rec.port = rec.proc;
    const std::size_t base = static_cast<std::size_t>(k) * 10 + 10;
    rec.invoke_time = base - jitter(rng);
    rec.response_time = base + 1 + jitter(rng);
    if (coin(rng)) {
      const int v = val(rng);
      rec.inv = lay.write(v);
      rec.response = lay.ok();
      value = v;
    } else {
      rec.inv = lay.read();
      // Half the time: the true value; otherwise a random (maybe wrong) one.
      rec.response = coin(rng) ? lay.value_resp(value)
                               : lay.value_resp(val(rng));
    }
    ops.push_back(rec);
  }
  const bool expected = oracle(ops, spec, 0);
  const auto got = check_linearizable(ops, spec, 0);
  EXPECT_EQ(got.linearizable, expected);
  if (got.linearizable) {
    // The checker's own witness order must replay correctly.
    ASSERT_EQ(got.order.size(), ops.size());
    StateId q = 0;
    for (const int idx : got.order) {
      const auto& op = ops[static_cast<std::size_t>(idx)];
      bool matched = false;
      for (const Transition& t : spec.delta(q, op.port, op.inv)) {
        if (static_cast<Val>(t.resp) == *op.response) {
          q = t.next;
          matched = true;
          break;
        }
      }
      EXPECT_TRUE(matched) << "witness order does not replay";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleSweep,
                         ::testing::Range<std::uint64_t>(0, 120));

// ---- the public single-history API (history_check.hpp) --------------------
// Hand-written histories with explicit timestamps: the producer-independent
// entry point verify_linearizable / verify_regular apply to every terminal
// history.

/// Appends a completed op spanning [t0, t1] to `h`.
void op(History& h, ProcId proc, PortId port, InvId inv, Val resp,
        std::size_t t0, std::size_t t1, ObjectId object = 0) {
  const int id = h.begin_op(proc, object, port, inv, t0);
  h.end_op(id, resp, t1);
}

TEST(HistoryCheck, AcceptsASequentialRegisterHistory) {
  const auto spec = zoo::register_type(3, 2);
  const zoo::RegisterLayout lay{3};
  History h;
  op(h, 0, 0, lay.write(1), lay.ok(), 0, 1);
  op(h, 1, 1, lay.read(), lay.value_resp(1), 2, 3);
  const auto r = check_history_linearizable(h, spec, 0);
  EXPECT_TRUE(r.ok) << r.detail;
  EXPECT_TRUE(static_cast<bool>(r));
}

TEST(HistoryCheck, AcceptsAConcurrentOldValueRead) {
  // read -> 0 overlapping write(1): linearize the read first.
  const auto spec = zoo::register_type(2, 2);
  const zoo::RegisterLayout lay{2};
  History h;
  op(h, 0, 0, lay.write(1), lay.ok(), 0, 5);
  op(h, 1, 1, lay.read(), lay.value_resp(0), 1, 2);
  EXPECT_TRUE(check_history_linearizable(h, spec, 0).ok);
}

TEST(HistoryCheck, RejectsAReadOfAValueNeverWritten) {
  const auto spec = zoo::register_type(3, 2);
  const zoo::RegisterLayout lay{3};
  History h;
  op(h, 0, 0, lay.read(), lay.value_resp(2), 0, 1);
  const auto r = check_history_linearizable(h, spec, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(static_cast<bool>(r));
  EXPECT_NE(r.detail.find("not linearizable"), std::string::npos);

  // A torn read: during write(3) over 0 (both bits flip) the read sees the
  // low bit new and the high bit old, returning 1 -- a mix of the two
  // values, never written, which neither an atomic nor a regular register
  // may return.
  const auto spec4 = zoo::register_type(4, 2);
  const zoo::RegisterLayout lay4{4};
  History torn;
  op(torn, 0, 0, lay4.write(3), lay4.ok(), 0, 5);
  op(torn, 1, 1, lay4.read(), lay4.value_resp(1), 1, 2);
  EXPECT_FALSE(check_history_linearizable(torn, spec4, 0).ok);
  EXPECT_FALSE(check_history_regular(torn, 4, 0).ok);
}

TEST(HistoryCheck, RejectsNewOldInversionUnderLinearizability) {
  // Two sequential reads during one write seeing new then old: regular,
  // but NOT atomic -- the exact gap between Lamport's register classes.
  const auto spec = zoo::register_type(2, 3);
  const zoo::RegisterLayout lay{2};
  History h;
  op(h, 0, 0, lay.write(1), lay.ok(), 2, 9);
  op(h, 1, 1, lay.read(), lay.value_resp(1), 3, 4);
  op(h, 2, 2, lay.read(), lay.value_resp(0), 5, 6);
  EXPECT_FALSE(check_history_linearizable(h, spec, 0).ok);
  const auto reg = check_history_regular(h, 2, 0);
  EXPECT_TRUE(reg.ok) << reg.detail;
}

TEST(HistoryCheck, FiltersByObjectId) {
  // Object 0 holds a clean history, object 7 a broken one; the verdict
  // follows the filter, and kAnyObject sees the union (broken).
  const auto spec = zoo::register_type(3, 2);
  const zoo::RegisterLayout lay{3};
  History h;
  op(h, 0, 0, lay.write(1), lay.ok(), 0, 1, /*object=*/0);
  op(h, 1, 1, lay.read(), lay.value_resp(2), 2, 3, /*object=*/7);
  op(h, 1, 1, lay.read(), lay.value_resp(1), 4, 5, /*object=*/0);
  EXPECT_TRUE(check_history_linearizable(h, spec, 0, 0).ok);
  EXPECT_FALSE(check_history_linearizable(h, spec, 0, 7).ok);
  EXPECT_FALSE(check_history_linearizable(h, spec, 0, kAnyObject).ok);
}

TEST(HistoryCheck, RegularAcceptsOverlappingWriteValues) {
  const zoo::RegisterLayout lay{2};
  History h;
  op(h, 0, 0, lay.read(), 0, 0, 1);        // before the write: initial
  op(h, 1, 1, lay.write(1), lay.ok(), 2, 6);
  op(h, 0, 0, lay.read(), 1, 3, 4);        // during the write: new value ok
  const auto r = check_history_regular(h, 2, 0);
  EXPECT_TRUE(r.ok) << r.detail;
}

TEST(HistoryCheck, RegularRejectsAReadFromTheFuture) {
  // read -> 1 completes strictly before the only write(1) begins.
  const zoo::RegisterLayout lay{2};
  History h;
  op(h, 0, 0, lay.read(), 1, 0, 1);
  op(h, 1, 1, lay.write(1), lay.ok(), 2, 3);
  const auto r = check_history_regular(h, 2, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.detail.empty());
}

TEST(HistoryCheck, RegularRejectsOverlappingWrites) {
  // Two concurrent writers violate the single-writer precondition.
  const zoo::RegisterLayout lay{2};
  History h;
  op(h, 0, 0, lay.write(1), lay.ok(), 0, 5);
  op(h, 1, 1, lay.write(0), lay.ok(), 2, 3);
  EXPECT_FALSE(check_history_regular(h, 2, 0).ok);
}

}  // namespace
}  // namespace wfregs
