// Public single-history oracles: check ONE recorded History against a type
// specification, independently of how the history was produced.
//
// The explorer-driven verify_linearizable / verify_regular paths apply
// exactly these checks to every terminal history they enumerate; the unit
// tests (tests/linearizability_oracle.cpp) apply them to hand-written
// histories, so the oracle the explorers trust is checked on its own.
#pragma once

#include <string>

#include "wfregs/runtime/history.hpp"
#include "wfregs/typesys/type_spec.hpp"

namespace wfregs {

/// Restrict a check to ops on every object in the history.
inline constexpr ObjectId kAnyObject = -1;

struct HistoryCheckResult {
  bool ok = false;
  std::string detail;  ///< human-readable violation, when !ok

  explicit operator bool() const { return ok; }
};

/// Checks that the ops recorded on `object` (all ops when kAnyObject) form a
/// linearizable history of `spec` starting from `initial`.  Pending ops are
/// completed or dropped per the standard rule (see linearizability.hpp); at
/// most 64 ops are supported.  The failure detail is the same rendering the
/// verify_linearizable explorer reports for a violating schedule.
HistoryCheckResult check_history_linearizable(const History& history,
                                              const TypeSpec& spec,
                                              StateId initial,
                                              ObjectId object = kAnyObject);

/// Checks the regular-register condition (Lamport 1986) on the ops recorded
/// on `object`, under the register invocation convention (invocation 0 =
/// read returning the value; invocation 1+v = write(v)) for a single-writer
/// register over `values` values initially holding `initial`.
HistoryCheckResult check_history_regular(const History& history, int values,
                                         int initial,
                                         ObjectId object = kAnyObject);

}  // namespace wfregs
