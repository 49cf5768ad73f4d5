// Operation histories, recorded by the engine for linearizability checking.
//
// Time is the engine's commit counter (number of base-object accesses
// performed so far, globally).  An operation on an implemented object is
// invoked when its process reaches the call in program order and responds
// when its program returns; the interval [invoke_time, response_time]
// contains all of the operation's base accesses.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "wfregs/typesys/type_spec.hpp"

namespace wfregs {

using ProcId = int;
using ObjectId = int;

/// One high-level operation on an implemented object.
struct OpRecord {
  ProcId proc = -1;
  ObjectId object = -1;  ///< engine object id of the implemented object
  PortId port = -1;      ///< port the process holds on that object
  InvId inv = 0;
  std::size_t invoke_time = 0;
  std::optional<Val> response;  ///< nullopt while pending
  std::size_t response_time = 0;
};

/// Append-only log of high-level operations.
class History {
 public:
  /// Records an invocation; returns the op id used to complete it later.
  int begin_op(ProcId proc, ObjectId object, PortId port, InvId inv,
               std::size_t time);
  void end_op(int op_id, Val response, std::size_t time);

  // ---- undo support (Engine::revert) -------------------------------------

  /// Number of recorded ops (== the next op id begin_op would return).
  std::size_t size() const { return ops_.size(); }
  /// Drops every op with id >= n (inverse of the begin_ops of one step).
  /// Throws std::out_of_range when n > size().
  void truncate(std::size_t n);
  /// Clears the response of a completed op (inverse of end_op).  Throws
  /// std::out_of_range on a bad id, std::logic_error when still pending.
  void reopen_op(int op_id);

  const std::vector<OpRecord>& ops() const { return ops_; }
  /// Ops on one object, preserving order.
  std::vector<OpRecord> ops_on(ObjectId object) const;

  std::string to_string() const;

 private:
  std::vector<OpRecord> ops_;
};

}  // namespace wfregs
