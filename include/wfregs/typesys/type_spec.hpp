// Type specifications: the 5-tuple <n, Q, I, R, delta> of Section 2.1 of
// Bazzi, Neiger & Peterson, "On the Use of Registers in Achieving Wait-Free
// Consensus" (PODC 1994).
//
// A TypeSpec describes a concurrent data type as an explicit finite table:
// states, invocations, responses are small integer ids, and delta maps
// (state, port, invocation) to a *set* of (state, response) pairs.  A
// deterministic type has exactly one transition per cell; a nondeterministic
// type may have several.  An oblivious type has a delta that does not depend
// on the port (Section 2.1).
//
// Everything downstream -- the triviality deciders of Section 5, the one-use
// bit syntheses, the linearizability checker, and the hierarchy harness --
// consumes this representation.
#pragma once

#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace wfregs {

class CompiledType;  // compiled_type.hpp

/// Runtime value exchanged between programs and objects (large enough to
/// carry any encoded response or local quantity).
using Val = std::int64_t;

/// Index of a state in Q.
using StateId = std::int32_t;
/// Index of an invocation in I.
using InvId = std::int32_t;
/// Index of a response in R.
using RespId = std::int32_t;
/// Port number (0-based internally; the paper's ports are 1-based).
using PortId = std::int32_t;

/// One entry of delta(q, p, i): the successor state and the response.
struct Transition {
  StateId next = 0;
  RespId resp = 0;
  friend auto operator<=>(const Transition&, const Transition&) = default;
};

/// An explicit-table concurrent data type specification.
///
/// Invariants maintained by the builder interface:
///   * all ids passed to add() are range-checked;
///   * transition sets are kept sorted and duplicate-free.
///
/// A spec is *total* when every (state, port, invocation) cell is non-empty.
/// Most algorithms in this library require totality; call is_total() (or
/// validate()) after building.
class TypeSpec {
 public:
  /// Creates an empty spec with the given dimensions.  All four counts must
  /// be positive; throws std::invalid_argument otherwise.
  TypeSpec(std::string name, int ports, int num_states, int num_invocations,
           int num_responses);

  // ---- builders ----------------------------------------------------------

  /// Adds (q2, r) to delta(q, p, i).  Duplicates are ignored.
  void add(StateId q, PortId p, InvId i, StateId q2, RespId r);

  /// Adds (q2, r) to delta(q, p, i) for every port p.  This is the natural
  /// builder for oblivious types.
  void add_oblivious(StateId q, InvId i, StateId q2, RespId r);

  /// Attaches a symbolic name used by diagnostics and to_string().
  void name_state(StateId q, std::string name);
  void name_invocation(InvId i, std::string name);
  void name_response(RespId r, std::string name);

  // ---- dimensions --------------------------------------------------------

  const std::string& name() const { return name_; }
  int ports() const { return ports_; }
  int num_states() const { return num_states_; }
  int num_invocations() const { return num_invocations_; }
  int num_responses() const { return num_responses_; }

  // ---- delta -------------------------------------------------------------

  /// The (sorted, duplicate-free) transition set delta(q, p, i).
  std::span<const Transition> delta(StateId q, PortId p, InvId i) const;

  /// delta(q, p, i) for a deterministic type.  Throws std::logic_error when
  /// the cell does not contain exactly one transition.
  Transition delta_det(StateId q, PortId p, InvId i) const;

  /// Flattens this spec into the execution-core representation: one
  /// contiguous transition array with an offset index and precomputed
  /// structural flags (see compiled_type.hpp).  The result is
  /// self-contained and immutable.
  CompiledType compile() const;

  // ---- structural predicates (Section 2.1) -------------------------------

  /// Every cell has at least one transition.
  bool is_total() const;
  /// Every cell has exactly one transition.
  bool is_deterministic() const;
  /// delta(q, p1, i) == delta(q, p2, i) for all ports p1, p2.
  bool is_oblivious() const;

  /// Throws std::logic_error with a descriptive message if the spec is not
  /// total.  Call once after building.
  void validate() const;

  // ---- reachability ------------------------------------------------------

  /// All states reachable from q via any (port, invocation, choice),
  /// including q itself.  Sorted ascending.
  std::vector<StateId> reachable_from(StateId q) const;

  /// True when `to` appears in some sequential history from `from`
  /// (equivalently, to == from or to is reachable via transitions).
  bool reachable(StateId from, StateId to) const;

  // ---- diagnostics -------------------------------------------------------

  std::string state_name(StateId q) const;
  std::string invocation_name(InvId i) const;
  std::string response_name(RespId r) const;

  /// Full human-readable table dump.
  std::string to_string() const;

  friend bool operator==(const TypeSpec& a, const TypeSpec& b) {
    return a.ports_ == b.ports_ && a.num_states_ == b.num_states_ &&
           a.num_invocations_ == b.num_invocations_ &&
           a.num_responses_ == b.num_responses_ && a.table_ == b.table_;
  }

 private:
  std::size_t cell(StateId q, PortId p, InvId i) const;
  void check_state(StateId q) const;
  void check_port(PortId p) const;
  void check_invocation(InvId i) const;
  void check_response(RespId r) const;

  std::string name_;
  int ports_ = 0;
  int num_states_ = 0;
  int num_invocations_ = 0;
  int num_responses_ = 0;
  std::vector<std::vector<Transition>> table_;
  std::vector<std::string> state_names_;
  std::vector<std::string> invocation_names_;
  std::vector<std::string> response_names_;
};

}  // namespace wfregs
