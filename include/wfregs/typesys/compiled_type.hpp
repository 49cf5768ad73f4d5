// Compiled form of a TypeSpec: the execution-core representation.
//
// TypeSpec stores delta as one heap-allocated vector per (state, port,
// invocation) cell -- ideal for incremental building, hostile to the
// explorer's hot loop, which performs one delta lookup per examined edge.
// CompiledType flattens the whole table into a single contiguous Transition
// array addressed through a dense offset index, so a lookup is two array
// reads with no pointer chasing, and precomputes the structural facts the
// runtime layers ask for repeatedly:
//
//   * totality / determinism / obliviousness flags (Section 2.1 predicates),
//     evaluated once instead of per query;
//   * the pairwise commutation matrix -- "(port a, invocation i1) commutes
//     with (port b, invocation i2) in EVERY state" -- which the reduction
//     layer's IndependenceTable consumes directly instead of re-deriving
//     outcome sets from delta on every table build.
//
// A CompiledType is immutable and self-contained (it does not reference the
// TypeSpec it was compiled from), so System can share one instance across
// every object using the same spec and across any number of explorer
// threads.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "wfregs/typesys/type_spec.hpp"

namespace wfregs {

class CompiledType {
 public:
  /// Flattens `spec`.  Equivalent to spec.compile().
  explicit CompiledType(const TypeSpec& spec);

  /// CompiledTypes constructed so far by this process, on any thread: how
  /// tests check that a consensus job compiles each base type once.
  static std::uint64_t compiled_count();

  // ---- dimensions --------------------------------------------------------

  const std::string& name() const { return name_; }
  int ports() const { return ports_; }
  int num_states() const { return num_states_; }
  int num_invocations() const { return num_invocations_; }
  int num_responses() const { return num_responses_; }

  // ---- delta -------------------------------------------------------------

  /// The transition set delta(q, p, i), bounds-checked exactly like
  /// TypeSpec::delta (one combined comparison; throws std::out_of_range).
  std::span<const Transition> delta(StateId q, PortId p, InvId i) const {
    check(q, p, i);
    return delta_unchecked(q, p, i);
  }

  /// Hot-path lookup: two array reads, no checks.  The caller must
  /// guarantee 0 <= q < num_states(), 0 <= p < ports(),
  /// 0 <= i < num_invocations() (the engine does: states come from
  /// transitions, ports from system wiring, invocations are validated when
  /// the access becomes pending).
  std::span<const Transition> delta_unchecked(StateId q, PortId p,
                                              InvId i) const noexcept {
    const std::size_t c = cell(q, p, i);
    return {transitions_.data() + offsets_[c],
            static_cast<std::size_t>(offsets_[c + 1] - offsets_[c])};
  }

  /// Size of the delta set (0 for a partial cell).
  int width(StateId q, PortId p, InvId i) const {
    check(q, p, i);
    const std::size_t c = cell(q, p, i);
    return static_cast<int>(offsets_[c + 1] - offsets_[c]);
  }

  /// delta(q, p, i) for a deterministic cell; throws std::logic_error when
  /// the cell does not contain exactly one transition (mirrors
  /// TypeSpec::delta_det).
  Transition delta_det(StateId q, PortId p, InvId i) const;

  // ---- precomputed structural predicates ---------------------------------

  bool is_total() const { return total_; }
  bool is_deterministic() const { return deterministic_; }
  bool is_oblivious() const { return oblivious_; }

  // ---- precomputed pairwise commutation ----------------------------------

  /// True when the accesses (port a, invocation i1) and (port b, invocation
  /// i2) commute in EVERY state: executing them in either order yields the
  /// same set of (final state, response to i1, response to i2) outcomes.
  /// This is exactly the conjunction over states of
  /// accesses_commute_at(spec, q, a, i1, b, i2) from the reduction layer,
  /// precomputed at compile() time so IndependenceTable::build is a copy.
  bool commutes_everywhere(PortId a, InvId i1, PortId b, InvId i2) const {
    const std::size_t invs = static_cast<std::size_t>(num_invocations_);
    const std::size_t idx =
        ((static_cast<std::size_t>(a) * invs + static_cast<std::size_t>(i1)) *
             static_cast<std::size_t>(ports_) +
         static_cast<std::size_t>(b)) *
            invs +
        static_cast<std::size_t>(i2);
    return commute_[idx] != 0;
  }

  /// The raw commutation matrix, laid out [(a*I + i1)*P*I + b*I + i2] --
  /// the same layout IndependenceTable uses per object.
  std::span<const char> commutation_matrix() const { return commute_; }

 private:
  std::size_t cell(StateId q, PortId p, InvId i) const noexcept {
    // Same layout as TypeSpec::cell: (q * P + p) * I + i.
    return (static_cast<std::size_t>(q) * static_cast<std::size_t>(ports_) +
            static_cast<std::size_t>(p)) *
               static_cast<std::size_t>(num_invocations_) +
           static_cast<std::size_t>(i);
  }
  void check(StateId q, PortId p, InvId i) const;

  std::string name_;
  int ports_ = 0;
  int num_states_ = 0;
  int num_invocations_ = 0;
  int num_responses_ = 0;
  bool total_ = false;
  bool deterministic_ = false;
  bool oblivious_ = false;
  /// All transition sets, concatenated in cell order.
  std::vector<Transition> transitions_;
  /// offsets_[c] .. offsets_[c+1]: the slice of transitions_ for cell c;
  /// one extra sentinel entry at the end.
  std::vector<std::uint32_t> offsets_;
  /// Pairwise "commutes in every state" bits (see commutes_everywhere).
  std::vector<char> commute_;
};

}  // namespace wfregs
