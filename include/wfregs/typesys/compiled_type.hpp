// Compiled form of a TypeSpec: the execution-core representation.
//
// TypeSpec stores delta as one heap-allocated vector per (state, port,
// invocation) cell -- ideal for incremental building, hostile to the
// explorer's hot loop, which performs one delta lookup per examined edge.
// CompiledType flattens the whole table into a single contiguous Transition
// array addressed through a dense offset index, so a lookup is two array
// reads with no pointer chasing, and precomputes the totality /
// determinism / obliviousness flags (Section 2.1 predicates) once instead of
// per query.  Compiling is linear in the size of the table.
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
};

}  // namespace wfregs
