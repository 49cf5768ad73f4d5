#include "wfregs/typesys/compiled_type.hpp"

#include <atomic>
#include <stdexcept>

namespace wfregs {

namespace {

std::atomic<std::uint64_t> g_compiled{0};

}  // namespace

CompiledType::CompiledType(const TypeSpec& spec)
    : name_(spec.name()),
      ports_(spec.ports()),
      num_states_(spec.num_states()),
      num_invocations_(spec.num_invocations()),
      num_responses_(spec.num_responses()) {
  g_compiled.fetch_add(1, std::memory_order_relaxed);
  const std::size_t cells = static_cast<std::size_t>(num_states_) *
                            static_cast<std::size_t>(ports_) *
                            static_cast<std::size_t>(num_invocations_);
  offsets_.reserve(cells + 1);
  offsets_.push_back(0);
  total_ = true;
  deterministic_ = true;
  // Cell order must match cell(): q-major, then port, then invocation.
  for (StateId q = 0; q < num_states_; ++q) {
    for (PortId p = 0; p < ports_; ++p) {
      for (InvId i = 0; i < num_invocations_; ++i) {
        const auto set = spec.delta(q, p, i);
        transitions_.insert(transitions_.end(), set.begin(), set.end());
        offsets_.push_back(static_cast<std::uint32_t>(transitions_.size()));
        total_ = total_ && !set.empty();
        deterministic_ = deterministic_ && set.size() == 1;
      }
    }
  }
  oblivious_ = spec.is_oblivious();
}

std::uint64_t CompiledType::compiled_count() {
  return g_compiled.load(std::memory_order_relaxed);
}

void CompiledType::check(StateId q, PortId p, InvId i) const {
  if (static_cast<std::uint32_t>(q) >=
          static_cast<std::uint32_t>(num_states_) ||
      static_cast<std::uint32_t>(p) >= static_cast<std::uint32_t>(ports_) ||
      static_cast<std::uint32_t>(i) >=
          static_cast<std::uint32_t>(num_invocations_)) {
    throw std::out_of_range("CompiledType(" + name_ + "): delta(" +
                            std::to_string(q) + ", " + std::to_string(p) +
                            ", " + std::to_string(i) + ") out of range");
  }
}

Transition CompiledType::delta_det(StateId q, PortId p, InvId i) const {
  const auto set = delta(q, p, i);
  if (set.size() != 1) {
    throw std::logic_error("CompiledType(" + name_ + "): delta_det(q" +
                           std::to_string(q) + ", port " + std::to_string(p) +
                           ", i" + std::to_string(i) + ") has " +
                           std::to_string(set.size()) +
                           " transitions (expected exactly 1)");
  }
  return set.front();
}

CompiledType TypeSpec::compile() const { return CompiledType(*this); }

}  // namespace wfregs
