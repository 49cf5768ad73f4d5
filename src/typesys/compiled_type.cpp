#include "wfregs/typesys/compiled_type.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <tuple>

namespace wfregs {

namespace {

std::atomic<std::uint64_t> g_compiled{0};

using Outcome = std::tuple<StateId, RespId, RespId>;

/// Outcome buffers reused by every commute_at call of one compile, so
/// filling the P^2 I^2 Q matrix allocates nothing per pair.
struct CommuteScratch {
  std::vector<Outcome> first;
  std::vector<Outcome> second;
};

/// Local replica of the reduction layer's outcome-set commutation test
/// (accesses_commute_at), evaluated over the flattened table so typesys
/// stays independent of the runtime library.  The runtime asserts agreement
/// between the two in its differential tests.
bool commute_at(const CompiledType& t, StateId q, PortId a, InvId i1, PortId b,
                InvId i2, CommuteScratch& scratch) {
  std::vector<Outcome>& first = scratch.first;
  std::vector<Outcome>& second = scratch.second;
  first.clear();
  second.clear();
  for (const Transition& t1 : t.delta_unchecked(q, a, i1)) {
    for (const Transition& t2 : t.delta_unchecked(t1.next, b, i2)) {
      first.emplace_back(t2.next, t1.resp, t2.resp);
    }
  }
  for (const Transition& t2 : t.delta_unchecked(q, b, i2)) {
    for (const Transition& t1 : t.delta_unchecked(t2.next, a, i1)) {
      second.emplace_back(t1.next, t1.resp, t2.resp);
    }
  }
  std::ranges::sort(first);
  first.erase(std::unique(first.begin(), first.end()), first.end());
  std::ranges::sort(second);
  second.erase(std::unique(second.begin(), second.end()), second.end());
  return first == second;
}

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

  const std::size_t invs = static_cast<std::size_t>(num_invocations_);
  commute_.assign(static_cast<std::size_t>(ports_) * invs *
                      static_cast<std::size_t>(ports_) * invs,
                  0);
  CommuteScratch scratch;
  for (PortId a = 0; a < ports_; ++a) {
    for (InvId i1 = 0; i1 < num_invocations_; ++i1) {
      for (PortId b = 0; b < ports_; ++b) {
        for (InvId i2 = 0; i2 < num_invocations_; ++i2) {
          bool commutes = true;
          for (StateId q = 0; q < num_states_ && commutes; ++q) {
            commutes = commute_at(*this, q, a, i1, b, i2, scratch);
          }
          const std::size_t idx =
              ((static_cast<std::size_t>(a) * invs +
                static_cast<std::size_t>(i1)) *
                   static_cast<std::size_t>(ports_) +
               static_cast<std::size_t>(b)) *
                  invs +
              static_cast<std::size_t>(i2);
          commute_[idx] = commutes ? 1 : 0;
        }
      }
    }
  }
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
