#include "wfregs/typesys/type_spec.hpp"

#include <algorithm>
#include <deque>
#include <sstream>
#include <stdexcept>

namespace wfregs {

TypeSpec::TypeSpec(std::string name, int ports, int num_states,
                   int num_invocations, int num_responses)
    : name_(std::move(name)),
      ports_(ports),
      num_states_(num_states),
      num_invocations_(num_invocations),
      num_responses_(num_responses) {
  if (ports <= 0 || num_states <= 0 || num_invocations <= 0 ||
      num_responses <= 0) {
    throw std::invalid_argument("TypeSpec(" + name_ +
                                "): all dimensions must be positive");
  }
  table_.resize(static_cast<std::size_t>(ports) * num_states *
                num_invocations);
  state_names_.resize(static_cast<std::size_t>(num_states));
  invocation_names_.resize(static_cast<std::size_t>(num_invocations));
  response_names_.resize(static_cast<std::size_t>(num_responses));
}

std::size_t TypeSpec::cell(StateId q, PortId p, InvId i) const {
  return (static_cast<std::size_t>(q) * ports_ + static_cast<std::size_t>(p)) *
             num_invocations_ +
         static_cast<std::size_t>(i);
}

void TypeSpec::check_state(StateId q) const {
  if (q < 0 || q >= num_states_) {
    throw std::out_of_range("TypeSpec(" + name_ + "): state " +
                            std::to_string(q) + " out of range");
  }
}

void TypeSpec::check_port(PortId p) const {
  if (p < 0 || p >= ports_) {
    throw std::out_of_range("TypeSpec(" + name_ + "): port " +
                            std::to_string(p) + " out of range");
  }
}

void TypeSpec::check_invocation(InvId i) const {
  if (i < 0 || i >= num_invocations_) {
    throw std::out_of_range("TypeSpec(" + name_ + "): invocation " +
                            std::to_string(i) + " out of range");
  }
}

void TypeSpec::check_response(RespId r) const {
  if (r < 0 || r >= num_responses_) {
    throw std::out_of_range("TypeSpec(" + name_ + "): response " +
                            std::to_string(r) + " out of range");
  }
}

void TypeSpec::add(StateId q, PortId p, InvId i, StateId q2, RespId r) {
  check_state(q);
  check_port(p);
  check_invocation(i);
  check_state(q2);
  check_response(r);
  auto& set = table_[cell(q, p, i)];
  const Transition t{q2, r};
  const auto pos = std::lower_bound(set.begin(), set.end(), t);
  if (pos == set.end() || *pos != t) set.insert(pos, t);
}

void TypeSpec::add_oblivious(StateId q, InvId i, StateId q2, RespId r) {
  for (PortId p = 0; p < ports_; ++p) add(q, p, i, q2, r);
}

void TypeSpec::name_state(StateId q, std::string name) {
  check_state(q);
  state_names_[static_cast<std::size_t>(q)] = std::move(name);
}

void TypeSpec::name_invocation(InvId i, std::string name) {
  check_invocation(i);
  invocation_names_[static_cast<std::size_t>(i)] = std::move(name);
}

void TypeSpec::name_response(RespId r, std::string name) {
  check_response(r);
  response_names_[static_cast<std::size_t>(r)] = std::move(name);
}

std::span<const Transition> TypeSpec::delta(StateId q, PortId p,
                                            InvId i) const {
  check_state(q);
  check_port(p);
  check_invocation(i);
  return table_[cell(q, p, i)];
}

Transition TypeSpec::delta_det(StateId q, PortId p, InvId i) const {
  const auto set = delta(q, p, i);
  if (set.size() != 1) {
    throw std::logic_error(
        "TypeSpec(" + name_ + "): delta_det(" + state_name(q) + ", port " +
        std::to_string(p) + ", " + invocation_name(i) + ") has " +
        std::to_string(set.size()) + " transitions (expected exactly 1)");
  }
  return set.front();
}

bool TypeSpec::is_total() const {
  return std::ranges::all_of(table_,
                             [](const auto& set) { return !set.empty(); });
}

bool TypeSpec::is_deterministic() const {
  return std::ranges::all_of(table_,
                             [](const auto& set) { return set.size() == 1; });
}

bool TypeSpec::is_oblivious() const {
  for (StateId q = 0; q < num_states_; ++q) {
    for (InvId i = 0; i < num_invocations_; ++i) {
      const auto& base = table_[cell(q, 0, i)];
      for (PortId p = 1; p < ports_; ++p) {
        if (table_[cell(q, p, i)] != base) return false;
      }
    }
  }
  return true;
}

void TypeSpec::validate() const {
  for (StateId q = 0; q < num_states_; ++q) {
    for (PortId p = 0; p < ports_; ++p) {
      for (InvId i = 0; i < num_invocations_; ++i) {
        if (table_[cell(q, p, i)].empty()) {
          throw std::logic_error("TypeSpec(" + name_ +
                                 "): missing transition for state " +
                                 state_name(q) + ", port " +
                                 std::to_string(p) + ", invocation " +
                                 invocation_name(i));
        }
      }
    }
  }
}

std::vector<StateId> TypeSpec::reachable_from(StateId q) const {
  check_state(q);
  std::vector<char> seen(static_cast<std::size_t>(num_states_), 0);
  std::deque<StateId> frontier{q};
  seen[static_cast<std::size_t>(q)] = 1;
  while (!frontier.empty()) {
    const StateId cur = frontier.front();
    frontier.pop_front();
    for (PortId p = 0; p < ports_; ++p) {
      for (InvId i = 0; i < num_invocations_; ++i) {
        for (const Transition& t : table_[cell(cur, p, i)]) {
          if (!seen[static_cast<std::size_t>(t.next)]) {
            seen[static_cast<std::size_t>(t.next)] = 1;
            frontier.push_back(t.next);
          }
        }
      }
    }
  }
  std::vector<StateId> out;
  for (StateId s = 0; s < num_states_; ++s) {
    if (seen[static_cast<std::size_t>(s)]) out.push_back(s);
  }
  return out;
}

bool TypeSpec::reachable(StateId from, StateId to) const {
  check_state(to);
  const auto reach = reachable_from(from);
  return std::ranges::binary_search(reach, to);
}

namespace {

/// "q3"-style default names.  Built by append: g++ 12's -O3 flags
/// `"q" + std::to_string(q)` with a false -Wrestrict inside char_traits.
std::string indexed_name(char prefix, int index) {
  std::string name(1, prefix);
  name += std::to_string(index);
  return name;
}

}  // namespace

std::string TypeSpec::state_name(StateId q) const {
  check_state(q);
  const auto& n = state_names_[static_cast<std::size_t>(q)];
  return n.empty() ? indexed_name('q', q) : n;
}

std::string TypeSpec::invocation_name(InvId i) const {
  check_invocation(i);
  const auto& n = invocation_names_[static_cast<std::size_t>(i)];
  return n.empty() ? indexed_name('i', i) : n;
}

std::string TypeSpec::response_name(RespId r) const {
  check_response(r);
  const auto& n = response_names_[static_cast<std::size_t>(r)];
  return n.empty() ? indexed_name('r', r) : n;
}

std::string TypeSpec::to_string() const {
  std::ostringstream out;
  out << "type " << name_ << " <ports=" << ports_ << ", |Q|=" << num_states_
      << ", |I|=" << num_invocations_ << ", |R|=" << num_responses_ << ">\n";
  for (StateId q = 0; q < num_states_; ++q) {
    for (PortId p = 0; p < ports_; ++p) {
      for (InvId i = 0; i < num_invocations_; ++i) {
        const auto& set = table_[cell(q, p, i)];
        if (set.empty()) continue;
        out << "  delta(" << state_name(q) << ", port " << p << ", "
            << invocation_name(i) << ") = {";
        bool first = true;
        for (const Transition& t : set) {
          if (!first) out << ", ";
          first = false;
          out << "<" << state_name(t.next) << ", " << response_name(t.resp)
              << ">";
        }
        out << "}\n";
      }
    }
  }
  return out.str();
}

}  // namespace wfregs
