// Shared helpers for runtime-level tests and benches.
#pragma once

#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "wfregs/runtime/engine.hpp"
#include "wfregs/runtime/implementation.hpp"
#include "wfregs/runtime/program.hpp"
#include "wfregs/typesys/type_spec.hpp"

namespace wfregs::testsup {

inline std::shared_ptr<const TypeSpec> share(TypeSpec t) {
  return std::make_shared<const TypeSpec>(std::move(t));
}

inline std::shared_ptr<Implementation> make_impl(
    std::string name, std::shared_ptr<const TypeSpec> iface,
    StateId initial) {
  return std::make_shared<Implementation>(std::move(name), std::move(iface),
                                          initial);
}

/// "p3"-style names, built by append: g++ 12 at -O3 reports a false
/// -Wrestrict inside char_traits for `"p" + std::to_string(p)`.
inline std::string indexed_name(const char* prefix, int index) {
  std::string name(prefix);
  name += std::to_string(index);
  return name;
}

/// The explorer suites' common scenario over one shared instance of `t`:
/// process p performs two invocations starting at invocation p, folding
/// every response into its result (the memoization contract).
inline Engine folding_scenario(std::shared_ptr<const TypeSpec> t) {
  const int n = t->ports();
  const int invs = t->num_invocations();
  auto sys = std::make_shared<System>(n);
  std::vector<PortId> ports(static_cast<std::size_t>(n));
  std::iota(ports.begin(), ports.end(), 0);
  const ObjectId obj = sys->add_base(std::move(t), 0, ports);
  for (ProcId p = 0; p < n; ++p) {
    ProgramBuilder b;
    b.assign(1, lit(0));
    for (int k = 0; k < 2; ++k) {
      b.invoke(0, lit((p + k) % invs), 0);
      b.assign(1, reg(1) * lit(1 << 20) + reg(0) + lit(1));
    }
    b.ret(reg(1));
    sys->set_toplevel(p, b.build(indexed_name("p", p)), {obj});
  }
  return Engine{std::move(sys)};
}

/// A program that performs a single invocation on env slot `slot` and
/// returns the response.
inline ProgramRef one_shot(const std::string& name, int slot, InvId inv) {
  ProgramBuilder b;
  b.invoke(slot, lit(inv), 0);
  b.ret(reg(0));
  return b.build(name);
}

/// A program that performs `first` then `second` on slot `slot` and returns
/// the second response.
inline ProgramRef two_shot(const std::string& name, int slot, InvId first,
                           InvId second) {
  ProgramBuilder b;
  b.invoke(slot, lit(first), 0);
  b.invoke(slot, lit(second), 1);
  b.ret(reg(1));
  return b.build(name);
}

/// A program that returns a constant without touching shared memory.
inline ProgramRef constant(const std::string& name, Val value) {
  ProgramBuilder b;
  b.ret(lit(value));
  return b.build(name);
}

}  // namespace wfregs::testsup
