// The E12/E17 explorer workload, shared so the benches measure one
// configuration DAG: k processes hammering one shared 4-valued register
// with (write; read)^ops programs that fold the read back into process
// state.  procs=4, ops=2 gives 51,601 configurations.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "wfregs/runtime/engine.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs::benchjson {

inline Engine register_race(int procs, int ops) {
  const zoo::RegisterLayout lay{4};
  const auto spec =
      std::make_shared<const TypeSpec>(zoo::register_type(4, procs));
  auto sys = std::make_shared<System>(procs);
  std::vector<PortId> ports;
  for (PortId p = 0; p < procs; ++p) ports.push_back(p);
  const ObjectId r = sys->add_base(spec, 0, ports);
  for (ProcId p = 0; p < procs; ++p) {
    ProgramBuilder b;
    for (int k = 0; k < ops; ++k) {
      b.invoke(0, lit(lay.write((p + k) % 4)), 0);
      b.invoke(0, lit(lay.read()), 1);
    }
    b.ret(reg(1));
    // Appended, not `"p" + std::to_string(p)`: g++ 12 at -O3 reports a
    // false -Wrestrict inside char_traits for the latter.
    std::string name = "p";
    name += std::to_string(p);
    sys->set_toplevel(p, b.build(name), {r});
  }
  return Engine{std::move(sys)};
}

}  // namespace wfregs::benchjson
