#include "wfregs/runtime/reduction.hpp"

#include <algorithm>
#include <numeric>

namespace wfregs {

namespace {

/// Port count of object g (interface ports for implemented objects).
int object_ports(const System& sys, ObjectId g) {
  return sys.is_base(g) ? sys.base(g).spec->ports()
                        : sys.virt(g).impl->iface().ports();
}

/// port_of[g][p]: the port process p holds on object g (kNoPort when p never
/// reaches g).  Computed by walking the declaration tree top-down: top-level
/// ports come from the System, inner ports from the declarations'
/// port_of_outer chains.
std::vector<std::vector<PortId>> compute_port_of(const System& sys) {
  const int n = sys.num_processes();
  std::vector<std::vector<PortId>> port_of(
      static_cast<std::size_t>(sys.num_objects()),
      std::vector<PortId>(static_cast<std::size_t>(n), kNoPort));
  std::vector<ObjectId> order;
  for (ObjectId g = 0; g < sys.num_objects(); ++g) {
    if (!sys.placement(g).path.empty()) continue;
    for (ProcId p = 0; p < n; ++p) {
      port_of[static_cast<std::size_t>(g)][static_cast<std::size_t>(p)] =
          sys.top_port(g, p);
    }
    order.push_back(g);
  }
  for (std::size_t i = 0; i < order.size(); ++i) {
    const ObjectId g = order[i];
    if (sys.is_base(g)) continue;
    const auto& v = sys.virt(g);
    const auto decls = v.impl->objects();
    for (std::size_t k = 0; k < v.inner.size(); ++k) {
      const ObjectId ig = v.inner[k];
      for (ProcId p = 0; p < n; ++p) {
        const PortId j =
            port_of[static_cast<std::size_t>(g)][static_cast<std::size_t>(p)];
        port_of[static_cast<std::size_t>(ig)][static_cast<std::size_t>(p)] =
            j == kNoPort ? kNoPort
                         : decls[k].port_of_outer[static_cast<std::size_t>(j)];
      }
      order.push_back(ig);
    }
  }
  return port_of;
}

}  // namespace

std::vector<ProcessRenaming> symmetry_renamings(const System& sys) {
  const int n = sys.num_processes();
  if (n < 2 || n > 6) return {};
  const auto port_of = compute_port_of(sys);
  const int num_objects = sys.num_objects();

  std::vector<ProcessRenaming> result;
  std::vector<ProcId> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  while (std::next_permutation(perm.begin(), perm.end())) {
    // Process states are interchangeable only between processes running the
    // same (shared, immutable) top-level program over the same objects.
    bool valid = true;
    for (ProcId p = 0; p < n && valid; ++p) {
      const ProcId q = perm[static_cast<std::size_t>(p)];
      if (sys.toplevel_program(p).get() != sys.toplevel_program(q).get()) {
        valid = false;
        break;
      }
      const auto& ea = sys.toplevel_env(p);
      const auto& eb = sys.toplevel_env(q);
      if (ea.size() != eb.size()) {
        valid = false;
        break;
      }
      for (std::size_t k = 0; k < ea.size(); ++k) {
        if (ea[k].gid != eb[k].gid) {
          valid = false;
          break;
        }
      }
    }
    if (!valid) continue;

    // Induced port maps: moving process p onto pi(p) moves p's port on every
    // object onto pi(p)'s port.  Conflicting or non-injective assignments
    // mean pi is not an automorphism.
    std::vector<std::vector<PortId>> maps(
        static_cast<std::size_t>(num_objects));
    std::vector<std::vector<char>> assigned(
        static_cast<std::size_t>(num_objects));
    for (ObjectId g = 0; g < num_objects && valid; ++g) {
      const int ports = object_ports(sys, g);
      auto& m = maps[static_cast<std::size_t>(g)];
      auto& as = assigned[static_cast<std::size_t>(g)];
      m.assign(static_cast<std::size_t>(ports), kNoPort);
      as.assign(static_cast<std::size_t>(ports), 0);
      for (ProcId p = 0; p < n && valid; ++p) {
        const PortId a =
            port_of[static_cast<std::size_t>(g)][static_cast<std::size_t>(p)];
        const PortId b = port_of[static_cast<std::size_t>(g)]
                                [static_cast<std::size_t>(
                                    perm[static_cast<std::size_t>(p)])];
        if ((a == kNoPort) != (b == kNoPort)) {
          valid = false;
        } else if (a != kNoPort) {
          if (as[static_cast<std::size_t>(a)] &&
              m[static_cast<std::size_t>(a)] != b) {
            valid = false;
          }
          m[static_cast<std::size_t>(a)] = b;
          as[static_cast<std::size_t>(a)] = 1;
        }
      }
      if (!valid) break;
      // Injectivity over assigned targets.  Ports held by no process are
      // inert, so they need no image.
      std::vector<char> used(static_cast<std::size_t>(ports), 0);
      for (PortId a = 0; a < ports && valid; ++a) {
        if (!as[static_cast<std::size_t>(a)]) continue;
        const PortId b = m[static_cast<std::size_t>(a)];
        if (used[static_cast<std::size_t>(b)]) valid = false;
        used[static_cast<std::size_t>(b)] = 1;
      }
    }
    if (!valid) continue;

    // Moved held ports must be behaviourally identical: same transition rows
    // for base objects, same installed programs for implemented objects.
    for (ObjectId g = 0; g < num_objects && valid; ++g) {
      const auto& m = maps[static_cast<std::size_t>(g)];
      const auto& as = assigned[static_cast<std::size_t>(g)];
      for (PortId a = 0; a < static_cast<PortId>(m.size()) && valid; ++a) {
        if (!as[static_cast<std::size_t>(a)]) continue;
        const PortId b = m[static_cast<std::size_t>(a)];
        if (a == b) continue;
        if (sys.is_base(g)) {
          const TypeSpec& t = *sys.base(g).spec;
          for (StateId q = 0; q < t.num_states() && valid; ++q) {
            for (InvId i = 0; i < t.num_invocations() && valid; ++i) {
              valid = std::ranges::equal(t.delta(q, a, i), t.delta(q, b, i));
            }
          }
        } else {
          const Implementation& impl = *sys.virt(g).impl;
          for (InvId i = 0; i < impl.iface().num_invocations() && valid;
               ++i) {
            const bool ha = impl.has_program(i, a);
            if (ha != impl.has_program(i, b)) {
              valid = false;
            } else if (ha &&
                       impl.program(i, a).get() != impl.program(i, b).get()) {
              valid = false;
            }
          }
        }
      }
    }
    if (!valid) continue;

    result.push_back(ProcessRenaming{perm});
  }
  return result;
}

}  // namespace wfregs
