#include "wfregs/runtime/reduction.hpp"

#include <algorithm>
#include <numeric>
#include <utility>

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
      // Injectivity over assigned targets, then complete the partial map to
      // a permutation: ports held by no process are inert, so pair leftover
      // sources with leftover targets in ascending order.
      std::vector<char> used(static_cast<std::size_t>(ports), 0);
      for (PortId a = 0; a < ports && valid; ++a) {
        if (!as[static_cast<std::size_t>(a)]) continue;
        const PortId b = m[static_cast<std::size_t>(a)];
        if (used[static_cast<std::size_t>(b)]) valid = false;
        used[static_cast<std::size_t>(b)] = 1;
      }
      if (!valid) break;
      PortId next_free = 0;
      for (PortId a = 0; a < ports; ++a) {
        if (as[static_cast<std::size_t>(a)]) continue;
        while (used[static_cast<std::size_t>(next_free)]) ++next_free;
        m[static_cast<std::size_t>(a)] = next_free;
        used[static_cast<std::size_t>(next_free)] = 1;
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

    ProcessRenaming r;
    r.proc_map = perm;
    r.old_proc.assign(static_cast<std::size_t>(n), 0);
    for (ProcId p = 0; p < n; ++p) {
      r.old_proc[static_cast<std::size_t>(perm[static_cast<std::size_t>(p)])] =
          p;
    }
    r.port_map.resize(static_cast<std::size_t>(num_objects));
    r.old_port.resize(static_cast<std::size_t>(num_objects));
    for (ObjectId g = 0; g < num_objects; ++g) {
      auto& m = maps[static_cast<std::size_t>(g)];
      bool identity = true;
      for (PortId a = 0; a < static_cast<PortId>(m.size()); ++a) {
        identity = identity && m[static_cast<std::size_t>(a)] == a;
      }
      if (identity) continue;  // empty vectors mean identity
      auto& inv = r.old_port[static_cast<std::size_t>(g)];
      inv.assign(m.size(), 0);
      for (PortId a = 0; a < static_cast<PortId>(m.size()); ++a) {
        inv[static_cast<std::size_t>(m[static_cast<std::size_t>(a)])] = a;
      }
      r.port_map[static_cast<std::size_t>(g)] = std::move(m);
    }
    result.push_back(std::move(r));
  }
  return result;
}

ReductionContext::ReductionContext(const System& sys)
    : renamings_(symmetry_renamings(sys)) {
  inverses_.reserve(renamings_.size());
  for (const ProcessRenaming& r : renamings_) {
    // The inverse permutation is the same renaming with the forward and
    // backward maps swapped.
    ProcessRenaming inv;
    inv.proc_map = r.old_proc;
    inv.old_proc = r.proc_map;
    inv.port_map = r.old_port;
    inv.old_port = r.port_map;
    inverses_.push_back(std::move(inv));
  }
}

void ReductionContext::steps_into(const Engine& e, std::vector<Step>& out) {
  out.clear();
  const int n = e.system().num_processes();
  for (ProcId p = 0; p < n; ++p) {
    if (!e.done(p)) out.push_back(Step{p, e.pending_choices(p)});
  }
}

void ReductionContext::canonical_node_key_into(Engine& e, ConfigKey& out,
                                               ConfigKey& scratch,
                                               int* applied) const {
  e.config_key_into(out);
  int best_idx = -1;
  for (std::size_t idx = 0; idx < renamings_.size(); ++idx) {
    e.config_key_into(scratch, renamings_[idx]);
    if (scratch.words < out.words) {
      std::swap(out.words, scratch.words);
      best_idx = static_cast<int>(idx);
    }
  }
  if (best_idx >= 0) {
    e.apply_renaming(renamings_[static_cast<std::size_t>(best_idx)]);
  }
  if (applied) *applied = best_idx;
}

void ReductionContext::apply_renaming_index(Engine& e, int idx) const {
  e.apply_renaming(renamings_[static_cast<std::size_t>(idx)]);
}

void ReductionContext::undo_renaming(Engine& e, int idx) const {
  e.apply_renaming(inverses_[static_cast<std::size_t>(idx)]);
}

}  // namespace wfregs
