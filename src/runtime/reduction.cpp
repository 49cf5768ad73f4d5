#include "wfregs/runtime/reduction.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <tuple>
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

/// True when two processes hold the same port on some object (base or
/// implemented): steps then conflict through shared per-port state, which
/// invalidates the disjoint-object independence assumption.
bool has_shared_ports(const std::vector<std::vector<PortId>>& port_of) {
  for (const auto& row : port_of) {
    for (std::size_t p1 = 0; p1 < row.size(); ++p1) {
      if (row[p1] == kNoPort) continue;
      for (std::size_t p2 = p1 + 1; p2 < row.size(); ++p2) {
        if (row[p1] == row[p2]) return true;
      }
    }
  }
  return false;
}

}  // namespace

bool accesses_commute_at(const TypeSpec& t, StateId q, PortId a, InvId i1,
                         PortId b, InvId i2) {
  using Outcome = std::tuple<StateId, RespId, RespId>;
  std::vector<Outcome> first;
  std::vector<Outcome> second;
  for (const Transition& t1 : t.delta(q, a, i1)) {
    for (const Transition& t2 : t.delta(t1.next, b, i2)) {
      first.emplace_back(t2.next, t1.resp, t2.resp);
    }
  }
  for (const Transition& t2 : t.delta(q, b, i2)) {
    for (const Transition& t1 : t.delta(t2.next, a, i1)) {
      second.emplace_back(t1.next, t1.resp, t2.resp);
    }
  }
  std::ranges::sort(first);
  first.erase(std::unique(first.begin(), first.end()), first.end());
  std::ranges::sort(second);
  second.erase(std::unique(second.begin(), second.end()), second.end());
  return first == second;
}

IndependenceTable IndependenceTable::build(const System& sys) {
  IndependenceTable table = all_dependent(sys);
  for (ObjectId g = 0; g < sys.num_objects(); ++g) {
    if (!sys.is_base(g)) continue;
    // The pairwise outcome-set comparison was precomputed when the spec was
    // compiled (CompiledType's commutation matrix uses the same
    // [(a*I+i1)*P*I + b*I+i2] layout as PerObject::bits), so building the
    // baseline table is a copy instead of a per-build delta traversal.
    const CompiledType& ct = *sys.base(g).compiled;
    const auto matrix = ct.commutation_matrix();
    auto& per = table.objects_[static_cast<std::size_t>(g)];
    std::copy(matrix.begin(), matrix.end(), per.bits.begin());
  }
  return table;
}

IndependenceTable IndependenceTable::all_dependent(const System& sys) {
  IndependenceTable table;
  table.objects_.resize(static_cast<std::size_t>(sys.num_objects()));
  for (ObjectId g = 0; g < sys.num_objects(); ++g) {
    if (!sys.is_base(g)) continue;
    const TypeSpec& t = *sys.base(g).spec;
    auto& per = table.objects_[static_cast<std::size_t>(g)];
    per.ports = t.ports();
    per.invs = t.num_invocations();
    per.bits.assign(static_cast<std::size_t>(per.ports) * per.invs *
                        per.ports * per.invs,
                    0);
  }
  return table;
}

bool IndependenceTable::covers(ObjectId g, int ports, int invs) const {
  if (g < 0 || g >= static_cast<int>(objects_.size())) return false;
  const PerObject& per = objects_[static_cast<std::size_t>(g)];
  return per.ports == ports && per.invs == invs;
}

bool IndependenceTable::independent(ObjectId g, PortId a, InvId i1, PortId b,
                                    InvId i2) const {
  const PerObject& per = objects_[static_cast<std::size_t>(g)];
  const std::size_t idx =
      ((static_cast<std::size_t>(a) * per.invs + static_cast<std::size_t>(i1)) *
           per.ports +
       static_cast<std::size_t>(b)) *
          per.invs +
      static_cast<std::size_t>(i2);
  return per.bits[idx] != 0;
}

void IndependenceTable::set_independent(ObjectId g, PortId a, InvId i1,
                                        PortId b, InvId i2, bool independent) {
  PerObject& per = objects_[static_cast<std::size_t>(g)];
  const std::size_t idx =
      ((static_cast<std::size_t>(a) * per.invs + static_cast<std::size_t>(i1)) *
           per.ports +
       static_cast<std::size_t>(b)) *
          per.invs +
      static_cast<std::size_t>(i2);
  per.bits[idx] = independent ? 1 : 0;
}

std::size_t IndependenceTable::independent_pairs() const {
  std::size_t count = 0;
  for (const PerObject& per : objects_) {
    for (const char bit : per.bits) count += bit != 0;
  }
  return count;
}

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

ReductionContext::ReductionContext(const System& sys, Reduction mode,
                                   const IndependenceTable* injected)
    : sys_(&sys) {
  if (mode == Reduction::kNone) {
    throw std::logic_error("ReductionContext: reduction mode is none");
  }
  const auto port_of = compute_port_of(sys);
  sleep_active_ =
      sys.num_processes() <= 64 && !has_shared_ports(port_of);
  if (sleep_active_) {
    if (injected) {
      for (ObjectId g = 0; g < sys.num_objects(); ++g) {
        if (!sys.is_base(g)) continue;
        const TypeSpec& t = *sys.base(g).spec;
        if (!injected->covers(g, t.ports(), t.num_invocations())) {
          throw std::invalid_argument(
              "ReductionContext: injected independence table does not cover "
              "base object " +
              std::to_string(g));
        }
      }
      table_ = *injected;
    } else {
      table_ = IndependenceTable::build(sys);
    }
  }
  if (mode == Reduction::kSleepSymmetry) {
    renamings_ = symmetry_renamings(sys);
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
}

void ReductionContext::steps_into(const Engine& e, std::vector<Step>& out) {
  out.clear();
  const int n = e.system().num_processes();
  for (ProcId p = 0; p < n; ++p) {
    if (e.done(p)) continue;
    Step s;
    s.p = p;
    s.object = e.pending_object(p);
    s.port = e.pending_port(p);
    s.inv = e.pending_inv(p);
    s.width = e.pending_choices(p);
    out.push_back(s);
  }
}

bool ReductionContext::independent(const Step& a, const Step& b) const {
  if (a.object != b.object) return true;
  return table_.independent(a.object, a.port, a.inv, b.port, b.inv);
}

std::uint64_t ReductionContext::child_sleep(const std::vector<Step>& steps,
                                            std::size_t taken,
                                            std::uint64_t sleep) const {
  if (!sleep_active_) return 0;
  const Step& t = steps[taken];
  std::uint64_t child = 0;
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const Step& s = steps[k];
    const std::uint64_t bit = std::uint64_t{1} << s.p;
    const bool slept = (sleep & bit) != 0;
    // Candidates: processes already asleep here, plus earlier-explored
    // siblings (their subtrees cover the executions that start with them).
    if (!slept && !(k < taken && s.width > 0)) continue;
    if (independent(s, t)) child |= bit;
  }
  return child;
}

ConfigKey ReductionContext::canonical_node_key(Engine& e,
                                               std::uint64_t& sleep) const {
  ConfigKey key;
  canonical_node_key_into(e, sleep, key, nullptr);
  return key;
}

void ReductionContext::canonical_node_key_into(Engine& e, std::uint64_t& sleep,
                                               ConfigKey& out,
                                               int* applied) const {
  e.config_key_into(out);
  std::uint64_t best_sleep = sleep;
  int best_idx = -1;
  ConfigKey scratch;
  for (std::size_t idx = 0; idx < renamings_.size(); ++idx) {
    const ProcessRenaming& r = renamings_[idx];
    e.config_key_into(scratch, r);
    std::uint64_t renamed = 0;
    for (ProcId p = 0; p < static_cast<int>(r.proc_map.size()); ++p) {
      if (sleep & (std::uint64_t{1} << p)) {
        renamed |= std::uint64_t{1} << r.proc_map[static_cast<std::size_t>(p)];
      }
    }
    if (std::tie(scratch.words, renamed) <
        std::tie(out.words, best_sleep)) {
      std::swap(out.words, scratch.words);
      best_sleep = renamed;
      best_idx = static_cast<int>(idx);
    }
  }
  if (best_idx >= 0) {
    e.apply_renaming(renamings_[static_cast<std::size_t>(best_idx)]);
    sleep = best_sleep;
  }
  if (applied) *applied = best_idx;
  out.words.push_back(best_sleep);
}

void ReductionContext::apply_renaming_index(Engine& e, int idx) const {
  e.apply_renaming(renamings_[static_cast<std::size_t>(idx)]);
}

void ReductionContext::undo_renaming(Engine& e, int idx) const {
  e.apply_renaming(inverses_[static_cast<std::size_t>(idx)]);
}

}  // namespace wfregs
