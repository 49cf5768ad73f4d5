#include "wfregs/runtime/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "wfregs/runtime/config_intern.hpp"

namespace wfregs {

std::size_t ConfigKeyHash::operator()(const ConfigKey& k) const {
  return static_cast<std::size_t>(config_hash_words(k.words));
}

Engine::Engine(std::shared_ptr<const System> sys) : sys_(std::move(sys)) {
  if (!sys_) throw std::invalid_argument("Engine: null system");
  std::vector<std::uint32_t> toplevel_ids;
  {
    // Enumerate every reachable program in a construction-order-independent
    // way so the dense ids (and hence config keys) are stable across
    // processes: toplevels first, then implementation programs by
    // (object, invocation, port).
    std::unordered_map<const ProgramCode*, std::uint32_t> ids;
    const auto assign = [&ids](const ProgramCode* code) {
      return ids.emplace(code, static_cast<std::uint32_t>(ids.size()))
          .first->second;
    };
    for (ProcId p = 0; p < sys_->num_processes(); ++p) {
      toplevel_ids.push_back(assign(sys_->toplevel_program(p).get()));
    }
    auto table = std::make_shared<std::vector<std::vector<std::uint32_t>>>(
        static_cast<std::size_t>(sys_->num_objects()));
    for (ObjectId g = 0; g < sys_->num_objects(); ++g) {
      if (sys_->is_base(g)) continue;
      const auto& impl = *sys_->virt(g).impl;
      const int ports = impl.iface().ports();
      auto& row = (*table)[static_cast<std::size_t>(g)];
      row.resize(static_cast<std::size_t>(impl.iface().num_invocations()) *
                 static_cast<std::size_t>(ports));
      for (InvId inv = 0; inv < impl.iface().num_invocations(); ++inv) {
        for (PortId port = 0; port < ports; ++port) {
          if (impl.has_program(inv, port)) {
            row[static_cast<std::size_t>(inv * ports + port)] =
                assign(impl.program(inv, port).get());
          }
        }
      }
    }
    program_ids_ = std::move(table);
  }
  compiled_.resize(static_cast<std::size_t>(sys_->num_objects()), nullptr);
  object_state_.resize(static_cast<std::size_t>(sys_->num_objects()), 0);
  persistent_.resize(static_cast<std::size_t>(sys_->num_objects()));
  access_count_.resize(static_cast<std::size_t>(sys_->num_objects()), 0);
  access_by_inv_.resize(static_cast<std::size_t>(sys_->num_objects()));
  for (ObjectId g = 0; g < sys_->num_objects(); ++g) {
    if (sys_->is_base(g)) {
      const auto& b = sys_->base(g);
      compiled_[static_cast<std::size_t>(g)] = b.compiled.get();
      object_state_[static_cast<std::size_t>(g)] = b.initial;
      access_by_inv_[static_cast<std::size_t>(g)].resize(
          static_cast<std::size_t>(b.spec->num_invocations()), 0);
    } else {
      const auto& v = sys_->virt(g);
      const int slots = v.impl->persistent_slots();
      if (slots > 0) {
        auto& store = persistent_[static_cast<std::size_t>(g)];
        store.reserve(static_cast<std::size_t>(slots) *
                      v.impl->iface().ports());
        for (PortId port = 0; port < v.impl->iface().ports(); ++port) {
          for (const Val init : v.impl->persistent_initial()) {
            store.push_back(init);
          }
        }
      }
    }
  }
  procs_.resize(static_cast<std::size_t>(sys_->num_processes()));
  for (ProcId p = 0; p < sys_->num_processes(); ++p) {
    auto& proc = procs_[static_cast<std::size_t>(p)];
    const ProgramRef& code = sys_->toplevel_program(p);
    Frame top;
    top.code = code.get();
    top.code_id = toplevel_ids[static_cast<std::size_t>(p)];
    top.locals.regs.resize(static_cast<std::size_t>(code->num_regs()), 0);
    top.env = sys_->toplevel_env(p);
    proc.stack.push_back(std::move(top));
    prepare(p);
  }
}

void Engine::check_proc(ProcId p) const {
  if (p < 0 || p >= static_cast<int>(procs_.size())) {
    throw std::out_of_range("Engine: process id out of range");
  }
}

std::vector<Handle> Engine::inner_env(const System::VirtualObject& v,
                                      PortId port) const {
  std::vector<Handle> env;
  env.reserve(v.inner.size());
  const auto decls = v.impl->objects();
  for (std::size_t k = 0; k < v.inner.size(); ++k) {
    env.push_back(
        Handle{v.inner[k], decls[k].port_of_outer[static_cast<std::size_t>(
                               port)]});
  }
  return env;
}

void Engine::prepare(ProcId p, UndoRecord* undo) {
  auto& proc = procs_[static_cast<std::size_t>(p)];
  // Guard against a single prepare() performing unbounded virtual-frame
  // traffic (e.g. mutually recursive implementations).
  constexpr int kMaxTransitions = 1000000;
  for (int guard = 0; guard < kMaxTransitions; ++guard) {
    if (proc.stack.empty()) {
      proc.finished = true;
      return;
    }
    Frame& top = proc.stack.back();
    const Action act = top.code->step(top.locals);
    if (const auto* inv = std::get_if<DoInvoke>(&act)) {
      if (inv->slot < 0 ||
          inv->slot >= static_cast<int>(top.env.size())) {
        throw std::logic_error("Engine: program " + top.code->name() +
                               " invoked unknown environment slot " +
                               std::to_string(inv->slot));
      }
      const Handle h = top.env[static_cast<std::size_t>(inv->slot)];
      if (h.port == kNoPort) {
        throw std::logic_error("Engine: program " + top.code->name() +
                               " accessed object " + std::to_string(h.gid) +
                               " through a port it does not hold");
      }
      if (sys_->is_base(h.gid)) {
        // Validate the invocation id once, here: the explorers then read
        // delta through CompiledType::delta_unchecked on every edge (state
        // and port are valid by construction).
        const CompiledType& ct = *compiled_[static_cast<std::size_t>(h.gid)];
        if (inv->inv < 0 || inv->inv >= ct.num_invocations()) {
          throw std::out_of_range("Engine: program " + top.code->name() +
                                  " invoked out-of-range invocation " +
                                  std::to_string(inv->inv) + " on type " +
                                  ct.name());
        }
        proc.pending = PendingAccess{h, inv->inv, inv->result_reg};
        return;
      }
      const auto& v = sys_->virt(h.gid);
      const ProgramRef& prog = v.impl->program(inv->inv, h.port);
      Frame child;
      child.code = prog.get();
      child.code_id = (*program_ids_)[static_cast<std::size_t>(h.gid)]
                                     [static_cast<std::size_t>(
                                         inv->inv * v.impl->iface().ports() +
                                         h.port)];
      const int persist = v.impl->persistent_slots();
      child.locals.regs.resize(
          static_cast<std::size_t>(std::max(prog->num_regs(), persist)), 0);
      if (persist > 0) {
        child.persist_gid = h.gid;
        child.persist_port = h.port;
        child.persist_count = persist;
        const auto& store = persistent_[static_cast<std::size_t>(h.gid)];
        for (int k = 0; k < persist; ++k) {
          child.locals.regs[static_cast<std::size_t>(k)] =
              store[static_cast<std::size_t>(h.port) * persist +
                    static_cast<std::size_t>(k)];
        }
      }
      child.env = inner_env(v, h.port);
      child.result_reg_in_parent = inv->result_reg;
      child.op_id = history_.begin_op(p, h.gid, h.port, inv->inv, clock_++);
      proc.stack.push_back(std::move(child));
      continue;
    }
    const Val value = std::get<DoReturn>(act).value;
    const Frame finished = std::move(proc.stack.back());
    proc.stack.pop_back();
    if (finished.persist_count > 0) {
      auto& store = persistent_[static_cast<std::size_t>(finished.persist_gid)];
      const std::size_t offset =
          static_cast<std::size_t>(finished.persist_port) *
          static_cast<std::size_t>(finished.persist_count);
      if (undo) {
        auto& pu = undo->persist.emplace_back();
        pu.gid = finished.persist_gid;
        pu.offset = offset;
        pu.old.assign(store.begin() + static_cast<std::ptrdiff_t>(offset),
                      store.begin() + static_cast<std::ptrdiff_t>(
                                          offset + static_cast<std::size_t>(
                                                       finished.persist_count)));
      }
      for (int k = 0; k < finished.persist_count; ++k) {
        store[offset + static_cast<std::size_t>(k)] =
            finished.locals.regs[static_cast<std::size_t>(k)];
      }
    }
    if (finished.op_id >= 0) {
      // Ops begun during this step (id >= the journal's history_size) are
      // removed wholesale by truncate; only older ops need reopening.
      if (undo &&
          static_cast<std::size_t>(finished.op_id) < undo->history_size) {
        undo->reopened_ops.push_back(finished.op_id);
      }
      history_.end_op(finished.op_id, value, clock_++);
    }
    if (proc.stack.empty()) {
      proc.result = value;
      proc.finished = true;
      return;
    }
    proc.stack.back()
        .locals.regs[static_cast<std::size_t>(finished.result_reg_in_parent)] =
        value;
  }
  throw std::runtime_error(
      "Engine: prepare exceeded frame-transition budget (runaway nesting?)");
}

bool Engine::done(ProcId p) const {
  check_proc(p);
  return procs_[static_cast<std::size_t>(p)].finished;
}

bool Engine::all_done() const {
  for (const auto& proc : procs_) {
    if (!proc.finished) return false;
  }
  return true;
}

std::optional<Val> Engine::result(ProcId p) const {
  check_proc(p);
  return procs_[static_cast<std::size_t>(p)].result;
}

std::vector<ProcId> Engine::runnable() const {
  std::vector<ProcId> out;
  for (ProcId p = 0; p < static_cast<int>(procs_.size()); ++p) {
    if (!procs_[static_cast<std::size_t>(p)].finished) out.push_back(p);
  }
  return out;
}

int Engine::pending_choices(ProcId p) const {
  check_proc(p);
  const auto& proc = procs_[static_cast<std::size_t>(p)];
  if (!proc.pending) {
    throw std::logic_error("Engine::pending_choices: process " +
                           std::to_string(p) + " has no pending access");
  }
  const auto& pa = *proc.pending;
  const auto set =
      compiled_[static_cast<std::size_t>(pa.handle.gid)]->delta_unchecked(
          object_state_[static_cast<std::size_t>(pa.handle.gid)],
          pa.handle.port, pa.inv);
  return static_cast<int>(set.size());
}

ObjectId Engine::pending_object(ProcId p) const {
  check_proc(p);
  const auto& proc = procs_[static_cast<std::size_t>(p)];
  if (!proc.pending) {
    throw std::logic_error("Engine::pending_object: process " +
                           std::to_string(p) + " has no pending access");
  }
  return proc.pending->handle.gid;
}

Engine::CommitInfo Engine::commit(ProcId p, int choice) {
  return commit_impl(p, choice, nullptr);
}

Engine::CommitInfo Engine::apply(ProcId p, int choice, UndoRecord& undo) {
  return commit_impl(p, choice, &undo);
}

Engine::CommitInfo Engine::commit_impl(ProcId p, int choice,
                                       UndoRecord* undo) {
  check_proc(p);
  auto& proc = procs_[static_cast<std::size_t>(p)];
  if (!proc.pending) {
    throw std::logic_error("Engine::commit: process " + std::to_string(p) +
                           " has no pending access");
  }
  const PendingAccess pa = *proc.pending;
  const CompiledType& ct = *compiled_[static_cast<std::size_t>(pa.handle.gid)];
  const StateId state =
      object_state_[static_cast<std::size_t>(pa.handle.gid)];
  const auto set = ct.delta_unchecked(state, pa.handle.port, pa.inv);
  if (set.empty()) {
    const auto& b = sys_->base(pa.handle.gid);
    throw std::logic_error("Engine::commit: type " + b.spec->name() +
                           " has no transition for " +
                           b.spec->invocation_name(pa.inv) + " in state " +
                           b.spec->state_name(state));
  }
  if (choice < 0 || choice >= static_cast<int>(set.size())) {
    throw std::out_of_range("Engine::commit: choice " +
                            std::to_string(choice) + " out of range (" +
                            std::to_string(set.size()) + " transitions)");
  }
  if (undo) {
    undo->p = p;
    undo->gid = pa.handle.gid;
    undo->inv = pa.inv;
    undo->saved_state = state;
    undo->saved_time = time_;
    undo->saved_clock = clock_;
    undo->history_size = history_.size();
    undo->saved_proc = proc;  // full pre-step snapshot, before any mutation
    undo->persist.clear();
    undo->reopened_ops.clear();
  }
  const Transition t = set[static_cast<std::size_t>(choice)];
  object_state_[static_cast<std::size_t>(pa.handle.gid)] = t.next;
  ++time_;
  ++clock_;
  ++access_count_[static_cast<std::size_t>(pa.handle.gid)];
  ++access_by_inv_[static_cast<std::size_t>(pa.handle.gid)]
                  [static_cast<std::size_t>(pa.inv)];
  proc.stack.back().locals.regs[static_cast<std::size_t>(pa.result_reg)] =
      t.resp;
  proc.pending.reset();
  prepare(p, undo);
  return CommitInfo{pa.handle.gid, pa.handle.port, pa.inv, t.resp};
}

void Engine::revert(UndoRecord& undo) {
  if (undo.p < 0) {
    throw std::logic_error("Engine::revert: record was never filled");
  }
  object_state_[static_cast<std::size_t>(undo.gid)] = undo.saved_state;
  --access_count_[static_cast<std::size_t>(undo.gid)];
  --access_by_inv_[static_cast<std::size_t>(undo.gid)]
                  [static_cast<std::size_t>(undo.inv)];
  time_ = undo.saved_time;
  clock_ = undo.saved_clock;
  // Persistent blocks, newest write-back first (a block written twice in
  // one step ends at its original values).
  for (auto it = undo.persist.rbegin(); it != undo.persist.rend(); ++it) {
    auto& store = persistent_[static_cast<std::size_t>(it->gid)];
    std::copy(it->old.begin(), it->old.end(),
              store.begin() + static_cast<std::ptrdiff_t>(it->offset));
  }
  history_.truncate(undo.history_size);
  for (const int op_id : undo.reopened_ops) history_.reopen_op(op_id);
  // Swap rather than move: the record keeps the post-step buffers, which
  // the next apply()'s snapshot copy reuses instead of allocating.
  std::swap(procs_[static_cast<std::size_t>(undo.p)], undo.saved_proc);
  undo.p = -1;  // mark consumed
}

StateId Engine::object_state(ObjectId g) const {
  if (!sys_->is_base(g)) {
    throw std::logic_error("Engine::object_state: not a base object");
  }
  return object_state_[static_cast<std::size_t>(g)];
}

std::size_t Engine::access_count(ObjectId g) const {
  if (g < 0 || g >= sys_->num_objects()) {
    throw std::out_of_range("Engine::access_count: object id out of range");
  }
  return access_count_[static_cast<std::size_t>(g)];
}

std::size_t Engine::access_count(ObjectId g, InvId i) const {
  if (g < 0 || g >= sys_->num_objects() || !sys_->is_base(g)) {
    throw std::out_of_range("Engine::access_count: bad base object id");
  }
  const auto& counts = access_by_inv_[static_cast<std::size_t>(g)];
  if (i < 0 || i >= static_cast<int>(counts.size())) {
    throw std::out_of_range("Engine::access_count: invocation out of range");
  }
  return counts[static_cast<std::size_t>(i)];
}

int Engine::stack_depth(ProcId p) const {
  check_proc(p);
  return static_cast<int>(procs_[static_cast<std::size_t>(p)].stack.size());
}

void Engine::config_key_into(ConfigKey& key) const {
  key.words.clear();
  KeyPacker w(key.words);
  const auto put = [&w](auto v) { w.put(static_cast<std::uint64_t>(v)); };
  for (ObjectId g = 0; g < sys_->num_objects(); ++g) {
    if (sys_->is_base(g)) {
      put(object_state_[static_cast<std::size_t>(g)]);
    } else {
      for (const Val v : persistent_[static_cast<std::size_t>(g)]) put(v);
    }
  }
  for (const Proc& proc : procs_) {
    put(proc.finished ? 1 : 0);
    put(proc.result ? static_cast<std::uint64_t>(*proc.result) + 1 : 0);
    put(proc.pending ? 1 : 0);
    if (proc.pending) {
      put(proc.pending->handle.gid);
      put(proc.pending->handle.port);
      put(proc.pending->inv);
      put(proc.pending->result_reg);
    }
    put(proc.stack.size());
    for (const Frame& f : proc.stack) {
      // Program identity: code objects are immutable and shared, so each is
      // identified by its construction-order-stable dense id (not its
      // pointer -- keys must match across processes for checkpoint resume).
      put(f.code_id);
      put(f.locals.pc);
      put(f.locals.regs.size());
      for (const Val v : f.locals.regs) put(v);
      put(f.result_reg_in_parent);
      // env is determined by (code, port context) but is cheap to include:
      for (const Handle& h : f.env) {
        put(h.gid);
        put(h.port + 1);
      }
      // op_id is deliberately excluded: it indexes the history, which is
      // path data, not configuration state.
    }
  }
  w.finish();
}

ConfigKey Engine::config_key() const {
  ConfigKey key;
  config_key_into(key);
  return key;
}

}  // namespace wfregs
