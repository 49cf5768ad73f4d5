#include "wfregs/analysis/consensus_power.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "wfregs/analysis/lint.hpp"
#include "wfregs/typesys/compiled_type.hpp"

namespace wfregs::analysis {

namespace {

// ---- shared small helpers ---------------------------------------------------

std::size_t coo_index(const TypeSpec& t, StateId q, PortId a, InvId i1,
                      PortId b, InvId i2) {
  const std::size_t P = static_cast<std::size_t>(t.ports());
  const std::size_t I = static_cast<std::size_t>(t.num_invocations());
  return (((static_cast<std::size_t>(q) * P + static_cast<std::size_t>(a)) *
               I +
           static_cast<std::size_t>(i1)) *
              P +
          static_cast<std::size_t>(b)) *
             I +
         static_cast<std::size_t>(i2);
}

std::size_t coo_size(const TypeSpec& t) {
  const std::size_t P = static_cast<std::size_t>(t.ports());
  const std::size_t I = static_cast<std::size_t>(t.num_invocations());
  return static_cast<std::size_t>(t.num_states()) * P * I * P * I;
}

// ---- classifier side (CompiledType + the Section 5 deciders) ---------------

/// The Herlihy critical-state table: the disposition of every cross-port
/// pair at every state, read off delta.
std::optional<CommuteOverwriteCert> build_commute_overwrite(
    const TypeSpec& t, const CompiledType& c) {
  if (!c.is_deterministic()) return std::nullopt;
  CommuteOverwriteCert cert;
  cert.dispositions.assign(coo_size(t), kPairUnused);
  for (PortId a = 0; a < c.ports(); ++a) {
    for (PortId b = a + 1; b < c.ports(); ++b) {
      for (InvId i1 = 0; i1 < c.num_invocations(); ++i1) {
        for (InvId i2 = 0; i2 < c.num_invocations(); ++i2) {
          for (StateId q = 0; q < c.num_states(); ++q) {
            const Transition t1 = c.delta_unchecked(q, a, i1)[0];
            const Transition t2 = c.delta_unchecked(q, b, i2)[0];
            const Transition t12 = c.delta_unchecked(t1.next, b, i2)[0];
            const Transition t21 = c.delta_unchecked(t2.next, a, i1)[0];
            PairDisposition d;
            if (t12.next == t21.next && t1.resp == t21.resp &&
                t2.resp == t12.resp) {
              d = PairDisposition::kCommute;
            } else if (t12 == t2) {
              d = PairDisposition::kSecondOverwritesFirst;
            } else if (t21 == t1) {
              d = PairDisposition::kFirstOverwritesSecond;
            } else {
              return std::nullopt;  // the pair interferes at q
            }
            cert.dispositions[coo_index(t, q, a, i1, b, i2)] =
                static_cast<std::uint8_t>(d);
          }
        }
      }
    }
  }
  return cert;
}

/// Section 5.1 as a one-step invariant: responses constant along every edge.
std::optional<TrivialObliviousCert> build_trivial_oblivious(
    const CompiledType& c) {
  if (!c.is_deterministic() || !c.is_oblivious()) return std::nullopt;
  const int Q = c.num_states();
  const int I = c.num_invocations();
  TrivialObliviousCert cert;
  cert.resp.resize(static_cast<std::size_t>(Q) * static_cast<std::size_t>(I));
  for (StateId q = 0; q < Q; ++q) {
    for (InvId i = 0; i < I; ++i) {
      cert.resp[static_cast<std::size_t>(q) * I + i] =
          c.delta_unchecked(q, 0, i)[0].resp;
    }
  }
  for (StateId q = 0; q < Q; ++q) {
    for (InvId j = 0; j < I; ++j) {
      const StateId next = c.delta_unchecked(q, 0, j)[0].next;
      for (InvId i = 0; i < I; ++i) {
        if (cert.resp[static_cast<std::size_t>(next) * I + i] !=
            cert.resp[static_cast<std::size_t>(q) * I + i]) {
          return std::nullopt;
        }
      }
    }
  }
  return cert;
}

/// Section 5.2 via the Mealy partitions: trivial iff no non-trivial pair
/// exists, and the per-port trace classes are then the certificate.
std::optional<TrivialGeneralCert> build_trivial_general(const TypeSpec& t) {
  if (!t.is_deterministic() || t.ports() < 2) return std::nullopt;
  if (find_nontrivial_pair(t)) return std::nullopt;
  TrivialGeneralCert cert;
  const std::size_t Q = static_cast<std::size_t>(t.num_states());
  cert.classes.resize(static_cast<std::size_t>(t.ports()) * Q);
  for (PortId j = 0; j < t.ports(); ++j) {
    const std::vector<int> classes = port_trace_classes(t, j);
    std::copy(classes.begin(), classes.end(),
              cert.classes.begin() + static_cast<std::ptrdiff_t>(j * Q));
  }
  return cert;
}

/// Cross-port race: both sides' responses distinguish first from second.
std::optional<RaceCert> find_race_cert(const CompiledType& c) {
  if (!c.is_deterministic() || c.ports() < 2) return std::nullopt;
  for (StateId q = 0; q < c.num_states(); ++q) {
    for (PortId a = 0; a < c.ports(); ++a) {
      for (PortId b = a + 1; b < c.ports(); ++b) {
        for (InvId ia = 0; ia < c.num_invocations(); ++ia) {
          for (InvId ib = 0; ib < c.num_invocations(); ++ib) {
            const Transition ta = c.delta_unchecked(q, a, ia)[0];
            const Transition tb = c.delta_unchecked(q, b, ib)[0];
            const RespId second_a = c.delta_unchecked(tb.next, a, ia)[0].resp;
            const RespId second_b = c.delta_unchecked(ta.next, b, ib)[0].resp;
            if (ta.resp == second_a || tb.resp == second_b) continue;
            RaceCert cert;
            cert.q = q;
            cert.port_a = a;
            cert.port_b = b;
            cert.inv_a = ia;
            cert.inv_b = ib;
            cert.first_a = ta.resp;
            cert.second_a = second_a;
            cert.first_b = tb.resp;
            cert.second_b = second_b;
            // The derived Section 5.2 pair: [i_a] on port a distinguishes
            // q from delta(q, b, i_b).next.
            cert.pair.q = q;
            cert.pair.reader_port = a;
            cert.pair.writer_port = b;
            cert.pair.write_inv = ib;
            cert.pair.read_seq = {ia};
            cert.pair.unwritten_resp = ta.resp;
            cert.pair.written_resp = second_a;
            return cert;
          }
        }
      }
    }
  }
  return std::nullopt;
}

/// Collects the first-value constraints of the depth-d adopt gadget for a
/// fixed (q0, inv0, inv1): every injective port sequence over ports
/// 0..depth-1, every value assignment.  Returns the decide table (-1 =
/// unreachable) or nullopt on a conflict.
std::optional<std::vector<int>> adopt_constraints(const CompiledType& c,
                                                  StateId q0, InvId inv0,
                                                  InvId inv1, int depth) {
  const int R = c.num_responses();
  std::vector<int> decide(2 * static_cast<std::size_t>(R), -1);
  const InvId inv[2] = {inv0, inv1};
  // DFS over (state, used-port mask, first value) with a visited memo; each
  // node's outgoing constraints are emitted exactly once.
  std::set<std::tuple<StateId, unsigned, int>> seen;
  struct Frame {
    StateId state;
    unsigned mask;
    int first;
  };
  std::vector<Frame> stack;
  for (PortId p = 0; p < depth; ++p) {
    for (int v = 0; v < 2; ++v) {
      const Transition tr = c.delta_unchecked(q0, p, inv[v])[0];
      int& slot = decide[static_cast<std::size_t>(v) * R + tr.resp];
      if (slot == -1) slot = v;
      if (slot != v) return std::nullopt;
      stack.push_back({tr.next, 1u << p, v});
    }
  }
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (!seen.insert({f.state, f.mask, f.first}).second) continue;
    for (PortId p = 0; p < depth; ++p) {
      if (f.mask & (1u << p)) continue;
      for (int v = 0; v < 2; ++v) {
        const Transition tr = c.delta_unchecked(f.state, p, inv[v])[0];
        int& slot = decide[static_cast<std::size_t>(v) * R + tr.resp];
        if (slot == -1) slot = f.first;
        if (slot != f.first) return std::nullopt;
        stack.push_back({tr.next, f.mask | (1u << p), f.first});
      }
    }
  }
  return decide;
}

std::optional<AdoptCert> find_adopt_cert(const CompiledType& c) {
  if (!c.is_deterministic() || c.ports() < 2) return std::nullopt;
  const int max_depth = std::min(c.ports(), 8);  // mask width guard
  for (int depth = max_depth; depth >= 2; --depth) {
    for (StateId q = 0; q < c.num_states(); ++q) {
      for (InvId i0 = 0; i0 < c.num_invocations(); ++i0) {
        for (InvId i1 = 0; i1 < c.num_invocations(); ++i1) {
          if (auto decide = adopt_constraints(c, q, i0, i1, depth)) {
            AdoptCert cert;
            cert.q = q;
            cert.depth = depth;
            cert.inv[0] = i0;
            cert.inv[1] = i1;
            cert.decide = std::move(*decide);
            return cert;
          }
        }
      }
    }
  }
  return std::nullopt;
}

AdoptCert solo_cert(const TypeSpec& t) {
  // Depth 1: invoke anything, decide your own input -- consistent for any
  // total type (including nondeterministic ones).
  AdoptCert cert;
  cert.q = 0;
  cert.depth = 1;
  cert.inv[0] = 0;
  cert.inv[1] = 0;
  cert.decide.resize(2 * static_cast<std::size_t>(t.num_responses()));
  for (int v = 0; v < 2; ++v) {
    for (RespId r = 0; r < t.num_responses(); ++r) {
      cert.decide[static_cast<std::size_t>(v) * t.num_responses() + r] = v;
    }
  }
  return cert;
}

// ---- independent checker helpers (raw delta only) --------------------------

/// The checker's own determinism probe: exactly one transition in the cell.
std::optional<Transition> det_cell(const TypeSpec& t, StateId q, PortId p,
                                   InvId i) {
  const auto cell = t.delta(q, p, i);
  if (cell.size() != 1) return std::nullopt;
  return cell[0];
}

CertCheckResult fail(std::string why) { return {false, std::move(why)}; }

CertCheckResult check_commute_overwrite(const TypeSpec& t,
                                        const PowerClaim& claim,
                                        const CommuteOverwriteCert& cert) {
  if (claim.bound != 1) return fail("commute-or-overwrite proves bound 1");
  if (cert.dispositions.size() != coo_size(t)) {
    return fail("disposition table has the wrong size");
  }
  for (StateId q = 0; q < t.num_states(); ++q) {
    for (PortId a = 0; a < t.ports(); ++a) {
      for (PortId b = 0; b < t.ports(); ++b) {
        for (InvId i1 = 0; i1 < t.num_invocations(); ++i1) {
          for (InvId i2 = 0; i2 < t.num_invocations(); ++i2) {
            const std::uint8_t d =
                cert.dispositions[coo_index(t, q, a, i1, b, i2)];
            if (a >= b) {
              if (d != kPairUnused) {
                return fail("a >= b slot not marked unused");
              }
              continue;
            }
            const auto t1 = det_cell(t, q, a, i1);
            const auto t2 = det_cell(t, q, b, i2);
            if (!t1 || !t2) return fail("nondeterministic cell in table");
            const auto t12 = det_cell(t, t1->next, b, i2);
            const auto t21 = det_cell(t, t2->next, a, i1);
            if (!t12 || !t21) return fail("nondeterministic cell in table");
            std::ostringstream at;
            at << "state " << q << " pair (" << a << "," << i1 << ")/(" << b
               << "," << i2 << ")";
            switch (d) {
              case static_cast<std::uint8_t>(PairDisposition::kCommute):
                if (t12->next != t21->next || t1->resp != t21->resp ||
                    t2->resp != t12->resp) {
                  return fail("claimed commute does not hold at " + at.str());
                }
                break;
              case static_cast<std::uint8_t>(
                  PairDisposition::kFirstOverwritesSecond):
                if (!(*t21 == *t1)) {
                  return fail("claimed first-overwrites-second does not "
                              "hold at " +
                              at.str());
                }
                break;
              case static_cast<std::uint8_t>(
                  PairDisposition::kSecondOverwritesFirst):
                if (!(*t12 == *t2)) {
                  return fail("claimed second-overwrites-first does not "
                              "hold at " +
                              at.str());
                }
                break;
              default:
                return fail("invalid disposition at " + at.str());
            }
          }
        }
      }
    }
  }
  return {true, {}};
}

CertCheckResult check_trivial_oblivious(const TypeSpec& t,
                                        const PowerClaim& claim,
                                        const TrivialObliviousCert& cert) {
  if (claim.bound != 1) return fail("triviality proves bound 1");
  const int Q = t.num_states();
  const int I = t.num_invocations();
  if (cert.resp.size() !=
      static_cast<std::size_t>(Q) * static_cast<std::size_t>(I)) {
    return fail("response table has the wrong size");
  }
  for (StateId q = 0; q < Q; ++q) {
    for (InvId i = 0; i < I; ++i) {
      const auto base = det_cell(t, q, 0, i);
      if (!base) return fail("nondeterministic cell");
      // Obliviousness, checked directly against every port.
      for (PortId p = 1; p < t.ports(); ++p) {
        const auto other = t.delta(q, p, i);
        if (other.size() != 1 || !(other[0] == *base)) {
          return fail("type is not oblivious");
        }
      }
      if (cert.resp[static_cast<std::size_t>(q) * I + i] != base->resp) {
        return fail("response table disagrees with delta");
      }
    }
  }
  for (StateId q = 0; q < Q; ++q) {
    for (InvId j = 0; j < I; ++j) {
      const StateId next = det_cell(t, q, 0, j)->next;
      for (InvId i = 0; i < I; ++i) {
        if (cert.resp[static_cast<std::size_t>(next) * I + i] !=
            cert.resp[static_cast<std::size_t>(q) * I + i]) {
          std::ostringstream out;
          out << "response to " << i << " changes along edge " << q << " -> "
              << next;
          return fail(out.str());
        }
      }
    }
  }
  return {true, {}};
}

CertCheckResult check_trivial_general(const TypeSpec& t,
                                      const PowerClaim& claim,
                                      const TrivialGeneralCert& cert) {
  if (claim.bound != 1) return fail("triviality proves bound 1");
  if (t.ports() < 2) return fail("general triviality needs >= 2 ports");
  const std::size_t Q = static_cast<std::size_t>(t.num_states());
  if (cert.classes.size() != static_cast<std::size_t>(t.ports()) * Q) {
    return fail("class table has the wrong size");
  }
  for (PortId j = 0; j < t.ports(); ++j) {
    const int* cls = cert.classes.data() + static_cast<std::ptrdiff_t>(j * Q);
    // (1) Same class => same responses and same successor classes on port j
    // (a bisimulation, hence equal port-j traces by coinduction).
    for (StateId q1 = 0; q1 < t.num_states(); ++q1) {
      for (StateId q2 = q1 + 1; q2 < t.num_states(); ++q2) {
        if (cls[q1] != cls[q2]) continue;
        for (InvId i = 0; i < t.num_invocations(); ++i) {
          const auto a = det_cell(t, q1, j, i);
          const auto b = det_cell(t, q2, j, i);
          if (!a || !b) return fail("nondeterministic cell");
          if (a->resp != b->resp || cls[a->next] != cls[b->next]) {
            std::ostringstream out;
            out << "port " << j << ": states " << q1 << " and " << q2
                << " share a class but diverge on invocation " << i;
            return fail(out.str());
          }
        }
      }
    }
    // (2) No foreign-port step leaves the class: port-j behaviour is
    // independent of every other port's activity.
    for (StateId q = 0; q < t.num_states(); ++q) {
      for (PortId w = 0; w < t.ports(); ++w) {
        if (w == j) continue;
        for (InvId i = 0; i < t.num_invocations(); ++i) {
          const auto step = det_cell(t, q, w, i);
          if (!step) return fail("nondeterministic cell");
          if (cls[step->next] != cls[q]) {
            std::ostringstream out;
            out << "invocation " << i << " on port " << w
                << " moves state " << q << " across port-" << j
                << " trace classes";
            return fail(out.str());
          }
        }
      }
    }
  }
  return {true, {}};
}

CertCheckResult check_race(const TypeSpec& t, const PowerClaim& claim,
                           const RaceCert& cert) {
  if (claim.bound != 2) return fail("a race gadget proves bound 2");
  if (cert.q < 0 || cert.q >= t.num_states() || cert.port_a < 0 ||
      cert.port_a >= t.ports() || cert.port_b < 0 ||
      cert.port_b >= t.ports() || cert.inv_a < 0 ||
      cert.inv_a >= t.num_invocations() || cert.inv_b < 0 ||
      cert.inv_b >= t.num_invocations()) {
    return fail("race witness out of range");
  }
  if (cert.port_a == cert.port_b) {
    return fail("race ports must be distinct");
  }
  const auto ta = det_cell(t, cert.q, cert.port_a, cert.inv_a);
  const auto tb = det_cell(t, cert.q, cert.port_b, cert.inv_b);
  if (!ta || !tb) return fail("nondeterministic cell");
  const auto a2 = det_cell(t, tb->next, cert.port_a, cert.inv_a);
  const auto b2 = det_cell(t, ta->next, cert.port_b, cert.inv_b);
  if (!a2 || !b2) return fail("nondeterministic cell");
  if (ta->resp != cert.first_a || a2->resp != cert.second_a ||
      tb->resp != cert.first_b || b2->resp != cert.second_b) {
    return fail("claimed responses disagree with delta");
  }
  if (cert.first_a == cert.second_a) {
    return fail("port-a response does not distinguish first from second");
  }
  if (cert.first_b == cert.second_b) {
    return fail("port-b response does not distinguish first from second");
  }
  // The embedded Section 5.2 pair must be the one the race derives.
  const NonTrivialPair& p = cert.pair;
  if (p.q != cert.q || p.reader_port != cert.port_a ||
      p.writer_port != cert.port_b || p.write_inv != cert.inv_b ||
      p.read_seq != std::vector<InvId>{cert.inv_a} ||
      p.unwritten_resp != cert.first_a || p.written_resp != cert.second_a) {
    return fail("embedded non-trivial pair does not match the race");
  }
  // And it must be a genuine non-trivial pair: replay both histories.
  StateId h1 = p.q;
  StateId h2 = det_cell(t, p.q, p.writer_port, p.write_inv)->next;
  for (std::size_t k = 0; k < p.read_seq.size(); ++k) {
    const auto r1 = det_cell(t, h1, p.reader_port, p.read_seq[k]);
    const auto r2 = det_cell(t, h2, p.reader_port, p.read_seq[k]);
    if (!r1 || !r2) return fail("nondeterministic cell");
    const bool last = k + 1 == p.read_seq.size();
    if (last) {
      if (r1->resp != p.unwritten_resp || r2->resp != p.written_resp ||
          r1->resp == r2->resp) {
        return fail("embedded pair is not a non-trivial pair");
      }
    } else if (r1->resp != r2->resp) {
      return fail("embedded pair differs before the last response");
    }
    h1 = r1->next;
    h2 = r2->next;
  }
  return {true, {}};
}

CertCheckResult check_adopt(const TypeSpec& t, const PowerClaim& claim,
                            const AdoptCert& cert) {
  if (claim.bound != cert.depth) {
    return fail("claimed bound disagrees with the gadget depth");
  }
  if (cert.depth < 1 || cert.depth > t.ports() || cert.depth > 31) {
    return fail("gadget depth out of range");
  }
  if (cert.q < 0 || cert.q >= t.num_states()) {
    return fail("start state out of range");
  }
  for (int v = 0; v < 2; ++v) {
    if (cert.inv[v] < 0 || cert.inv[v] >= t.num_invocations()) {
      return fail("invocation out of range");
    }
  }
  const int R = t.num_responses();
  if (cert.decide.size() != 2 * static_cast<std::size_t>(R)) {
    return fail("decide table has the wrong size");
  }
  for (const int d : cert.decide) {
    if (d < -1 || d > 1) return fail("decide entry out of range");
  }
  // Replay every injective port sequence over ports 0..depth-1 and every
  // value assignment, following EVERY delta choice (nondeterminism-safe);
  // each response must decode the first proposed value via the table.
  struct Node {
    StateId state;
    unsigned mask;
    int first;
  };
  std::set<std::tuple<StateId, unsigned, int>> seen;
  std::vector<Node> stack;
  auto step = [&](StateId state, unsigned mask, int first, PortId p,
                  int v) -> std::optional<std::string> {
    for (const Transition& tr : t.delta(state, p, cert.inv[v])) {
      const int d = cert.decide[static_cast<std::size_t>(v) * R + tr.resp];
      if (d != first) {
        std::ostringstream out;
        out << "port " << p << " proposing " << v << " sees response "
            << tr.resp << " and decides "
            << (d == -1 ? std::string("nothing") : std::to_string(d))
            << " but the first value was " << first;
        return out.str();
      }
      stack.push_back({tr.next, mask | (1u << p), first});
    }
    return std::nullopt;
  };
  for (PortId p = 0; p < cert.depth; ++p) {
    for (int v = 0; v < 2; ++v) {
      if (auto err = step(cert.q, 0, v, p, v)) return fail(*err);
    }
  }
  while (!stack.empty()) {
    const Node n = stack.back();
    stack.pop_back();
    if (!seen.insert({n.state, n.mask, n.first}).second) continue;
    for (PortId p = 0; p < cert.depth; ++p) {
      if (n.mask & (1u << p)) continue;
      for (int v = 0; v < 2; ++v) {
        if (auto err = step(n.state, n.mask, n.first, p, v)) {
          return fail(*err);
        }
      }
    }
  }
  return {true, {}};
}

// ---- static_consensus_decider internals ------------------------------------

/// Cycle check over a program's static disassembly; false when the program
/// is not inspectable or its control-flow graph has a reachable cycle.
bool program_loop_free(const ProgramCode& prog) {
  const auto code = prog.static_code();
  if (!code) return false;
  const int n = static_cast<int>(code->size());
  // Iterative DFS with colors: 0 = white, 1 = on stack, 2 = done.
  std::vector<int> color(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<int, int>> stack;  // (pc, next successor index)
  auto succs = [&](int pc) -> std::vector<int> {
    const StaticInstr& ins = (*code)[static_cast<std::size_t>(pc)];
    switch (ins.op) {
      case StaticInstr::Op::kAssign:
      case StaticInstr::Op::kInvoke:
        return pc + 1 < n ? std::vector<int>{pc + 1} : std::vector<int>{};
      case StaticInstr::Op::kJump:
        return {ins.target};
      case StaticInstr::Op::kBranchIf:
        return pc + 1 < n ? std::vector<int>{ins.target, pc + 1}
                          : std::vector<int>{ins.target};
      case StaticInstr::Op::kRet:
      case StaticInstr::Op::kFail:
        return {};
    }
    return {};
  };
  if (n == 0) return true;
  stack.emplace_back(0, 0);
  color[0] = 1;
  while (!stack.empty()) {
    auto& [pc, k] = stack.back();
    const std::vector<int> next = succs(pc);
    if (k >= static_cast<int>(next.size())) {
      color[static_cast<std::size_t>(pc)] = 2;
      stack.pop_back();
      continue;
    }
    const int to = next[static_cast<std::size_t>(k++)];
    if (to < 0 || to >= n) return false;
    if (color[static_cast<std::size_t>(to)] == 1) return false;  // back edge
    if (color[static_cast<std::size_t>(to)] == 0) {
      color[static_cast<std::size_t>(to)] = 1;
      stack.emplace_back(to, 0);
    }
  }
  return true;
}

bool all_programs_loop_free(const Implementation& impl) {
  for (InvId i = 0; i < impl.iface().num_invocations(); ++i) {
    for (PortId p = 0; p < impl.iface().ports(); ++p) {
      if (!impl.has_program(i, p)) continue;
      if (!program_loop_free(*impl.program(i, p))) return false;
    }
  }
  for (const ObjectDecl& decl : impl.objects()) {
    if (decl.impl && !all_programs_loop_free(*decl.impl)) return false;
  }
  return true;
}

/// Walks the object tree composing port maps; collects every base spec and
/// verifies no two interface ports reach the same port of any base object
/// (the critical-state argument assumes process-exclusive ports).
bool collect_base_specs(const Implementation& impl,
                        const std::vector<PortId>& top_to_here,
                        std::vector<std::shared_ptr<const TypeSpec>>* specs) {
  for (const ObjectDecl& decl : impl.objects()) {
    std::vector<PortId> top_to_inner(top_to_here.size(), kNoPort);
    for (std::size_t j = 0; j < top_to_here.size(); ++j) {
      const PortId here = top_to_here[j];
      if (here == kNoPort) continue;
      top_to_inner[j] = decl.port_of_outer[static_cast<std::size_t>(here)];
    }
    if (decl.is_base()) {
      std::set<PortId> used;
      for (const PortId p : top_to_inner) {
        if (p == kNoPort) continue;
        if (!used.insert(p).second) return false;  // shared base port
      }
      specs->push_back(decl.spec);
    } else {
      if (!collect_base_specs(*decl.impl, top_to_inner, specs)) return false;
    }
  }
  return true;
}

}  // namespace

// ---- public API ------------------------------------------------------------

const char* power_rule_name(PowerRule rule) {
  switch (rule) {
    case PowerRule::kSoloLower: return "solo";
    case PowerRule::kRaceLower: return "race";
    case PowerRule::kAdoptLower: return "adopt";
    case PowerRule::kCommuteOverwriteUpper: return "commute-or-overwrite";
    case PowerRule::kTrivialObliviousUpper: return "trivial-oblivious";
    case PowerRule::kTrivialGeneralUpper: return "trivial-general";
    case PowerRule::kRegisterAugmentation: return "register-augmentation";
  }
  return "unknown";
}

std::string ConsensusPowerResult::summary() const {
  std::ostringstream out;
  out << type_name << ": cons in [" << lower << ", "
      << (upper_finite ? std::to_string(upper) : "inf") << "]";
  out << " rules=[";
  for (std::size_t k = 0; k < claims.size(); ++k) {
    out << (k ? "," : "") << power_rule_name(claims[k].rule);
  }
  out << "]";
  if (!note.empty()) out << " (" << note << ")";
  return out.str();
}

ConsensusPowerResult classify_consensus_power(const TypeSpec& t) {
  if (!t.is_total()) {
    throw std::invalid_argument(
        "classify_consensus_power: spec must be total");
  }
  ConsensusPowerResult r;
  r.type_name = t.name();
  r.deterministic = t.is_deterministic();
  r.lower = 1;
  r.claims.push_back({PowerRule::kSoloLower, 1, solo_cert(t)});
  if (!r.deterministic) {
    r.note = "nondeterministic: static rules inapplicable beyond solo";
    return r;
  }
  const CompiledType c = t.compile();

  if (auto coo = build_commute_overwrite(t, c)) {
    r.claims.push_back(
        {PowerRule::kCommuteOverwriteUpper, 1, std::move(*coo)});
    r.upper_finite = true;
    r.upper = 1;
  }
  if (auto triv = build_trivial_oblivious(c)) {
    r.claims.push_back(
        {PowerRule::kTrivialObliviousUpper, 1, std::move(*triv)});
    r.upper_finite = true;
    r.upper = 1;
  }
  if (auto triv = build_trivial_general(t)) {
    r.claims.push_back(
        {PowerRule::kTrivialGeneralUpper, 1, std::move(*triv)});
    r.upper_finite = true;
    r.upper = 1;
  }
  if (auto race = find_race_cert(c)) {
    r.claims.push_back({PowerRule::kRaceLower, 2, std::move(*race)});
    r.lower = std::max(r.lower, 2);
  }
  if (auto adopt = find_adopt_cert(c)) {
    const int depth = adopt->depth;
    r.claims.push_back({PowerRule::kAdoptLower, depth, std::move(*adopt)});
    r.lower = std::max(r.lower, depth);
  }
  if (r.upper_finite && r.lower > r.upper) {
    // Both rule families are sound, so this is unreachable on a correct
    // build; surface it loudly rather than return garbage.
    throw std::logic_error("classify_consensus_power: " + t.name() +
                           ": lower bound exceeds upper bound");
  }
  return r;
}

CertCheckResult check_certificate(const TypeSpec& t, const PowerClaim& claim) {
  switch (claim.rule) {
    case PowerRule::kSoloLower: {
      const auto* cert = std::get_if<AdoptCert>(&claim.cert);
      if (!cert) return fail("solo claim wants an adopt certificate");
      if (cert->depth != 1) return fail("solo claim wants depth 1");
      return check_adopt(t, claim, *cert);
    }
    case PowerRule::kAdoptLower: {
      const auto* cert = std::get_if<AdoptCert>(&claim.cert);
      if (!cert) return fail("adopt claim wants an adopt certificate");
      if (cert->depth < 2) return fail("adopt claim wants depth >= 2");
      return check_adopt(t, claim, *cert);
    }
    case PowerRule::kRaceLower: {
      const auto* cert = std::get_if<RaceCert>(&claim.cert);
      if (!cert) return fail("race claim wants a race certificate");
      return check_race(t, claim, *cert);
    }
    case PowerRule::kCommuteOverwriteUpper: {
      const auto* cert = std::get_if<CommuteOverwriteCert>(&claim.cert);
      if (!cert) return fail("commute-or-overwrite claim wants a table");
      return check_commute_overwrite(t, claim, *cert);
    }
    case PowerRule::kTrivialObliviousUpper: {
      const auto* cert = std::get_if<TrivialObliviousCert>(&claim.cert);
      if (!cert) return fail("oblivious-trivial claim wants a table");
      return check_trivial_oblivious(t, claim, *cert);
    }
    case PowerRule::kTrivialGeneralUpper: {
      const auto* cert = std::get_if<TrivialGeneralCert>(&claim.cert);
      if (!cert) return fail("general-trivial claim wants partitions");
      return check_trivial_general(t, claim, *cert);
    }
    case PowerRule::kRegisterAugmentation:
      return fail("family claims are checked by check_family_result");
  }
  return fail("unknown rule");
}

bool is_register_shaped(const TypeSpec& t) {
  for (PortId p = 0; p < t.ports(); ++p) {
    for (InvId i = 0; i < t.num_invocations(); ++i) {
      bool pure_read = true;
      bool pure_write = true;
      std::optional<Transition> first;
      for (StateId q = 0; q < t.num_states(); ++q) {
        const auto cell = t.delta(q, p, i);
        if (cell.size() != 1) return false;
        if (cell[0].next != q) pure_read = false;
        if (!first) first = cell[0];
        if (!(cell[0] == *first)) pure_write = false;
      }
      if (!pure_read && !pure_write) return false;
    }
  }
  return true;
}

FamilyPowerResult classify_family(std::span<const TypeSpec> members) {
  FamilyPowerResult out;
  FamilyCert cert;
  bool all_upper = !members.empty();
  for (std::size_t k = 0; k < members.size(); ++k) {
    out.members.push_back(classify_consensus_power(members[k]));
    const ConsensusPowerResult& m = out.members.back();
    if (m.lower > out.lower) {
      out.lower = m.lower;
      cert.lower_source = static_cast<int>(k);
    }
    if (m.upper_finite && m.upper == 1) {
      cert.absorbed.push_back(static_cast<int>(k));
    } else {
      all_upper = false;
    }
  }
  if (all_upper) {
    out.upper_finite = true;
    out.upper = 1;
    out.augmentation =
        PowerClaim{PowerRule::kRegisterAugmentation, 1, std::move(cert)};
    out.note =
        "every member certified cons <= 1: the family is register-shaped "
        "in the critical-state argument";
  } else {
    out.note = "family lower bound inherited from member " +
               std::to_string(cert.lower_source);
  }
  return out;
}

CertCheckResult check_family_result(std::span<const TypeSpec> members,
                                    const FamilyPowerResult& result) {
  if (result.members.size() != members.size()) {
    return fail("member count mismatch");
  }
  int max_lower = 1;
  bool all_upper = !members.empty();
  for (std::size_t k = 0; k < members.size(); ++k) {
    const ConsensusPowerResult& m = result.members[k];
    int claimed_lower = 1;
    bool claimed_upper = false;
    for (const PowerClaim& claim : m.claims) {
      const CertCheckResult c = check_certificate(members[k], claim);
      if (!c.ok) {
        return fail("member " + std::to_string(k) + " (" +
                    members[k].name() + "): " + c.detail);
      }
      switch (claim.rule) {
        case PowerRule::kSoloLower:
        case PowerRule::kRaceLower:
        case PowerRule::kAdoptLower:
          claimed_lower = std::max(claimed_lower, claim.bound);
          break;
        default:
          claimed_upper = true;
      }
    }
    if (m.lower != claimed_lower) {
      return fail("member " + std::to_string(k) +
                  ": lower bound not backed by its claims");
    }
    if (m.upper_finite != claimed_upper ||
        (m.upper_finite && m.upper != 1)) {
      return fail("member " + std::to_string(k) +
                  ": upper bound not backed by its claims");
    }
    max_lower = std::max(max_lower, m.lower);
    all_upper = all_upper && m.upper_finite;
  }
  if (result.lower != max_lower) {
    return fail("family lower bound is not the member max");
  }
  if (result.upper_finite != all_upper ||
      (result.upper_finite && result.upper != 1)) {
    return fail("family upper bound disagrees with member certification");
  }
  if (result.upper_finite != result.augmentation.has_value()) {
    return fail("augmentation claim presence disagrees with the bound");
  }
  if (result.augmentation) {
    const auto* cert = std::get_if<FamilyCert>(&result.augmentation->cert);
    if (!cert) return fail("augmentation claim wants a family certificate");
    if (result.augmentation->rule != PowerRule::kRegisterAugmentation ||
        result.augmentation->bound != 1) {
      return fail("augmentation claim must state bound 1");
    }
    if (cert->absorbed.size() != members.size()) {
      return fail("augmentation must absorb every member");
    }
    for (std::size_t k = 0; k < cert->absorbed.size(); ++k) {
      if (cert->absorbed[k] != static_cast<int>(k)) {
        return fail("augmentation member indices malformed");
      }
    }
  }
  return {true, {}};
}

std::function<std::optional<StaticConsensusDecision>(const Implementation&)>
static_consensus_decider() {
  return [](const Implementation& impl)
             -> std::optional<StaticConsensusDecision> {
    const int n = impl.iface().ports();
    if (n < 2) return std::nullopt;

    std::vector<PortId> identity;
    for (PortId j = 0; j < n; ++j) identity.push_back(j);
    std::vector<std::shared_ptr<const TypeSpec>> specs;
    if (!collect_base_specs(impl, identity, &specs)) return std::nullopt;

    // Classify each distinct base type; every one must carry a verified
    // cons <= 1 certificate.
    std::vector<const TypeSpec*> distinct;
    for (const auto& spec : specs) {
      const bool dup =
          std::any_of(distinct.begin(), distinct.end(),
                      [&](const TypeSpec* seen) { return *seen == *spec; });
      if (!dup) distinct.push_back(spec.get());
    }
    std::ostringstream why;
    why << "statically refuted: every base type is certified cons <= 1 [";
    bool first_name = true;
    for (const TypeSpec* spec : distinct) {
      ConsensusPowerResult r;
      try {
        r = classify_consensus_power(*spec);
      } catch (const std::exception&) {
        return std::nullopt;
      }
      if (!r.deterministic || !r.upper_finite || r.upper != 1) {
        return std::nullopt;
      }
      const char* rule = nullptr;
      for (const PowerClaim& claim : r.claims) {
        if (claim.rule == PowerRule::kSoloLower ||
            claim.rule == PowerRule::kRaceLower ||
            claim.rule == PowerRule::kAdoptLower) {
          continue;
        }
        // Trust no unchecked certificate, even our own.
        if (!check_certificate(*spec, claim).ok) return std::nullopt;
        if (!rule) rule = power_rule_name(claim.rule);
      }
      if (!rule) return std::nullopt;
      why << (first_name ? "" : ", ") << spec->name() << ": " << rule;
      first_name = false;
    }
    why << "]";

    // Wait-freedom: lint must be clean with finite static access bounds,
    // and every program loop-free, so all executions terminate and the
    // verdict may claim wait_free and complete.
    LintReport rep;
    try {
      rep = lint(impl);
    } catch (const std::exception&) {
      return std::nullopt;
    }
    if (!rep.ok()) return std::nullopt;
    for (const StaticObjectBound& b : rep.bounds) {
      if (!b.accesses.finite) return std::nullopt;
    }
    if (!all_programs_loop_free(impl)) return std::nullopt;

    StaticConsensusDecision d;
    d.solves = false;
    d.wait_free = true;
    why << "; no wait-free " << n
        << "-process consensus protocol exists over such objects and "
           "registers (critical-state argument)";
    d.detail = why.str();
    return d;
  };
}

}  // namespace wfregs::analysis
