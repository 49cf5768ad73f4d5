// A deliberately naive reference explorer for the differential suites.
//
// Breadth-first search over a std::map from configuration key to a node
// holding a full Engine copy.  Every step is taken with Engine::commit() on
// a fresh copy of its parent: no undo journal, no interning, no reduction,
// no DFS order.  Wait-freedom, the depth D and the access bounds come from
// a topological sort of the finished graph rather than from a DFS stack.
// It shares nothing with the explorers under test but the Engine itself,
// so the two cannot drift together.
//
// For a complete exploration the DFS explorers' counters have an
// order-free meaning that the oracle computes directly: configs is the
// number of reachable configurations, edges the total number of enabled
// (process, choice) steps out of them, terminals the number of reachable
// configurations where every process has finished.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "wfregs/runtime/explorer.hpp"

namespace wfregs::testsup {

struct OracleOutcome {
  /// False when the reachable configuration graph has a cycle.
  bool wait_free = true;
  /// False when the configuration cap was hit (nothing else is valid then).
  bool complete = true;
  std::size_t configs = 0;
  std::size_t edges = 0;
  std::size_t terminals = 0;
  /// Longest root-to-leaf path and the per-object / per-(object,
  /// invocation) access maxima over all executions (valid when wait_free).
  int depth = 0;
  std::vector<std::size_t> max_accesses;
  std::vector<std::vector<std::size_t>> max_accesses_by_inv;
  /// Every message `check` returned on some terminal configuration.
  std::set<std::string> violations;
};

inline OracleOutcome oracle_explore(const Engine& root,
                                    const TerminalCheck& check = {},
                                    std::size_t max_configs = 400000) {
  struct Node;
  struct Edge {
    Node* child;
    ObjectId object;
    InvId inv;
  };
  struct Node {
    std::optional<Engine> engine;  ///< dropped once expanded
    std::vector<Edge> out;
    std::size_t in_degree = 0;
    int depth_from = 0;
    std::vector<std::size_t> acc_from;
    std::vector<std::vector<std::size_t>> inv_from;
  };

  const System& sys = root.system();
  OracleOutcome res;
  std::map<std::vector<std::uint64_t>, Node> nodes;
  std::deque<Node*> queue;
  const auto visit = [&](const Engine& e) {
    auto [it, inserted] = nodes.try_emplace(e.config_key().words);
    if (inserted) {
      it->second.engine.emplace(e);
      queue.push_back(&it->second);
    }
    return &it->second;
  };

  Node* const root_node = visit(root);
  while (!queue.empty()) {
    if (nodes.size() > max_configs) {
      res.complete = false;
      return res;
    }
    Node* n = queue.front();
    queue.pop_front();
    const Engine e = std::move(*n->engine);
    n->engine.reset();
    if (e.all_done()) {
      ++res.terminals;
      if (check) {
        if (auto violation = check(e)) res.violations.insert(*violation);
      }
      continue;
    }
    for (const ProcId p : e.runnable()) {
      for (int c = 0; c < e.pending_choices(p); ++c) {
        Engine next = e;
        const Engine::CommitInfo step = next.commit(p, c);
        Node* child = visit(next);
        ++child->in_degree;
        n->out.push_back(Edge{child, step.object, step.inv});
      }
    }
  }
  res.configs = nodes.size();
  for (const auto& [key, n] : nodes) res.edges += n.out.size();

  // Kahn's algorithm: every node leaves the queue iff the graph is acyclic.
  std::vector<Node*> order;
  for (auto& [key, n] : nodes) {
    if (n.in_degree == 0) order.push_back(&n);
  }
  for (std::size_t k = 0; k < order.size(); ++k) {
    for (const Edge& edge : order[k]->out) {
      if (--edge.child->in_degree == 0) order.push_back(edge.child);
    }
  }
  if (order.size() != nodes.size()) {
    res.wait_free = false;
    return res;
  }

  // Longest paths, children before parents.
  const auto invs = [&](ObjectId g) {
    return sys.is_base(g) ? sys.base(g).spec->num_invocations() : 0;
  };
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node& n = **it;
    n.acc_from.assign(static_cast<std::size_t>(sys.num_objects()), 0);
    n.inv_from.resize(static_cast<std::size_t>(sys.num_objects()));
    for (ObjectId g = 0; g < sys.num_objects(); ++g) {
      n.inv_from[static_cast<std::size_t>(g)].assign(
          static_cast<std::size_t>(invs(g)), 0);
    }
    for (const Edge& edge : n.out) {
      const Node& c = *edge.child;
      n.depth_from = std::max(n.depth_from, c.depth_from + 1);
      for (ObjectId g = 0; g < sys.num_objects(); ++g) {
        const auto gi = static_cast<std::size_t>(g);
        n.acc_from[gi] = std::max(
            n.acc_from[gi], c.acc_from[gi] + (g == edge.object ? 1 : 0));
        for (InvId i = 0; i < invs(g); ++i) {
          const auto ii = static_cast<std::size_t>(i);
          const bool hit = g == edge.object && i == edge.inv;
          n.inv_from[gi][ii] = std::max(n.inv_from[gi][ii],
                                        c.inv_from[gi][ii] + (hit ? 1 : 0));
        }
      }
    }
  }
  res.depth = root_node->depth_from;
  res.max_accesses = root_node->acc_from;
  res.max_accesses_by_inv = root_node->inv_from;
  return res;
}

}  // namespace wfregs::testsup
