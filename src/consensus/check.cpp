#include "wfregs/consensus/check.hpp"

#include <algorithm>
#include <array>
#include <memory>
#include <sstream>
#include <optional>
#include <stdexcept>
#include <utility>

#include "wfregs/runtime/reduction.hpp"

namespace wfregs::consensus {

namespace {

int scenario_processes(const Implementation* impl) {
  if (!impl) {
    throw std::invalid_argument("consensus_scenario: null implementation");
  }
  return impl->iface().ports();
}

}  // namespace

ScenarioTemplate::ScenarioTemplate(
    std::shared_ptr<const Implementation> impl)
    : system_(scenario_processes(impl.get())) {
  const int n = system_.num_processes();
  std::vector<PortId> ports;
  for (PortId p = 0; p < n; ++p) ports.push_back(p);
  object_ = system_.add_implemented(std::move(impl), ports);
  // One program per distinct input VALUE, shared by every process proposing
  // it.  symmetry_renamings compares toplevel programs by pointer, so sharing
  // (rather than building an identical per-process copy) is what makes
  // same-input processes interchangeable, and the input vectors fall into
  // orbits (orbit_representatives).
  for (int v = 0; v < 2; ++v) {
    ProgramBuilder b;
    b.invoke(0, lit(v), 0);  // propose(v) is invocation id `v`
    b.ret(reg(0));
    propose_[static_cast<std::size_t>(v)] =
        b.build("propose_v" + std::to_string(v));
  }
}

std::vector<int> ScenarioTemplate::orbit_representatives() const {
  const int n = processes();
  const std::vector<ProcessRenaming> group =
      symmetry_renamings(*instantiate(std::vector<int>(n, 0)));
  if (group.empty()) return {};
  std::vector<int> reps(std::size_t{1} << n);
  for (int vec = 0; vec < (1 << n); ++vec) {
    int least = vec;
    for (const ProcessRenaming& pi : group) {
      int renamed = 0;
      for (ProcId p = 0; p < n; ++p) {
        renamed |= ((vec >> p) & 1) << pi.proc_map[static_cast<std::size_t>(p)];
      }
      least = std::min(least, renamed);
    }
    reps[static_cast<std::size_t>(vec)] = least;
  }
  return reps;
}

std::shared_ptr<System> ScenarioTemplate::instantiate(
    const std::vector<int>& inputs) const {
  const int n = system_.num_processes();
  if (static_cast<int>(inputs.size()) != n) {
    throw std::invalid_argument(
        "consensus_scenario: need one input per port");
  }
  auto sys = std::make_shared<System>(system_);
  for (ProcId p = 0; p < n; ++p) {
    const int input = inputs[static_cast<std::size_t>(p)];
    if (input != 0 && input != 1) {
      throw std::invalid_argument("consensus_scenario: inputs are binary");
    }
    sys->set_toplevel(p, propose_[static_cast<std::size_t>(input)], {object_});
  }
  return sys;
}

std::shared_ptr<System> consensus_scenario(
    std::shared_ptr<const Implementation> impl,
    const std::vector<int>& inputs) {
  return ScenarioTemplate(std::move(impl)).instantiate(inputs);
}

ConsensusCheckResult check_consensus(
    std::shared_ptr<const Implementation> impl, const ExploreLimits& limits) {
  VerifyOptions options;
  options.limits = limits;
  return check_consensus(std::move(impl), options);
}

ConsensusCheckResult check_consensus(
    std::shared_ptr<const Implementation> impl,
    const VerifyOptions& options) {
  const ExploreLimits& limits = options.limits;
  if (!impl) {
    throw std::invalid_argument("check_consensus: null implementation");
  }
  const int n = impl->iface().ports();
  if (n > 20) {
    throw std::invalid_argument("check_consensus: too many ports");
  }
  if (options.static_precheck) {
    if (auto err = options.static_precheck(*impl)) {
      ConsensusCheckResult failed;
      failed.solves = false;
      failed.detail = std::move(*err);
      return failed;
    }
  }
  if (options.static_consensus) {
    if (auto decision = options.static_consensus(*impl)) {
      ConsensusCheckResult decided;
      decided.solves = decision->solves;
      decided.wait_free = decision->wait_free;
      decided.complete = true;
      decided.static_decision = true;
      decided.detail = std::move(decision->detail);
      return decided;
    }
  }
  ConsensusCheckResult result;
  result.solves = true;
  // The job is resumable when ANY root persisted state this run: an
  // interrupt checkpoint, a resumed prior checkpoint, or a completed root's
  // final snapshot.  (A deadline can land on a root boundary, where the
  // freshly cancelled root has nothing to write -- the finals banked by the
  // earlier roots still make resubmission cheaper than recomputation.)
  bool any_persisted = false;
  // The roots differ only in what each process proposes: build (and
  // compile) the system once and give each root a copy of it.
  const ScenarioTemplate scenario(impl);
  // Adds one root's stats to the job's totals.
  const auto credit = [&result, &limits](const ExploreStats& stats) {
    result.configs += stats.configs;
    result.terminals += stats.terminals;
    result.depth = std::max(result.depth, stats.depth);
    if (!limits.track_access_bounds) return;
    if (result.max_accesses.size() < stats.max_accesses.size()) {
      result.max_accesses.resize(stats.max_accesses.size(), 0);
    }
    for (std::size_t g = 0; g < stats.max_accesses.size(); ++g) {
      result.max_accesses[g] =
          std::max(result.max_accesses[g], stats.max_accesses[g]);
    }
    if (result.max_accesses_by_inv.size() < stats.max_accesses_by_inv.size()) {
      result.max_accesses_by_inv.resize(stats.max_accesses_by_inv.size());
    }
    for (std::size_t g = 0; g < stats.max_accesses_by_inv.size(); ++g) {
      auto& acc = result.max_accesses_by_inv[g];
      const auto& cur = stats.max_accesses_by_inv[g];
      if (acc.size() < cur.size()) acc.resize(cur.size(), 0);
      for (std::size_t i = 0; i < cur.size(); ++i) {
        acc[i] = std::max(acc[i], cur[i]);
      }
    }
    result.per_root.push_back(stats);
  };
  const std::vector<int> reps = scenario.orbit_representatives();
  // clean[rep]: the stats of representative `rep` once it was explored
  // completely, wait-free and without a violation; it then stands for the
  // rest of its orbit.  Empty, like reps, when the group is trivial.
  std::vector<std::optional<ExploreStats>> clean(reps.size());
  for (int vec = 0; vec < (1 << n); ++vec) {
    const int rep = reps.empty() ? vec : reps[static_cast<std::size_t>(vec)];
    if (rep != vec && clean[static_cast<std::size_t>(rep)]) {
      credit(*clean[static_cast<std::size_t>(rep)]);
      continue;
    }
    std::vector<int> inputs;
    for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
    auto sys = scenario.instantiate(inputs);
    const TerminalCheck check =
        [&inputs, n](const Engine& e) -> std::optional<std::string> {
      const Val decided = *e.result(0);
      for (ProcId p = 1; p < n; ++p) {
        if (*e.result(p) != decided) {
          std::ostringstream out;
          out << "agreement violated: process 0 decided " << decided
              << " but process " << p << " decided " << *e.result(p);
          return out.str();
        }
      }
      if (std::ranges::find(inputs, static_cast<int>(decided)) ==
          inputs.end()) {
        std::ostringstream out;
        out << "validity violated: decided " << decided
            << " which nobody proposed";
        return out.str();
      }
      return std::nullopt;
    };
    const Engine root{std::move(sys)};
    ExploreOptions explore_options{limits};
    explore_options.storage = options.storage;
    if (!options.storage.checkpoint_dir.empty()) {
      // One checkpoint per explored input vector: the roots are independent
      // explorations with distinct fingerprints, so each gets its own
      // subdirectory and resumes independently.
      explore_options.storage.checkpoint_dir =
          options.storage.checkpoint_dir + "/root" + std::to_string(vec);
      if (!options.storage.resume_from.empty()) {
        explore_options.storage.resume_from =
            options.storage.resume_from + "/root" + std::to_string(vec);
      }
    }
    auto out =
        explore_parallel(root, check, explore_options, options.threads);
    result.wait_free = result.wait_free && out.wait_free;
    result.complete = result.complete && out.complete;
    result.resumed = result.resumed || out.resumed;
    if (!explore_options.storage.checkpoint_dir.empty() &&
        (out.complete || out.checkpointed || out.resumed)) {
      any_persisted = true;
    }
    credit(out.stats);
    if (out.violation && result.detail.empty()) {
      std::ostringstream prefix;
      prefix << "inputs (";
      for (int p = 0; p < n; ++p) {
        prefix << (p ? "," : "") << inputs[static_cast<std::size_t>(p)];
      }
      prefix << "): " << *out.violation;
      result.detail = prefix.str();
    }
    if (out.violation || !out.wait_free || !out.complete) {
      result.solves = false;
      if (result.detail.empty()) {
        result.detail = out.wait_free ? "exploration exceeded limits"
                                      : "not wait-free (configuration cycle)";
      }
      // A cancelled job stops at the cancelled root: every later root would
      // be cancelled at its own root node (and, checkpointed, leave a
      // directory behind).  A max_configs cut goes on to the later roots.
      if (!out.complete && limits.cancel &&
          limits.cancel->load(std::memory_order_relaxed)) {
        break;
      }
    } else if (rep == vec && !clean.empty()) {
      clean[static_cast<std::size_t>(vec)] = std::move(out.stats);
    }
  }
  result.checkpointed = !result.complete && any_persisted;
  return result;
}

}  // namespace wfregs::consensus
