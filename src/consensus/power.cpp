#include "wfregs/consensus/power.hpp"

#include <cstdint>
#include <map>
#include <stdexcept>
#include <tuple>

namespace wfregs::consensus {

namespace {

struct Action {
  bool decide = false;
  int value = 0;  // decided value
  int object = 0;
  InvId inv = 0;

  friend bool operator==(const Action&, const Action&) = default;
};

using View = std::tuple<int, int, std::vector<RespId>>;  // proc, input, hist

struct Cfg {
  std::vector<StateId> states;
  int input[2] = {0, 0};
  std::vector<RespId> hist[2];
  int decided[2] = {-1, -1};

  bool terminal() const { return decided[0] >= 0 && decided[1] >= 0; }
};

class Synthesizer {
 public:
  Synthesizer(const std::vector<SynthesisObject>& objects, int max_ops,
              std::size_t node_cap)
      : objects_(objects), max_ops_(max_ops), node_cap_(node_cap) {
    for (const auto& obj : objects_) {
      if (!obj.spec) {
        throw std::invalid_argument("synthesize_two_consensus: null spec");
      }
      for (int p = 0; p < 2; ++p) {
        const PortId port = obj.port_of_process.empty()
                                ? p
                                : obj.port_of_process[static_cast<
                                      std::size_t>(p)];
        if (port < 0 || port >= obj.spec->ports()) {
          throw std::invalid_argument(
              "synthesize_two_consensus: object lacks a port for process " +
              std::to_string(p));
        }
      }
    }
    // Candidate actions: invocations first (real protocols communicate
    // before deciding), then the two decides.
    for (std::size_t k = 0; k < objects_.size(); ++k) {
      for (InvId i = 0; i < objects_[k].spec->num_invocations(); ++i) {
        candidates_.push_back(Action{false, 0, static_cast<int>(k), i});
      }
    }
    candidates_.push_back(Action{true, 0, 0, 0});
    candidates_.push_back(Action{true, 1, 0, 0});
  }

  SynthesisResult run() {
    Cfg base;
    for (const auto& obj : objects_) base.states.push_back(obj.initial);
    std::vector<Cfg> obligations;
    for (int in0 = 0; in0 < 2; ++in0) {
      for (int in1 = 0; in1 < 2; ++in1) {
        Cfg cfg = base;
        cfg.input[0] = in0;
        cfg.input[1] = in1;
        obligations.push_back(std::move(cfg));
      }
    }
    SynthesisResult result;
    if (!within_cap_) {
      result.verdict = SynthesisVerdict::kUnknown;
      return result;
    }
    const bool ok = solve(obligations);
    result.nodes = nodes_;
    result.verdict = !within_cap_ ? SynthesisVerdict::kUnknown
                     : ok         ? SynthesisVerdict::kSolvable
                                  : SynthesisVerdict::kUnsolvable;
    return result;
  }

 private:
  PortId port_of(int object, int p) const {
    const auto& obj = objects_[static_cast<std::size_t>(object)];
    return obj.port_of_process.empty()
               ? p
               : obj.port_of_process[static_cast<std::size_t>(p)];
  }

  /// One activation of the search.  The search is a backtracking proof
  /// over an obligation list: kSolve discharges the newest obligation,
  /// kExpand assigns (or reuses) a strategy entry for each undecided
  /// process, kApply queues the successors of one action.  Each frame
  /// resumes at `stage` once the frame it called has returned, so the
  /// search depth -- one level per discharged obligation, up to the node
  /// cap -- lives on the heap, not on the call stack.
  struct Frame {
    enum class Kind : std::uint8_t { kSolve, kExpand, kApply };
    Kind kind = Kind::kSolve;
    int stage = 0;
    int p = 0;
    std::size_t cfg = 0;  ///< expand/apply: index of the solve frame that
                          ///< owns the configuration being expanded
    Action action{};      ///< apply
    std::size_t next = 0;  ///< expand: next candidate; apply: successors
    View view;             ///< expand: the strategy entry being assigned
    Cfg owned;             ///< solve: the obligation being discharged
  };

  /// Makes `f` a fresh frame of `kind`, keeping its buffers for reuse.
  static void reset(Frame& f, Frame::Kind kind, std::size_t cfg, int p) {
    f.kind = kind;
    f.stage = 0;
    f.p = p;
    f.cfg = cfg;
    f.next = 0;
  }

  /// Pushes a fresh frame; invalidates references into frames_.
  void call(Frame::Kind kind, std::size_t cfg, int p) {
    if (live_ == frames_.size()) frames_.emplace_back();
    reset(frames_[live_++], kind, cfg, p);
  }

  /// Discharges every obligation on the list; each terminal must satisfy
  /// agreement + validity, each non-terminal must survive every adversary
  /// move of every undecided process.  Leaves the list as it found it.
  bool solve(std::vector<Cfg>& obligations) {
    bool ret = false;  // the result of the frame that returned last
    call(Frame::Kind::kSolve, 0, 0);
    while (live_ > 0) {
      const std::size_t top = live_ - 1;
      Frame& f = frames_[top];
      switch (f.kind) {
        case Frame::Kind::kSolve:
          if (f.stage == 1) {
            // Restore the caller's list so backtracking sees it unchanged.
            obligations.push_back(std::move(f.owned));
            --live_;
            break;
          }
          if (++nodes_ > node_cap_) {
            within_cap_ = false;
            ret = false;
            --live_;
            break;
          }
          if (obligations.empty()) {
            ret = true;
            --live_;
            break;
          }
          f.owned = std::move(obligations.back());
          obligations.pop_back();
          f.stage = 1;
          if (!f.owned.terminal()) {
            call(Frame::Kind::kExpand, top, 0);
          } else if (f.owned.decided[0] == f.owned.decided[1] &&
                     (f.owned.decided[0] == f.owned.input[0] ||
                      f.owned.decided[0] == f.owned.input[1])) {
            call(Frame::Kind::kSolve, 0, 0);
          } else {
            ret = false;
          }
          break;
        case Frame::Kind::kExpand:
          expand_step(top, ret);
          break;
        case Frame::Kind::kApply:
          if (f.stage == 1) {
            for (std::size_t k = 0; k < f.next; ++k) obligations.pop_back();
            --live_;
            break;
          }
          f.next = push_successors(frames_[f.cfg].owned, f.p, f.action,
                                   obligations);
          f.stage = 1;
          call(Frame::Kind::kExpand, f.cfg, f.p + 1);
          break;
      }
    }
    return ret;
  }

  /// Advances the expand frame at `top`: queues the successor obligations
  /// for every undecided process from its `p` on, branching over
  /// unassigned strategy entries.  A frame with nothing left to do after
  /// its callee is replaced by that callee.
  void expand_step(std::size_t top, bool& ret) {
    Frame& f = frames_[top];
    const Cfg& cfg = frames_[f.cfg].owned;
    const int p = f.p;
    if (f.stage == 2) {
      // The candidate tried last has returned.
      if (ret || !within_cap_) {
        if (!ret) strategy_.erase(f.view);
        --live_;
        return;
      }
      strategy_.erase(f.view);
      f.stage = 1;
    }
    if (f.stage == 0) {
      if (p == 2) {
        reset(f, Frame::Kind::kSolve, 0, 0);
        return;
      }
      if (cfg.decided[p] >= 0) {
        reset(f, Frame::Kind::kExpand, f.cfg, p + 1);
        return;
      }
      std::get<0>(f.view) = p;
      std::get<1>(f.view) = cfg.input[p];
      std::get<2>(f.view) = cfg.hist[p];
      if (const auto it = strategy_.find(f.view); it != strategy_.end()) {
        f.action = it->second;
        reset(f, Frame::Kind::kApply, f.cfg, p);
        return;
      }
      f.stage = 1;
    }
    const bool may_invoke =
        static_cast<int>(cfg.hist[p].size()) < max_ops_;
    // Pruning: a blind decide (before any invocation) can never be part of
    // a correct protocol when invocations are allowed.  If p decides at an
    // empty history, the other process running solo-first observes identical
    // clean objects whatever p's input is, so its (deterministic) decision
    // cannot track p's input -- and validity on the unanimous vectors then
    // forces a contradiction.
    const bool blind = may_invoke && cfg.hist[p].empty();
    while (f.next < candidates_.size()) {
      const Action& a = candidates_[f.next++];
      if (!a.decide && !may_invoke) continue;
      if (a.decide && blind) continue;
      strategy_.emplace(f.view, a);
      f.stage = 2;
      const std::size_t cfg_frame = f.cfg;
      call(Frame::Kind::kApply, cfg_frame, p);
      frames_[live_ - 1].action = a;
      return;
    }
    ret = false;
    --live_;
  }

  /// Queues the obligations `a` leads to when process `p` takes it at
  /// `cfg`: the decided configuration, or every nondeterministic outcome of
  /// the invocation.  Returns how many were queued.
  std::size_t push_successors(const Cfg& cfg, int p, const Action& a,
                              std::vector<Cfg>& obligations) const {
    if (a.decide) {
      Cfg child = cfg;
      child.decided[p] = a.value;
      obligations.push_back(std::move(child));
      return 1;
    }
    const auto& obj = objects_[static_cast<std::size_t>(a.object)];
    const auto set = obj.spec->delta(
        cfg.states[static_cast<std::size_t>(a.object)], port_of(a.object, p),
        a.inv);
    std::size_t pushed = 0;
    for (const Transition& t : set) {
      Cfg child = cfg;
      child.states[static_cast<std::size_t>(a.object)] = t.next;
      child.hist[p].push_back(t.resp);
      obligations.push_back(std::move(child));
      ++pushed;
    }
    return pushed;
  }

  const std::vector<SynthesisObject>& objects_;
  int max_ops_;
  std::size_t node_cap_;
  std::size_t nodes_ = 0;
  bool within_cap_ = true;
  std::vector<Action> candidates_;
  std::map<View, Action> strategy_;
  std::vector<Frame> frames_;  ///< the search stack; frames_[0, live_) live
  std::size_t live_ = 0;
};

}  // namespace

SynthesisResult synthesize_two_consensus(
    const std::vector<SynthesisObject>& objects, int max_ops,
    std::size_t node_cap) {
  if (max_ops < 0) {
    throw std::invalid_argument("synthesize_two_consensus: max_ops >= 0");
  }
  Synthesizer synth(objects, max_ops, node_cap);
  return synth.run();
}

}  // namespace wfregs::consensus
