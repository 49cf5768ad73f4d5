// The enabled-step enumeration shared by the sequential explorer
// (explorer.cpp) and the parallel one (explorer_parallel.cpp).
#pragma once

#include <vector>

#include "wfregs/runtime/engine.hpp"

namespace wfregs::detail {

/// One enabled step: a process poised at a base access, with the
/// nondeterministic width of that access.
struct Step {
  ProcId p = -1;
  int width = 0;
};

/// All runnable processes' pending steps in ascending process order, the
/// enumeration order of both explorers, written into `out` (cleared first;
/// its capacity is reused across nodes).
inline void steps_into(const Engine& e, std::vector<Step>& out) {
  out.clear();
  const int n = e.system().num_processes();
  for (ProcId p = 0; p < n; ++p) {
    if (!e.done(p)) out.push_back(Step{p, e.pending_choices(p)});
  }
}

}  // namespace wfregs::detail
