#include "wfregs/runtime/regularity.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "script_driver.hpp"
#include "wfregs/runtime/history_check.hpp"
#include "wfregs/runtime/system.hpp"

namespace wfregs {

RegularityResult check_regular(const std::vector<OpRecord>& ops, int values,
                               int initial) {
  if (values < 2) {
    throw std::invalid_argument("check_regular: values >= 2");
  }
  if (initial < 0 || initial >= values) {
    throw std::out_of_range("check_regular: initial out of range");
  }
  std::vector<const OpRecord*> writes;
  std::vector<const OpRecord*> reads;
  for (const OpRecord& op : ops) {
    if (op.inv == 0) {
      reads.push_back(&op);
    } else {
      writes.push_back(&op);
    }
  }
  std::ranges::sort(writes, [](const OpRecord* a, const OpRecord* b) {
    return a->invoke_time < b->invoke_time;
  });
  // Single writer: writes must not overlap.
  for (std::size_t k = 1; k < writes.size(); ++k) {
    const auto* prev = writes[k - 1];
    if (!prev->response || prev->response_time > writes[k]->invoke_time) {
      RegularityResult r;
      r.detail = "overlapping writes: not a single-writer history";
      return r;
    }
  }
  for (const OpRecord* read : reads) {
    if (!read->response) continue;  // a pending read constrains nothing
    const Val got = *read->response;
    // Latest write completed before the read began.
    int before = initial;
    for (const OpRecord* w : writes) {
      if (w->response && w->response_time < read->invoke_time) {
        before = static_cast<int>(w->inv) - 1;
      }
    }
    bool allowed = (got == before);
    // Any write overlapping the read.
    for (const OpRecord* w : writes) {
      if (allowed) break;
      const bool started_before_read_ended =
          w->invoke_time < read->response_time;
      const bool ended_after_read_started =
          !w->response || w->response_time > read->invoke_time;
      if (started_before_read_ended && ended_after_read_started) {
        allowed = (got == static_cast<Val>(w->inv) - 1);
      }
    }
    if (!allowed) {
      std::ostringstream out;
      out << "read at [" << read->invoke_time << ", " << read->response_time
          << "] returned " << got << ", but the preceding value was "
          << before << " and no overlapping write supplies it";
      RegularityResult r;
      r.detail = out.str();
      return r;
    }
  }
  RegularityResult r;
  r.regular = true;
  return r;
}

RegularVerifyResult verify_regular(
    std::shared_ptr<const Implementation> impl,
    std::vector<std::vector<InvId>> scripts, int values,
    const ExploreLimits& limits) {
  VerifyOptions options;
  options.limits = limits;
  return verify_regular(std::move(impl), std::move(scripts), values, options);
}

RegularVerifyResult verify_regular(
    std::shared_ptr<const Implementation> impl,
    std::vector<std::vector<InvId>> scripts, int values,
    const VerifyOptions& options) {
  const ExploreLimits& limits = options.limits;
  if (!impl) throw std::invalid_argument("verify_regular: null impl");
  const int n = impl->iface().ports();
  if (static_cast<int>(scripts.size()) != n) {
    throw std::invalid_argument(
        "verify_regular: need one script per interface port");
  }
  if (options.static_precheck) {
    if (auto err = options.static_precheck(*impl)) {
      RegularVerifyResult failed;
      failed.complete = true;  // the precheck is a full (static) answer
      failed.detail = std::move(*err);
      return failed;
    }
  }
  auto sys = std::make_shared<System>(n);
  std::vector<PortId> ports;
  for (PortId p = 0; p < n; ++p) ports.push_back(p);
  const ObjectId obj = sys->add_implemented(impl, ports);
  for (ProcId p = 0; p < n; ++p) {
    // Responses are folded into process state so that executions with
    // different histories occupy distinct configurations (the explorer
    // memoizes on configurations; see verify.cpp for the full note).
    sys->set_toplevel(p,
                      script_driver(impl->iface(),
                                    scripts[static_cast<std::size_t>(p)],
                                    "regular_p" + std::to_string(p)),
                      {obj});
  }
  const int initial = impl->iface_initial();
  const TerminalCheck check =
      [obj, values, initial](const Engine& e) -> std::optional<std::string> {
    auto r = check_history_regular(e.history(), values, initial, obj);
    if (r.ok) return std::nullopt;
    return std::move(r.detail);
  };
  const Engine root{std::move(sys)};
  ExploreOptions explore_options{limits};
  explore_options.storage = options.storage;
  const auto out = explore_parallel(root, check, explore_options,
                                    options.threads);
  RegularVerifyResult result;
  result.wait_free = out.wait_free;
  result.complete = out.complete;
  result.resumed = out.resumed;
  result.checkpointed = out.checkpointed;
  result.stats = out.stats;
  if (out.violation) result.detail = *out.violation;
  result.ok = out.wait_free && out.complete && !out.violation;
  return result;
}

}  // namespace wfregs
