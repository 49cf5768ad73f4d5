#include "wfregs/runtime/verify.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "script_driver.hpp"
#include "wfregs/runtime/history_check.hpp"
#include "wfregs/runtime/system.hpp"

namespace wfregs {

ProgramRef script_driver(const TypeSpec& iface,
                         const std::vector<InvId>& script,
                         const std::string& name) {
  const Val radix = static_cast<Val>(iface.num_responses()) + 1;
  Val span = 1;  // radix^k after k operations; the fold stays below it
  for (std::size_t k = 0; k < script.size(); ++k) {
    if (span > std::numeric_limits<Val>::max() / radix) {
      throw std::invalid_argument(
          "script_driver: a script of " + std::to_string(script.size()) +
          " operations over " + std::to_string(iface.num_responses()) +
          " responses overflows the response fold");
    }
    span *= radix;
  }
  // valid * reg(0) + valid rather than valid * (reg(0) + 1): no operand
  // overflows, whatever value an implementation returns.
  const Expr valid = lit(0) <= reg(0) && reg(0) < lit(radix - 1);
  ProgramBuilder b;
  b.assign(1, lit(0));
  for (const InvId inv : script) {
    b.invoke(0, lit(inv), 0);
    b.assign(1, reg(1) * lit(radix) + valid * reg(0) + valid);
  }
  b.ret(reg(1));
  return b.build(name);
}

VerifyResult verify_linearizable(std::shared_ptr<const Implementation> impl,
                                 std::vector<std::vector<InvId>> scripts,
                                 const ExploreLimits& limits) {
  VerifyOptions options;
  options.limits = limits;
  return verify_linearizable(std::move(impl), std::move(scripts), options);
}

VerifyResult verify_linearizable(std::shared_ptr<const Implementation> impl,
                                 std::vector<std::vector<InvId>> scripts,
                                 const VerifyOptions& options) {
  const ExploreLimits& limits = options.limits;
  if (!impl) {
    throw std::invalid_argument("verify_linearizable: null implementation");
  }
  const int n = impl->iface().ports();
  if (static_cast<int>(scripts.size()) != n) {
    throw std::invalid_argument(
        "verify_linearizable: need one script per interface port");
  }
  if (options.static_precheck) {
    if (auto err = options.static_precheck(*impl)) {
      VerifyResult failed;
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
    // The driver accumulates every response into its return value.  This is
    // NOT cosmetic: the explorer memoizes on configurations, and the
    // terminal check below depends on the response *history*; folding the
    // responses into process state keeps executions with different
    // histories in distinct configurations, preserving exhaustiveness.
    sys->set_toplevel(p,
                      script_driver(impl->iface(),
                                    scripts[static_cast<std::size_t>(p)],
                                    "script_p" + std::to_string(p)),
                      {obj});
  }

  const auto iface = impl->iface_ptr();
  const StateId initial = impl->iface_initial();
  const TerminalCheck check =
      [obj, iface, initial](const Engine& e) -> std::optional<std::string> {
    auto r = check_history_linearizable(e.history(), *iface, initial, obj);
    if (r.ok) return std::nullopt;
    return std::move(r.detail);
  };

  const Engine root{std::move(sys)};
  ExploreOptions explore_options{limits};
  explore_options.storage = options.storage;
  const auto out = explore_parallel(root, check, explore_options,
                                    options.threads);

  VerifyResult result;
  result.wait_free = out.wait_free;
  result.complete = out.complete;
  result.resumed = out.resumed;
  result.checkpointed = out.checkpointed;
  result.stats = out.stats;
  if (out.violation) {
    result.detail = *out.violation;
  } else if (!out.wait_free) {
    result.detail = "configuration cycle: implementation is not wait-free";
  } else if (!out.complete) {
    result.detail = "exploration exceeded limits";
  }
  result.ok = out.wait_free && out.complete && !out.violation;
  return result;
}

}  // namespace wfregs
