// E11 -- process-symmetry reduction: the canonicalizing explorer
// (runtime/reduction.hpp) vs. the plain exhaustive pass, on a zoo of
// 3-process protocol workloads.
//
// Every workload is explored under reduction = none / sleep+symmetry with
// identical verdicts (checked here: a mismatch fails the benchmark run
// outright) -- only the number of visited configurations and the wall-clock
// differ.  (`sleep` explores exactly like none, so it has no rows.)  The
// `configs` counter is DETERMINISTIC for a given workload and
// mode, which is what lets CI gate on bench/baseline.json: any >10% growth
// of a reduced count is a reduction regression, not noise (see
// bench/check_bench_regression.py).  The same script asserts the headline
// number: aggregated over the zoo, sleep+symmetry must visit at least 3x
// fewer configurations than none.
//
// Emits BENCH_e11_reduction.json (Google Benchmark JSON schema).
#include <benchmark/benchmark.h>

#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_json_main.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace {

using namespace wfregs;

/// Fully symmetric hammer: every process runs the SAME shared program (ops
/// identical invocations, responses folded into the result) on its own port
/// of one shared object.  Shared ProgramRef + port-oblivious object = the
/// whole of S_n is a system automorphism, the regime symmetry is for.
Engine symmetric_hammer(std::shared_ptr<const TypeSpec> t, InvId inv,
                        int ops) {
  const int n = t->ports();
  auto sys = std::make_shared<System>(n);
  std::vector<PortId> ports(static_cast<std::size_t>(n));
  std::iota(ports.begin(), ports.end(), 0);
  const ObjectId obj = sys->add_base(std::move(t), 0, ports);
  ProgramBuilder b;
  b.assign(1, lit(0));
  for (int k = 0; k < ops; ++k) {
    b.invoke(0, lit(inv), 0);
    b.assign(1, reg(1) * lit(1 << 20) + reg(0) + lit(1));
  }
  b.ret(reg(1));
  const ProgramRef shared_prog = b.build("hammer");
  for (ProcId p = 0; p < n; ++p) {
    sys->set_toplevel(p, shared_prog, {obj});
  }
  return Engine{std::move(sys)};
}

struct Workload {
  std::string name;
  Engine root;
  TerminalCheck check;  ///< empty for pure exploration workloads
};

TerminalCheck agreement_check(int n) {
  return [n](const Engine& e) -> std::optional<std::string> {
    const Val decided = *e.result(0);
    for (ProcId p = 1; p < n; ++p) {
      if (*e.result(p) != decided) return "disagreement";
    }
    return std::nullopt;
  };
}

/// The 3-process protocol zoo.  All-equal-input consensus roots are fully
/// symmetric because consensus_scenario shares one propose program per
/// distinct input value.
std::vector<Workload> zoo() {
  std::vector<Workload> out;
  out.push_back({"faa_sym",
                 symmetric_hammer(
                     std::make_shared<const TypeSpec>(
                         zoo::fetch_and_add_type(4, 3)),
                     0, 2),
                 {}});
  out.push_back({"cas_sym",
                 symmetric_hammer(
                     std::make_shared<const TypeSpec>(zoo::cas_type(2, 3)), 0,
                     2),
                 {}});
  out.push_back({"counter_sym",
                 symmetric_hammer(std::make_shared<const TypeSpec>(
                                      zoo::mod_counter_type(4, 3)),
                                  0, 2),
                 {}});
  out.push_back({"consensus_cas3",
                 Engine{consensus::consensus_scenario(consensus::from_cas(3),
                                                      {1, 1, 1})},
                 agreement_check(3)});
  out.push_back({"consensus_sticky3",
                 Engine{consensus::consensus_scenario(
                     consensus::from_sticky_bit(3), {0, 0, 0})},
                 agreement_check(3)});
  return out;
}

struct Mode {
  const char* name;
  Reduction reduction;
};

constexpr Mode kModes[] = {
    {"none", Reduction::kNone},
    {"sleep+symmetry", Reduction::kSleepSymmetry},
};

ExploreLimits full_limits() {
  ExploreLimits limits;
  limits.track_access_bounds = true;
  limits.stop_at_violation = false;
  return limits;
}

/// One benchmark per (workload, mode).  The unreduced outcome is computed
/// once up front; every reduced run is checked against it so the JSON can
/// never report a speedup bought with a wrong verdict.
void register_all() {
  static const std::vector<Workload> workloads = zoo();
  static std::vector<ExploreOutcome> baselines;
  const ExploreLimits limits = full_limits();
  for (const Workload& w : workloads) {
    baselines.push_back(explore(w.root, ExploreOptions{limits}, w.check));
  }
  for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
    for (const Mode& mode : kModes) {
      const std::string name =
          std::string("reduction/") + workloads[wi].name + "/" + mode.name;
      benchmark::RegisterBenchmark(
          name.c_str(),
          [wi, mode, limits](benchmark::State& state) {
            const Workload& w = workloads[wi];
            const ExploreOutcome& base = baselines[wi];
            std::size_t configs = 0;
            for (auto _ : state) {
              const auto out =
                  explore(w.root, ExploreOptions{limits, mode.reduction},
                          w.check);
              benchmark::DoNotOptimize(out.stats.configs);
              configs = out.stats.configs;
              if (out.wait_free != base.wait_free ||
                  out.complete != base.complete ||
                  out.violation.has_value() != base.violation.has_value() ||
                  out.stats.depth != base.stats.depth ||
                  out.stats.max_accesses != base.stats.max_accesses) {
                state.SkipWithError(("verdict mismatch vs none on " + w.name)
                                        .c_str());
                return;
              }
            }
            state.counters["configs"] = static_cast<double>(configs);
            state.counters["configs_none"] =
                static_cast<double>(base.stats.configs);
            benchjson::memory_counters(state);
          })
          ->UseRealTime()
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_all();
  return wfregs::benchjson::run(argc, argv, "BENCH_e11_reduction.json");
}
