// Tests for the reduction layer, which is now one mechanism: a consensus
// job explores one input vector per process-symmetry orbit.  The job-text
// reduction spellings are only spellings: on the benchmark's consensus zoo
// and MRSW templates, at 1 and 4 threads, all three give byte-identical
// verdicts under three distinct job keys.  The metamorphic orbit oracle
// checks that every root of an orbit gives equal stats, and that
// check_consensus, which explores one root per orbit, matches the
// root-by-root loop on every field.  Also covers the parallel explorer on
// symmetric roots, ExploreStats lower bounds under early aborts, and
// shared-port systems.
#include "wfregs/runtime/reduction.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "consensus_oracle.hpp"
#include "test_support.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/core/register_elimination.hpp"
#include "wfregs/registers/mrsw.hpp"
#include "wfregs/runtime/explorer.hpp"
#include "wfregs/service/scheduler.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

using testsup::folding_scenario;
using testsup::share;

constexpr Reduction kSpellings[] = {Reduction::kNone, Reduction::kSleep,
                                    Reduction::kSleepSymmetry};

std::string reduction_name(Reduction r) {
  switch (r) {
    case Reduction::kNone:
      return "none";
    case Reduction::kSleep:
      return "sleep";
    case Reduction::kSleepSymmetry:
      return "sleep+symmetry";
  }
  return "?";
}

void ExpectIdentical(const ExploreOutcome& a, const ExploreOutcome& b,
                     const std::string& what) {
  EXPECT_EQ(a.wait_free, b.wait_free) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.violation.has_value(), b.violation.has_value()) << what;
  EXPECT_EQ(a.stats.configs, b.stats.configs) << what;
  EXPECT_EQ(a.stats.edges, b.stats.edges) << what;
  EXPECT_EQ(a.stats.terminals, b.stats.terminals) << what;
  EXPECT_EQ(a.stats.depth, b.stats.depth) << what;
  EXPECT_EQ(a.stats.max_accesses, b.stats.max_accesses) << what;
  EXPECT_EQ(a.stats.max_accesses_by_inv, b.stats.max_accesses_by_inv) << what;
}

/// Fully symmetric scenario: every process runs the SAME shared program (two
/// identical invocations, responses folded) on its own port of one shared
/// object.  When the object is port-oblivious every process permutation is a
/// system automorphism.
Engine symmetric_scenario_for(std::shared_ptr<const TypeSpec> t, InvId inv) {
  const int n = t->ports();
  auto sys = std::make_shared<System>(n);
  std::vector<PortId> ports(static_cast<std::size_t>(n));
  std::iota(ports.begin(), ports.end(), 0);
  const ObjectId obj = sys->add_base(std::move(t), 0, ports);
  ProgramBuilder b;
  b.assign(1, lit(0));
  for (int k = 0; k < 2; ++k) {
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

ExploreLimits full_limits() {
  ExploreLimits limits;
  limits.track_access_bounds = true;
  limits.stop_at_violation = false;
  return limits;
}

/// The benchmark's consensus jobs (perfbench's consensus_zoo() and
/// static_attempts()).  `symmetric`: every process permutation is a symmetry
/// of the scenario, so the orbits are the vectors with k ones, least members
/// 2^k - 1; otherwise the group is trivial.  `static_power`: the job asks
/// for the static consensus-power fast path, as the benchmark's
/// register-only attempts do.
struct ZooJob {
  std::string name;
  std::shared_ptr<const Implementation> impl;
  bool symmetric = false;
  bool static_power = false;
};

std::vector<ZooJob> benchmark_zoo() {
  std::vector<ZooJob> jobs = {{"tas", consensus::from_test_and_set()},
                              {"queue", consensus::from_queue()},
                              {"faa", consensus::from_fetch_and_add()}};
  for (int n = 2; n <= 5; ++n) {
    const std::string k = "(" + std::to_string(n) + ")";
    jobs.push_back({"cas" + k, consensus::from_cas(n), true});
    jobs.push_back({"sticky_bit" + k, consensus::from_sticky_bit(n), true});
    jobs.push_back({"consensus_object" + k,
                    consensus::from_consensus_object(n), true});
  }
  for (int n = 2; n <= 4; ++n) {
    for (int w = 2; w <= 5; ++w) {
      jobs.push_back({"shift_register(" + std::to_string(n) + "," +
                          std::to_string(w) + ")",
                      consensus::from_shift_register(n, w)});
    }
  }
  for (int n = 3; n <= 4; ++n) {
    jobs.push_back({"cas_ids(" + std::to_string(n) + ")",
                    consensus::from_cas_ids(n)});
  }
  for (int n = 2; n <= 4; ++n) {
    jobs.push_back({"registers_only_attempt(" + std::to_string(n) + ")",
                    consensus::registers_only_attempt(n), false, true});
  }
  return jobs;
}

TEST(Reduction, SpellingsGiveOneVerdictUnderThreeKeys) {
  // Every reduction spelling explores the same graph, so a job's verdict
  // bytes cannot depend on its spelling; the spelling is still job text, so
  // each gives its own key.  Over the benchmark's consensus zoo and MRSW
  // templates, at 1 and 4 threads.
  std::vector<std::pair<std::string, service::VerifyJob>> jobs;
  for (const ZooJob& z : benchmark_zoo()) {
    service::VerifyJob job;
    job.kind = service::JobKind::kConsensus;
    job.impl = z.impl;
    job.precheck = true;
    job.static_power = z.static_power;
    jobs.emplace_back(z.name, std::move(job));
  }
  const auto add_mrsw = [&jobs](int values, int readers,
                                std::vector<std::vector<InvId>> scripts,
                                const std::string& shape) {
    service::VerifyJob job;
    job.kind = service::JobKind::kLinearizable;
    job.impl = registers::mrsw_register(values, readers, 0, 2,
                                        registers::simpson_srsw_factory());
    job.scripts = std::move(scripts);
    jobs.emplace_back("mrsw(" + std::to_string(values) + "," +
                          std::to_string(readers) + ") " + shape,
                      std::move(job));
  };
  const zoo::MrswRegisterLayout wide{2, 2};
  add_mrsw(2, 2, {{wide.read()}, {wide.read()}, {wide.write(1)}},
           "r | r | w");
  for (const int values : {2, 3}) {
    const zoo::MrswRegisterLayout lay{values, 1};
    add_mrsw(values, 1, {{lay.read()}, {lay.write(1)}}, "r | w");
    add_mrsw(values, 1,
             {{lay.read(), lay.read()}, {lay.write(1), lay.write(values - 1)}},
             "r r | w w");
  }
  const std::atomic<bool> no_cancel{false};
  for (const int threads : {1, 4}) {
    const service::JobScheduler::Runner run =
        service::JobScheduler::default_runner(threads);
    for (auto& [name, job] : jobs) {
      SCOPED_TRACE(name + " x " + std::to_string(threads) + " threads");
      std::vector<service::JobKey> keys;
      std::vector<std::vector<std::uint8_t>> bytes;
      for (const Reduction r : kSpellings) {
        job.options.reduction = r;
        keys.push_back(service::job_key(job));
        bytes.push_back(service::encode_verdict(run(job, no_cancel)));
      }
      EXPECT_FALSE(keys[0] == keys[1]);
      EXPECT_FALSE(keys[0] == keys[2]);
      EXPECT_FALSE(keys[1] == keys[2]);
      EXPECT_TRUE(bytes[1] == bytes[0]);
      EXPECT_TRUE(bytes[2] == bytes[0]);
    }
  }
}

TEST(Reduction, DifferentialOnEliminationStages) {
  // The register-elimination pipeline produces the deepest composed
  // implementations in the library (virtual objects, persistent state and
  // port plumbing); every spelling must give the same consensus result on
  // its stage outputs, field for field.
  core::EliminationOptions options;  // empty factory: keep one-use bits
  const auto report =
      core::eliminate_registers(consensus::from_test_and_set(), options);
  ASSERT_TRUE(report.ok) << report.detail;
  for (const auto& stage : {report.bits_stage, report.result}) {
    VerifyOptions none;
    none.threads = 1;
    none.limits.track_access_bounds = true;
    const auto base = consensus::check_consensus(stage, none);
    ASSERT_TRUE(base.solves) << base.detail;
    for (const Reduction r : kSpellings) {
      SCOPED_TRACE(stage->name() + " @ " + reduction_name(r));
      VerifyOptions spelled = none;
      spelled.reduction = r;
      testsup::ExpectSameCheck(consensus::check_consensus(stage, spelled),
                               base);
    }
  }
}

TEST(Reduction, ParallelMatchesSequentialReducedBitForBit) {
  // The symmetric roots that node-level symmetry used to reduce: the
  // parallel explorer must reproduce the sequential explorer's counters
  // exactly, at any thread count.
  const ExploreLimits limits = full_limits();
  std::vector<std::pair<std::string, Engine>> roots;
  roots.emplace_back("cas(2,2)", folding_scenario(share(zoo::cas_type(2, 2))));
  roots.emplace_back("queue(2,2,2)",
                     folding_scenario(share(zoo::queue_type(2, 2, 2))));
  roots.emplace_back(
      "symmetric fetch_and_add(4,3)",
      symmetric_scenario_for(share(zoo::fetch_and_add_type(4, 3)), 0));
  roots.emplace_back("consensus cas(3)",
                     Engine{consensus::consensus_scenario(
                         consensus::from_cas(3), {1, 1, 1})});
  for (const auto& [name, root] : roots) {
    const auto seq = explore(root, limits);
    ASSERT_TRUE(seq.complete) << name;
    for (const int threads : {2, 8}) {
      ExpectIdentical(seq, explore_parallel(root, {}, limits, threads),
                      name + " x " + std::to_string(threads) + " threads");
    }
  }
}

TEST(Reduction, SymmetricConsensusScenarioShrinks) {
  // consensus_scenario shares one propose program per input value, so
  // cas(3)'s 8 input vectors fall into 4 orbits (0, 1, 2 or 3 ones), and
  // its job explores only their least members: one checkpoint directory
  // per explored root.
  const std::string dir = ::testing::TempDir() + "wfregs_reduction_orbits_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  VerifyOptions options;
  options.threads = 1;
  options.storage.checkpoint_dir = dir;
  const auto got = consensus::check_consensus(consensus::from_cas(3), options);
  EXPECT_TRUE(got.solves) << got.detail;
  std::vector<std::string> explored;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    explored.push_back(entry.path().filename().string());
  }
  std::ranges::sort(explored);
  EXPECT_EQ(explored,
            (std::vector<std::string>{"root0", "root1", "root3", "root7"}));
  std::filesystem::remove_all(dir);
}

TEST(Reduction, EarlyAbortCountersAreLowerBounds) {
  const Engine root = folding_scenario(share(zoo::register_type(3, 3)));
  const auto full = explore(root, full_limits());
  ASSERT_TRUE(full.complete);
  // Config-limit abort: incomplete, and every counter is a valid lower
  // bound of the completed run's counter.
  ExploreLimits capped;
  capped.max_configs = 5;
  const auto seq = explore(root, capped);
  EXPECT_FALSE(seq.complete);
  EXPECT_LE(seq.stats.configs, full.stats.configs);
  EXPECT_LE(seq.stats.terminals, full.stats.terminals);
  for (const int threads : {2, 8}) {
    const auto par = explore_parallel(root, {}, capped, threads);
    EXPECT_FALSE(par.complete);
    EXPECT_LE(par.stats.configs, full.stats.configs);
    EXPECT_LE(par.stats.terminals, full.stats.terminals);
  }
}

TEST(Reduction, StopAtViolationStillReportsViolation) {
  const Engine root = folding_scenario(share(zoo::nondet_coin_type(2)));
  // Every terminal violates, so any early stop must still surface one.
  const TerminalCheck check =
      [](const Engine&) -> std::optional<std::string> { return "always"; };
  ExploreLimits limits;
  limits.stop_at_violation = true;
  const auto seq = explore(root, limits, check);
  EXPECT_TRUE(seq.violation.has_value());
  EXPECT_GE(seq.stats.configs, 1u);
  for (const int threads : {2, 8}) {
    const auto par = explore_parallel(root, check, limits, threads);
    EXPECT_TRUE(par.violation.has_value()) << threads << " threads";
  }
}

TEST(Reduction, SharedPortSystemsFallBackToSymmetryOnly) {
  // Two processes sharing port 0 of an oblivious counter, each with its own
  // program: no renaming is an automorphism.
  auto sys = std::make_shared<System>(2);
  const ObjectId obj =
      sys->add_base(share(zoo::fetch_and_add_type(4, 2)), 0, {0, 0});
  for (ProcId p = 0; p < 2; ++p) {
    ProgramBuilder b;
    b.assign(1, lit(0));
    b.invoke(0, lit(0), 0);
    b.assign(1, reg(1) * lit(1 << 20) + reg(0) + lit(1));
    b.ret(reg(1));
    sys->set_toplevel(p, b.build("shared_p" + std::to_string(p)), {obj});
  }
  EXPECT_TRUE(symmetry_renamings(*sys).empty());
}

TEST(Reduction, RenamedRootsGiveEqualStats) {
  // Metamorphic oracle for exploring one input vector per orbit.  A process
  // renaming pi in the scenario's symmetry group (taken from the all-zero
  // instance) maps the root for input vector v onto the root for the
  // renamed vector w, w[pi(p)] = v[p]; the two configuration graphs are
  // isomorphic.  A renaming moves ports, never object or invocation ids, so
  // even the access-bound vectors must match.
  const ExploreLimits limits = full_limits();
  for (int n = 3; n <= 5; ++n) {
    const std::vector<
        std::pair<std::string, std::shared_ptr<const Implementation>>>
        protocols = {
            {"cas(" + std::to_string(n) + ")", consensus::from_cas(n)},
            {"sticky_bit(" + std::to_string(n) + ")",
             consensus::from_sticky_bit(n)},
            {"consensus_object(" + std::to_string(n) + ")",
             consensus::from_consensus_object(n)},
        };
    for (const auto& [name, impl] : protocols) {
      const consensus::ScenarioTemplate scenario(impl);
      const std::vector<ProcessRenaming> group = symmetry_renamings(
          *scenario.instantiate(std::vector<int>(n, 0)));
      ASSERT_FALSE(group.empty()) << name;
      std::vector<ExploreOutcome> by_vec;
      for (int vec = 0; vec < (1 << n); ++vec) {
        std::vector<int> inputs;
        for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
        by_vec.push_back(
            explore(Engine{scenario.instantiate(inputs)}, limits));
        ASSERT_TRUE(by_vec.back().complete) << name;
      }
      for (int vec = 0; vec < (1 << n); ++vec) {
        for (const ProcessRenaming& pi : group) {
          int renamed = 0;
          for (int p = 0; p < n; ++p) {
            renamed |= ((vec >> p) & 1) << pi.proc_map[p];
          }
          const ExploreStats& a = by_vec[vec].stats;
          const ExploreStats& b = by_vec[renamed].stats;
          const std::string what = name + ": inputs " + std::to_string(vec) +
                                   " vs " + std::to_string(renamed);
          EXPECT_EQ(a.configs, b.configs) << what;
          EXPECT_EQ(a.edges, b.edges) << what;
          EXPECT_EQ(a.terminals, b.terminals) << what;
          EXPECT_EQ(a.interned_configs, b.interned_configs) << what;
          EXPECT_EQ(a.depth, b.depth) << what;
          EXPECT_EQ(a.max_accesses, b.max_accesses) << what;
          EXPECT_EQ(a.max_accesses_by_inv, b.max_accesses_by_inv) << what;
        }
      }
    }
  }
}

TEST(Reduction, OrbitRepresentativesGiveTheRootByRootCheck) {
  // check_consensus explores one input vector per symmetry orbit and
  // credits the rest; the root-by-root loop explores all 2^n.  Every field
  // must agree, at 1 and 4 threads, with and without access bounds -- on
  // the benchmark's consensus zoo and on failing jobs, whose violating
  // orbits are explored member by member.
  for (const ZooJob& job : benchmark_zoo()) {
    SCOPED_TRACE(job.name);
    const consensus::ScenarioTemplate scenario(job.impl);
    std::vector<int> want;
    if (job.symmetric) {
      for (int vec = 0; vec < (1 << scenario.processes()); ++vec) {
        want.push_back((1 << std::popcount(static_cast<unsigned>(vec))) - 1);
      }
    }
    EXPECT_EQ(scenario.orbit_representatives(), want);
    for (const int threads : {1, 4}) {
      for (const bool bounds : {false, true}) {
        SCOPED_TRACE(std::to_string(threads) +
                     (bounds ? " threads, bounds" : " threads"));
        VerifyOptions options;
        options.threads = threads;
        options.limits.track_access_bounds = bounds;
        testsup::ExpectSameCheck(
            consensus::check_consensus(job.impl, options),
            testsup::check_root_by_root(job.impl, options));
      }
    }
  }
  // A representative cut by a limit stands for nothing: counts at a stop
  // depend on DFS order, so every member of its orbit runs.  Each cap lets
  // the all-zero root finish (it is credited to nobody else) and cuts the
  // roots with one or two ones.  One thread only, since a parallel limit
  // hit reports run-dependent lower bounds.
  struct Cut {
    std::shared_ptr<const Implementation> impl;
    std::size_t max_configs;
  };
  for (const Cut& cut : {Cut{consensus::from_cas(4), 70},
                         Cut{consensus::from_sticky_bit(4), 20}}) {
    SCOPED_TRACE(cut.impl->name());
    VerifyOptions options;
    options.threads = 1;
    options.limits.max_configs = cut.max_configs;
    options.limits.track_access_bounds = true;
    const auto got = consensus::check_consensus(cut.impl, options);
    ASSERT_EQ(got.per_root.size(), 16u);
    EXPECT_LT(got.per_root[0].configs, cut.max_configs);
    EXPECT_FALSE(got.complete);
    testsup::ExpectSameCheck(got,
                             testsup::check_root_by_root(cut.impl, options));
  }
}

TEST(Reduction, VerifiersThreadReductionThrough) {
  // End-to-end: every VerifyOptions::reduction spelling reaches the same
  // exploration, so the consensus result is the same on every field.
  const auto impl = consensus::from_test_and_set();
  VerifyOptions none;
  none.threads = 1;
  none.limits.track_access_bounds = true;
  const auto base = consensus::check_consensus(impl, none);
  ASSERT_TRUE(base.solves) << base.detail;
  for (const Reduction r : kSpellings) {
    SCOPED_TRACE(reduction_name(r));
    VerifyOptions spelled = none;
    spelled.reduction = r;
    testsup::ExpectSameCheck(consensus::check_consensus(impl, spelled), base);
  }
}

}  // namespace
}  // namespace wfregs
