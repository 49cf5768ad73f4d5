// check_consensus recomputed the long way, for the differential suites: one
// consensus_scenario (a fresh System, compiled from scratch) and one
// explore_parallel per input vector, every one of the 2^n roots explored,
// aggregated as check.hpp documents.  It shares no template, no orbit table
// and no crediting with the checker under test.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "wfregs/consensus/check.hpp"
#include "wfregs/runtime/explorer.hpp"

namespace wfregs::testsup {

inline consensus::ConsensusCheckResult check_root_by_root(
    const std::shared_ptr<const Implementation>& impl,
    const VerifyOptions& options) {
  const int n = impl->iface().ports();
  consensus::ConsensusCheckResult want;
  want.solves = true;
  for (int vec = 0; vec < (1 << n); ++vec) {
    std::vector<int> inputs;
    for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
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
    const Engine root{consensus::consensus_scenario(impl, inputs)};
    const auto out = explore_parallel(
        root, check, ExploreOptions{options.limits},
        options.threads);
    want.wait_free = want.wait_free && out.wait_free;
    want.complete = want.complete && out.complete;
    want.configs += out.stats.configs;
    want.terminals += out.stats.terminals;
    want.depth = std::max(want.depth, out.stats.depth);
    const auto& acc = out.stats.max_accesses;
    want.max_accesses.resize(std::max(want.max_accesses.size(), acc.size()));
    for (std::size_t g = 0; g < acc.size(); ++g) {
      want.max_accesses[g] = std::max(want.max_accesses[g], acc[g]);
    }
    const auto& by_inv = out.stats.max_accesses_by_inv;
    want.max_accesses_by_inv.resize(
        std::max(want.max_accesses_by_inv.size(), by_inv.size()));
    for (std::size_t g = 0; g < by_inv.size(); ++g) {
      auto& row = want.max_accesses_by_inv[g];
      row.resize(std::max(row.size(), by_inv[g].size()));
      for (std::size_t i = 0; i < by_inv[g].size(); ++i) {
        row[i] = std::max(row[i], by_inv[g][i]);
      }
    }
    if (options.limits.track_access_bounds) want.per_root.push_back(out.stats);
    if (out.violation && want.detail.empty()) {
      std::ostringstream prefix;
      prefix << "inputs (";
      for (int p = 0; p < n; ++p) {
        prefix << (p ? "," : "") << inputs[static_cast<std::size_t>(p)];
      }
      prefix << "): " << *out.violation;
      want.detail = prefix.str();
    }
    if (out.violation || !out.wait_free || !out.complete) {
      want.solves = false;
      if (want.detail.empty()) {
        want.detail = out.wait_free ? "exploration exceeded limits"
                                    : "not wait-free (configuration cycle)";
      }
    }
  }
  return want;
}

/// Every ConsensusCheckResult field, per_root's whole ExploreStats included.
inline void ExpectSameCheck(const consensus::ConsensusCheckResult& got,
                            const consensus::ConsensusCheckResult& want) {
  EXPECT_EQ(got.solves, want.solves);
  EXPECT_EQ(got.wait_free, want.wait_free);
  EXPECT_EQ(got.complete, want.complete);
  EXPECT_EQ(got.static_decision, want.static_decision);
  EXPECT_EQ(got.resumed, want.resumed);
  EXPECT_EQ(got.checkpointed, want.checkpointed);
  EXPECT_EQ(got.detail, want.detail);
  EXPECT_EQ(got.depth, want.depth);
  EXPECT_EQ(got.configs, want.configs);
  EXPECT_EQ(got.terminals, want.terminals);
  EXPECT_EQ(got.max_accesses, want.max_accesses);
  EXPECT_EQ(got.max_accesses_by_inv, want.max_accesses_by_inv);
  ASSERT_EQ(got.per_root.size(), want.per_root.size());
  for (std::size_t r = 0; r < got.per_root.size(); ++r) {
    const ExploreStats& a = got.per_root[r];
    const ExploreStats& b = want.per_root[r];
    EXPECT_EQ(a.configs, b.configs) << "root " << r;
    EXPECT_EQ(a.edges, b.edges) << "root " << r;
    EXPECT_EQ(a.terminals, b.terminals) << "root " << r;
    EXPECT_EQ(a.interned_configs, b.interned_configs) << "root " << r;
    EXPECT_EQ(a.depth, b.depth) << "root " << r;
    EXPECT_EQ(a.max_accesses, b.max_accesses) << "root " << r;
    EXPECT_EQ(a.max_accesses_by_inv, b.max_accesses_by_inv) << "root " << r;
  }
}

}  // namespace wfregs::testsup
