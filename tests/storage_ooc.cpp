// Out-of-core exploration tests.
//
// The contract under test (explorer.hpp): explore() with storage enabled is
// BIT-IDENTICAL to plain explore() in every reduction mode -- same counters,
// same violation, same access bounds -- whether the run completes in one
// shot, is interrupted and resumed under a checkpoint, or is SIGKILL'd at a
// randomized moment and resumed from whatever checkpoint prefix survived on
// disk.  The differential suite runs both explorers across the zoo; the
// crash matrix forks a child, kills it at seeded random offsets, and resumes
// in the parent.
#include "wfregs/runtime/explorer.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "test_support.hpp"
#include "wfregs/consensus/check.hpp"
#include "wfregs/consensus/protocols.hpp"
#include "wfregs/runtime/verify.hpp"
#include "wfregs/storage/checkpoint.hpp"
#include "wfregs/storage/spill_arena.hpp"
#include "wfregs/typesys/type_zoo.hpp"

namespace wfregs {
namespace {

namespace fs = std::filesystem;

using testsup::folding_scenario;
using testsup::indexed_name;
using testsup::share;

constexpr Reduction kModes[] = {Reduction::kNone, Reduction::kSleep,
                                Reduction::kSleepSymmetry};

const char* mode_name(Reduction r) {
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

struct TempDir {
  fs::path path;
  TempDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path = fs::temp_directory_path() /
           (std::string("wfregs-ooc-test-") + info->test_suite_name() + "-" +
            info->name() + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string sub(const std::string& name) const {
    return (path / name).string();
  }
};

void ExpectIdentical(const ExploreOutcome& ref, const ExploreOutcome& ooc,
                     const std::string& what) {
  EXPECT_EQ(ref.wait_free, ooc.wait_free) << what;
  EXPECT_EQ(ref.complete, ooc.complete) << what;
  EXPECT_EQ(ref.violation, ooc.violation) << what;
  EXPECT_EQ(ref.stats.configs, ooc.stats.configs) << what;
  EXPECT_EQ(ref.stats.edges, ooc.stats.edges) << what;
  EXPECT_EQ(ref.stats.terminals, ooc.stats.terminals) << what;
  EXPECT_EQ(ref.stats.interned_configs, ooc.stats.interned_configs) << what;
  EXPECT_EQ(ref.stats.depth, ooc.stats.depth) << what;
  EXPECT_EQ(ref.stats.max_accesses, ooc.stats.max_accesses) << what;
  EXPECT_EQ(ref.stats.max_accesses_by_inv, ooc.stats.max_accesses_by_inv)
      << what;
}

/// Storage options exercising everything at deliberately hostile sizes: a
/// one-page segment and a two-page budget force constant eviction, a short
/// keyframe interval forces delta decoding.
storage::StorageOptions tiny_storage(const std::string& spill_dir) {
  storage::StorageOptions s;
  s.memory_budget_bytes = 2 * 4096;
  s.arena_segment_bytes = 4096;
  s.keyframe_interval = 6;
  s.spill_dir = spill_dir;
  return s;
}

TEST(OocExplorer, DifferentialOnZooTypes) {
  TempDir tmp;
  std::vector<std::pair<std::string, TypeSpec>> instances;
  instances.emplace_back("register(3,2)", zoo::register_type(3, 2));
  instances.emplace_back("bit(2)", zoo::bit_type(2));
  instances.emplace_back("mrsw_register(2,2)",
                         zoo::mrsw_register_type(2, 2));
  instances.emplace_back("regular_bit",
                         zoo::weak_bit_type(zoo::WeakBitKind::kRegular));
  instances.emplace_back("consensus(2)", zoo::consensus_type(2));
  instances.emplace_back("test_and_set(2)", zoo::test_and_set_type(2));
  instances.emplace_back("fetch_and_add(4,2)",
                         zoo::fetch_and_add_type(4, 2));
  instances.emplace_back("cas(2,2)", zoo::cas_type(2, 2));
  instances.emplace_back("queue(2,2,2)", zoo::queue_type(2, 2, 2));
  instances.emplace_back("snapshot(2,2)", zoo::snapshot_type(2, 2));
  instances.emplace_back("nondet_coin(2)", zoo::nondet_coin_type(2));
  instances.emplace_back("sticky_bit(2)", zoo::sticky_bit_type(2));
  ExploreLimits limits;
  limits.track_access_bounds = true;
  limits.stop_at_violation = false;
  int scenario = 0;
  for (auto& [name, t] : instances) {
    const Engine root = folding_scenario(share(std::move(t)));
    for (const Reduction mode : kModes) {
      ExploreOptions ref_options{limits, mode};
      const auto ref = explore(root, ref_options);
      EXPECT_TRUE(ref.complete) << name;
      ExploreOptions ooc_options{limits, mode};
      ooc_options.storage =
          tiny_storage(tmp.sub(indexed_name("s", scenario++)));
      const auto ooc = explore(root, ooc_options);
      ExpectIdentical(ref, ooc,
                      name + " [" + mode_name(mode) + "]");
      EXPECT_FALSE(ooc.resumed);
    }
  }
}

TEST(OocExplorer, DifferentialOnConsensusProtocolsWithViolations) {
  // registers_only_attempt harbors genuine agreement violations; with
  // stop_at_violation off both explorers must visit every terminal and
  // report the SAME first violation string.
  TempDir tmp;
  ExploreLimits limits;
  limits.stop_at_violation = false;
  const auto impl = consensus::registers_only_attempt(2);
  const int n = impl->iface().ports();
  const TerminalCheck check =
      [n](const Engine& e) -> std::optional<std::string> {
    const Val decided = *e.result(0);
    for (ProcId p = 1; p < n; ++p) {
      if (*e.result(p) != decided) {
        return "disagreement: " + std::to_string(decided) + " vs " +
               std::to_string(*e.result(p));
      }
    }
    return std::nullopt;
  };
  int scenario = 0;
  for (int vec = 0; vec < (1 << n); ++vec) {
    std::vector<int> inputs;
    for (int p = 0; p < n; ++p) inputs.push_back((vec >> p) & 1);
    const Engine root{consensus::consensus_scenario(impl, inputs)};
    for (const Reduction mode : kModes) {
      const auto ref = explore(root, ExploreOptions{limits, mode}, check);
      ExploreOptions ooc_options{limits, mode};
      ooc_options.storage =
          tiny_storage(tmp.sub(indexed_name("s", scenario++)));
      ExpectIdentical(ref, explore(root, ooc_options, check),
                      std::string("registers_only inputs ") +
                          std::to_string(vec) + " [" + mode_name(mode) + "]");
    }
  }
}

TEST(OocExplorer, CycleAbortMatchesBitForBit) {
  // The lock-style waiting scenario: a schedule that never runs the setter
  // revisits a configuration, and the partial counters at the abort point
  // must match the in-core explorer exactly.
  TempDir tmp;
  const auto bit = share(zoo::bit_type(2));
  const zoo::RegisterLayout lay{2};
  auto sys = std::make_shared<System>(2);
  const ObjectId b = sys->add_base(bit, 0, {0, 1});
  sys->set_toplevel(0, testsup::one_shot("setter", 0, lay.write(1)), {b});
  ProgramBuilder pb;
  const Label loop = pb.bind_here();
  pb.invoke(0, lit(lay.read()), 0);
  pb.branch_if(reg(0) == lit(0), loop);
  pb.ret(lit(1));
  sys->set_toplevel(1, pb.build("waiter"), {b});
  const Engine root{std::move(sys)};
  const auto ref = explore(root);
  ASSERT_FALSE(ref.wait_free);
  ExploreOptions ooc_options;
  ooc_options.storage = tiny_storage(tmp.sub("spill"));
  ExpectIdentical(ref, explore(root, ooc_options), "lock-style cycle");
}

/// A scenario large enough to cross many checkpoint periods: three
/// processes alternating four invocations across two shared mod-3 counters
/// (~12.8k configurations, ~16k edges).
Engine big_scenario() {
  const auto t = share(zoo::mod_counter_type(3, 3));
  const int n = t->ports();
  const int invs = t->num_invocations();
  auto sys = std::make_shared<System>(n);
  std::vector<PortId> ports(static_cast<std::size_t>(n));
  std::iota(ports.begin(), ports.end(), 0);
  std::vector<ObjectId> objs = {sys->add_base(t, 0, ports),
                                sys->add_base(t, 0, ports)};
  for (ProcId p = 0; p < n; ++p) {
    ProgramBuilder b;
    b.assign(1, lit(0));
    for (int k = 0; k < 4; ++k) {
      b.invoke(k % 2, lit((p + k) % invs), 0);
      b.assign(1, reg(1) * lit(1 << 20) + reg(0) + lit(1));
    }
    b.ret(reg(1));
    sys->set_toplevel(p, b.build(indexed_name("p", p)), objs);
  }
  return Engine{std::move(sys)};
}

TEST(OocExplorer, InterruptThenResumeIsBitIdentical) {
  // Deterministic interrupt: run with a max_configs budget that stops
  // mid-exploration, then resume without the budget.  The resumed outcome
  // must equal the uninterrupted reference bit for bit, and the checkpoint
  // directory must end compacted to a finished snapshot.
  TempDir tmp;
  const Engine root = big_scenario();
  ExploreLimits full;
  full.track_access_bounds = true;
  full.stop_at_violation = false;
  const auto ref = explore(root, full);
  ASSERT_TRUE(ref.complete);
  ASSERT_GT(ref.stats.configs, 2000u);

  for (const std::size_t cut :
       {std::size_t{1}, std::size_t{500}, ref.stats.configs - 1}) {
    const std::string dir =
        tmp.sub(indexed_name("ckpt-", cut));
    ExploreOptions interrupted{full};
    interrupted.limits.max_configs = cut;
    interrupted.storage = tiny_storage(tmp.sub("spill"));
    interrupted.storage.checkpoint_dir = dir;
    interrupted.storage.checkpoint_every_configs = 128;
    const auto partial = explore(root, interrupted);
    EXPECT_FALSE(partial.complete) << cut;
    EXPECT_TRUE(partial.checkpointed) << cut;

    ExploreOptions resumed{full};
    resumed.storage = interrupted.storage;
    resumed.limits.max_configs = full.max_configs;
    const auto out = explore(root, resumed);
    EXPECT_TRUE(out.resumed) << cut;
    ExpectIdentical(ref, out, "resume after cut " + std::to_string(cut));

    // The directory is now a finished snapshot: re-running short-circuits
    // without exploring (and still reports the identical outcome).
    const auto cached = explore(root, resumed);
    EXPECT_TRUE(cached.resumed);
    ExpectIdentical(ref, cached, "finished-snapshot short-circuit");
    const auto info = storage::FrontierCheckpoint::info(dir);
    EXPECT_TRUE(info.finished);
  }
}

TEST(OocExplorer, RepeatedInterruptsAccumulateToTheSameAnswer) {
  // Starvation-style resume: give each attempt only a little more budget
  // than the last checkpoint until the exploration completes.
  TempDir tmp;
  const Engine root = big_scenario();
  ExploreLimits full;
  full.track_access_bounds = true;
  full.stop_at_violation = false;
  const auto ref = explore(root, full);

  ExploreOptions step{full};
  step.storage = tiny_storage(tmp.sub("spill"));
  step.storage.checkpoint_dir = tmp.sub("ckpt");
  step.storage.checkpoint_every_configs = 64;
  ExploreOutcome out;
  int attempts = 0;
  const std::size_t slice = ref.stats.configs / 8;
  for (std::size_t budget = slice;; budget += slice) {
    step.limits.max_configs = budget;
    out = explore(root, step);
    ++attempts;
    ASSERT_LT(attempts, 100);
    if (out.complete) break;
    EXPECT_TRUE(out.checkpointed) << "attempt " << attempts;
  }
  EXPECT_GT(attempts, 2);
  ExpectIdentical(ref, out, "incremental resume");
}

TEST(OocExplorer, CancellationCheckpointsLikeADeadline) {
  // A pre-set cancel flag models a deadline that fires mid-run: the
  // explorer must stop incomplete but leave a resumable checkpoint (this is
  // the path the JobScheduler's deadline cancellation takes).
  TempDir tmp;
  const Engine root = big_scenario();
  ExploreLimits full;
  full.stop_at_violation = false;
  const auto ref = explore(root, full);

  // Cancel after some configs via max_configs proxy is deterministic; the
  // atomic flag path is exercised by flipping cancel from the start, which
  // must checkpoint at the very first node.
  std::atomic<bool> cancel{true};
  ExploreOptions cancelled{full};
  cancelled.limits.cancel = &cancel;
  cancelled.storage.checkpoint_dir = tmp.sub("ckpt");
  const auto out = explore(root, cancelled);
  EXPECT_FALSE(out.complete);

  cancel.store(false);
  const auto resumed = explore(root, cancelled);
  ExpectIdentical(ref, resumed, "resume after cancellation");
}

TEST(OocExplorer, FingerprintMismatchStartsFresh) {
  // A checkpoint taken under one reduction mode must not be resumed by a
  // run under another: the fingerprint covers the exploration shape.
  TempDir tmp;
  const Engine root = big_scenario();
  ExploreOptions a;
  a.limits.max_configs = 300;
  a.storage.checkpoint_dir = tmp.sub("ckpt");
  a.storage.checkpoint_every_configs = 64;
  const auto partial = explore(root, a);
  ASSERT_FALSE(partial.complete);

  ExploreOptions b{a};
  b.reduction = Reduction::kSleep;
  b.limits.max_configs = ExploreLimits{}.max_configs;
  const auto out = explore(root, b);
  EXPECT_FALSE(out.resumed);
  EXPECT_TRUE(out.complete);
  const auto ref = explore(root, ExploreOptions{{}, Reduction::kSleep});
  ExpectIdentical(ref, out, "fresh start under different mode");
}

TEST(OocExplorer, ResumeFromSeedsANewDirectory) {
  TempDir tmp;
  const Engine root = big_scenario();
  ExploreLimits full;
  full.stop_at_violation = false;
  const auto ref = explore(root, full);

  ExploreOptions interrupted;
  interrupted.limits = full;
  interrupted.limits.max_configs = 600;
  interrupted.storage.checkpoint_dir = tmp.sub("original");
  interrupted.storage.checkpoint_every_configs = 128;
  ASSERT_FALSE(explore(root, interrupted).complete);

  ExploreOptions seeded;
  seeded.limits = full;
  seeded.storage.checkpoint_dir = tmp.sub("copy");
  seeded.storage.resume_from = tmp.sub("original");
  const auto out = explore(root, seeded);
  EXPECT_TRUE(out.resumed);
  ExpectIdentical(ref, out, "resume_from copy");
  // The original directory is untouched (still unfinished).
  EXPECT_FALSE(storage::FrontierCheckpoint::info(tmp.sub("original"))
                   .finished);
  EXPECT_TRUE(storage::FrontierCheckpoint::info(tmp.sub("copy")).finished);
}

// ---------------------------------------------------------------------------
// SIGKILL crash matrix
// ---------------------------------------------------------------------------

/// Runs the exploration in a forked child and SIGKILLs it after `delay_us`.
/// Returns true when the kill landed before the child finished (the
/// interesting case; the child exits 0 when it wins the race, which is also
/// fine -- the final checkpoint must then short-circuit).
bool run_child_and_kill(const Engine& root, const ExploreOptions& options,
                        useconds_t delay_us) {
  const pid_t pid = fork();
  if (pid == 0) {
    // Child: explore with checkpoints on; exit cleanly if we finish first.
    explore(root, options);
    _exit(0);
  }
  ::usleep(delay_us);
  ::kill(pid, SIGKILL);
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
}

TEST(OocExplorer, SigkillAtRandomizedOffsetsResumesBitIdentical) {
  TempDir tmp;
  const Engine root = big_scenario();
  ExploreLimits full;
  full.track_access_bounds = true;
  full.stop_at_violation = false;
  const auto ref = explore(root, full);

  // Seeded offsets: reproducible, but spread across the run's lifetime.
  std::mt19937 rng(20260808);
  int killed = 0;
  for (int trial = 0; trial < 6; ++trial) {
    const std::string dir = tmp.sub(indexed_name("ckpt-", trial));
    ExploreOptions options{full};
    options.storage = tiny_storage(tmp.sub(indexed_name("spill-", trial)));
    options.storage.checkpoint_dir = dir;
    options.storage.checkpoint_every_configs = 64;
    const useconds_t delay = 1000 + rng() % 120000;
    if (run_child_and_kill(root, options, delay)) ++killed;

    // Resume in-process from whatever prefix the child left behind.
    const auto out = explore(root, options);
    ExpectIdentical(ref, out,
                    "trial " + std::to_string(trial) + " delay " +
                        std::to_string(delay) + "us");
  }
  // The matrix is only meaningful if some kills actually landed mid-run;
  // the delays are chosen well inside the exploration's runtime.
  EXPECT_GT(killed, 0);
}

TEST(OocExplorer, SigkillWithGarbageTailStillResumes) {
  // A kill plus a torn/garbage tail on the frontier log (as a disk-level
  // crash could leave): resume must heal the log and still reach the
  // bit-identical answer.
  TempDir tmp;
  const Engine root = big_scenario();
  ExploreLimits full;
  full.stop_at_violation = false;
  const auto ref = explore(root, full);

  const std::string dir = tmp.sub("ckpt");
  ExploreOptions options;
  options.limits = full;
  options.storage.checkpoint_dir = dir;
  options.storage.checkpoint_every_configs = 64;
  run_child_and_kill(root, options, 20000);

  for (const char* log : {"frontier.log", "arena.log"}) {
    const fs::path p = fs::path(dir) / log;
    if (!fs::exists(p)) continue;
    std::ofstream f(p, std::ios::binary | std::ios::app);
    f.write("\x13garbage-tail\xff\x00\x7f", 16);
  }
  const auto out = explore(root, options);
  ExpectIdentical(ref, out, "garbage tail resume");
}

TEST(OocExplorer, VerifyPlumbsStorageThrough) {
  // End-to-end through verify_linearizable: interrupt via a tiny
  // max_configs, observe the partial marker, then resume to the reference
  // verdict.
  TempDir tmp;
  const auto impl = consensus::from_test_and_set();
  std::vector<std::vector<InvId>> scripts(
      static_cast<std::size_t>(impl->iface().ports()));
  for (auto& s : scripts) s = {0};
  VerifyOptions plain;
  plain.threads = 1;
  const auto ref = verify_linearizable(impl, scripts, plain);

  ASSERT_GT(ref.stats.configs, 4u);
  VerifyOptions interrupted = plain;
  interrupted.limits.max_configs = ref.stats.configs / 2;
  interrupted.storage.checkpoint_dir = tmp.sub("ckpt");
  interrupted.storage.checkpoint_every_configs = 4;
  const auto partial = verify_linearizable(impl, scripts, interrupted);
  EXPECT_FALSE(partial.complete);
  EXPECT_TRUE(partial.checkpointed);

  VerifyOptions resumed = plain;
  resumed.storage = interrupted.storage;
  const auto out = verify_linearizable(impl, scripts, resumed);
  EXPECT_TRUE(out.resumed);
  EXPECT_EQ(ref.ok, out.ok);
  EXPECT_EQ(ref.complete, out.complete);
  EXPECT_EQ(ref.stats.configs, out.stats.configs);
  EXPECT_EQ(ref.stats.edges, out.stats.edges);
  EXPECT_EQ(ref.detail, out.detail);
}

TEST(OocExplorer, CheckConsensusUsesPerRootSubdirectories) {
  TempDir tmp;
  const auto impl = consensus::from_test_and_set();
  VerifyOptions plain;
  plain.threads = 1;
  const auto ref = consensus::check_consensus(impl, plain);

  VerifyOptions stored = plain;
  stored.storage.checkpoint_dir = tmp.sub("ckpt");
  const auto out = consensus::check_consensus(impl, stored);
  EXPECT_EQ(ref.solves, out.solves);
  EXPECT_EQ(ref.configs, out.configs);
  EXPECT_EQ(ref.depth, out.depth);
  // One finished per-root checkpoint per input vector.
  const int n = impl->iface().ports();
  for (int vec = 0; vec < (1 << n); ++vec) {
    const auto info = storage::FrontierCheckpoint::info(
        tmp.sub("ckpt") + "/root" + std::to_string(vec));
    EXPECT_TRUE(info.finished) << vec;
  }
  // Re-running short-circuits on every root.
  const auto cached = consensus::check_consensus(impl, stored);
  EXPECT_TRUE(cached.resumed);
  EXPECT_EQ(ref.configs, cached.configs);
}

}  // namespace
}  // namespace wfregs
