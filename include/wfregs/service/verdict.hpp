// Verdicts: the service layer's unit of caching.
//
// A Verdict is the outcome of one verification job -- the verdict bits, the
// first-violation detail (the counterexample trace, when one exists), and
// the full ExploreStats -- flattened from VerifyResult /
// RegularVerifyResult / ConsensusCheckResult into one shape so the store,
// the scheduler and the wire protocol handle all three job kinds uniformly.
//
// Two encodings:
//   * encode_verdict / decode_verdict -- a compact length-prefixed binary
//     encoding, the store's record payload.  Byte-identical for equal
//     verdicts, so the E13 bench and the coherence tests can check cached
//     == fresh by comparing encoded bytes.
//   * verdict_to_json -- the structured output shared by `wfregs_cli
//     --json` and the daemon's response frames.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "wfregs/runtime/explorer.hpp"

namespace wfregs::service {

enum class JobKind : std::uint8_t {
  kLinearizable = 0,  ///< verify_linearizable over a script scenario
  kRegular = 1,       ///< verify_regular over a script scenario
  kConsensus = 2,     ///< check_consensus over all input vectors
};

const char* job_kind_name(JobKind kind);

/// How a verdict was produced: by schedule exploration, by the static
/// consensus-power fast-path (certified classifier, no exploration ran), or
/// cut short by a deadline with a resumable checkpoint left behind.
enum class Provenance : std::uint8_t {
  kExplored = 0,
  kStatic = 1,
  /// Deadline- or shutdown-cancelled, but the run checkpointed before
  /// stopping: resubmitting the same job key resumes the exploration
  /// instead of starting over.  Partial verdicts are never cached; they
  /// appear only in the scheduler's status history and poll() replies.
  kPartial = 2,
};

const char* provenance_name(Provenance p);

struct Verdict {
  JobKind kind = JobKind::kLinearizable;
  /// The headline verdict: linearizable / regular / solves-consensus.
  bool ok = false;
  bool wait_free = false;
  /// Exploration finished within limits (cancelled jobs report false and
  /// are never cached).
  bool complete = false;
  /// First violation / counterexample trace, empty when ok.
  std::string detail;
  /// Aggregate exploration stats.  For consensus jobs configs/terminals are
  /// summed over the 2^n roots and depth is the max (the paper's D); edges
  /// is 0 (the per-root checker does not expose it).  All zero for
  /// statically decided jobs (no exploration ran).
  ExploreStats stats;
  /// kStatic when the consensus-power fast-path answered the job without
  /// exploring; the detail then carries the classifier's justification.
  /// kPartial when a cancelled run left a resumable checkpoint.
  Provenance provenance = Provenance::kExplored;
  /// Transient out-of-core markers: the run resumed from / left a
  /// checkpoint.  NOT encoded and NOT part of equality, so a resumed run's
  /// cached bytes are identical to a fresh run's -- the E18 byte-identity
  /// gate depends on this.
  bool resumed = false;
  bool checkpointed = false;

  friend bool operator==(const Verdict&, const Verdict&);
};

/// Compact binary encoding (deterministic: equal verdicts encode to equal
/// bytes).
std::vector<std::uint8_t> encode_verdict(const Verdict& v);

/// Decodes encode_verdict's output; throws std::runtime_error on malformed
/// or truncated input.
Verdict decode_verdict(const std::uint8_t* data, std::size_t size);

/// True when `data` starts with this build's encoding version byte.  A
/// payload written under an earlier version is not corrupt, only stale:
/// the store treats it as absent, so the job is recomputed.
bool verdict_version_current(const std::uint8_t* data, std::size_t size);

/// The shared structured rendering: one JSON object with kind, verdict
/// bits, provenance, detail and stats.
std::string verdict_to_json(const Verdict& v);

/// The decision-relevant projection of a verdict: kind + ok + wait_free +
/// complete, with stats zeroed, detail cleared and provenance normalized to
/// kExplored.  Two verdicts for the same job agree as DECISIONS iff their
/// projections encode to identical bytes -- the comparison the E15 bench
/// gate uses, since a static verdict legitimately differs from an explored
/// one in stats (all zero) and detail (a justification, not a trace).
Verdict decision_projection(const Verdict& v);

}  // namespace wfregs::service
