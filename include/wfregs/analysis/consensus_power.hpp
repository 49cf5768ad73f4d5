// Static consensus-power classification with machine-checkable certificates.
//
// The paper's central results are *static* facts about a type table: the
// Section 5 triviality dichotomy, the shape of a minimal non-trivial pair,
// and the main theorem that registers cannot raise the consensus power of a
// deterministic type (h_m = h_m^r).  This pass computes, from a TypeSpec
// alone -- no schedule exploration -- sound lower and upper bounds on
//
//     cons(T) := h_m^r(T)
//
// (the largest n for which n-process binary consensus is solvable from any
// number of objects of T plus read/write registers, each process holding one
// port of each object it accesses).  Every bound ships with a certificate
// that an INDEPENDENT checker (check_certificate, sharing no code with the
// classifier: it consumes raw TypeSpec::delta, never CompiledType or the
// triviality deciders) re-validates from first principles.
//
// Upper bounds (cons <= 1):
//
//   * kCommuteOverwriteUpper -- the mechanized Herlihy critical-state
//     argument.  If for EVERY state q and every pair of distinct-port
//     accesses alpha = (a, i1), beta = (b, i2) the pair either commutes at q
//     (same final state and same per-access responses in both orders) or one
//     overwrites the other (running beta after alpha yields exactly
//     delta(q, beta): the earlier access is invisible to everyone but its
//     caller), then no 2-process consensus protocol over objects of T and
//     registers exists: at a critical (bivalent) configuration the two
//     pending steps must land on one object, and each disposition collapses
//     the 0-valent and 1-valent successors into configurations
//     indistinguishable to some solo finisher.  Registers themselves satisfy
//     commute-or-overwrite, so the argument tolerates them.  The classifier
//     fills the per-state table from delta, one state at a time.
//
//   * kTrivialObliviousUpper / kTrivialGeneralUpper -- the Section 5
//     triviality argument: a trivial type's port-j response sequence is a
//     function of port j's own invocation sequence, so its objects can be
//     simulated locally and deleted from any protocol; what remains runs on
//     registers alone (cons 1 by FLP / Loui & Abu-Amara / Herlihy).  The
//     oblivious certificate is the full response table plus one-step
//     response invariance (responses constant along every edge, hence along
//     every reachable path); the general certificate is one partition of Q
//     per port that the checker verifies to be a port-local bisimulation
//     (equal classes give equal responses and equal successor classes) that
//     other ports cannot leave (every foreign-port step preserves the
//     class), which is exactly Section 5.2 triviality.
//
// Lower bounds:
//
//   * kSoloLower -- cons >= 1 for every total type (a lone process decides
//     its own input); the certificate is the degenerate depth-1 adopt table.
//
//   * kRaceLower -- cons >= 2 from a cross-port race gadget: a state q and
//     accesses (a, i_a), (b, i_b) on distinct ports where BOTH responses
//     distinguish going first from going second.  Two processes publish
//     their inputs in SRSW announce bits, race on one object of T
//     initialized to q, and the self-identified loser adopts the winner's
//     bit -- the publish/race/adopt protocol of the hierarchy harness,
//     statically detected.  The certificate embeds the derived Section 5.2
//     non-trivial pair (read_seq = [i_a] distinguishes q from
//     delta(q, b, i_b).next), the hook into the paper's Section 4.3/5 chain:
//     a non-trivial T implements one-use bits, one-use bits implement the
//     announce registers, so the bound is register-free (h_m, not just
//     h_m^r) by the main theorem.
//
//   * kAdoptLower -- cons >= d from a depth-d first-value gadget: a state q,
//     per-value invocations inv[0], inv[1] and a decision table decide[v][r]
//     such that along EVERY injective port sequence over ports 0..d-1 and
//     every value assignment, each invoker's response decodes the FIRST
//     value proposed.  One object, no registers, one invocation per process:
//     the pattern behind sticky bits, consensus objects, old-value cas and
//     the Aspnes shift-register structure (the marker bit survives w - 1
//     shifts, so depth w is consistent and depth w + 1 is not).
//
//   * kRegisterAugmentation -- the family rule (classify_family): a member
//     certified cons <= 1 by the rules above can be added to any family
//     without raising the family's bounds (its objects are registers-or-
//     weaker in the critical-state argument), and the family's lower bound
//     is the max over members (cons allows registers already).  This is the
//     paper's main theorem as an absorption law: T x {registers} inherits
//     T's deterministic bounds with no re-analysis.
//
// The classifier never contradicts exploration: lower <= cons(T), and
// upper_finite implies cons(T) <= upper.  Both are exercised by the
// differential gates in tests/consensus_power_static.cpp and tests/fuzz.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "wfregs/runtime/explorer.hpp"
#include "wfregs/runtime/implementation.hpp"
#include "wfregs/typesys/triviality.hpp"
#include "wfregs/typesys/type_spec.hpp"

namespace wfregs::analysis {

// ---- rules -----------------------------------------------------------------

enum class PowerRule : std::uint8_t {
  kSoloLower = 0,             ///< cons >= 1 (degenerate adopt, depth 1)
  kRaceLower = 1,             ///< cons >= 2 (cross-port race gadget)
  kAdoptLower = 2,            ///< cons >= d (depth-d first-value gadget)
  kCommuteOverwriteUpper = 3, ///< cons <= 1 (critical-state argument)
  kTrivialObliviousUpper = 4, ///< cons <= 1 (Section 5.1 triviality)
  kTrivialGeneralUpper = 5,   ///< cons <= 1 (Section 5.2 triviality)
  kRegisterAugmentation = 6,  ///< family absorption (main theorem)
};

const char* power_rule_name(PowerRule rule);

// ---- certificates ----------------------------------------------------------

/// Disposition of one distinct-port access pair at one state, for the
/// critical-state table.  "First" is (a, i1), "second" is (b, i2), a < b.
enum class PairDisposition : std::uint8_t {
  kCommute = 0,               ///< both orders: same state, same responses
  kFirstOverwritesSecond = 1, ///< delta(delta(q,beta).next, alpha) == delta(q,alpha)
  kSecondOverwritesFirst = 2, ///< delta(delta(q,alpha).next, beta) == delta(q,beta)
};

/// Filler for table slots with a >= b (the pair is covered once, at a < b).
inline constexpr std::uint8_t kPairUnused = 0xFF;

/// kCommuteOverwriteUpper: dispositions[((q*P + a)*I + i1)*P*I + b*I + i2]
/// holds a PairDisposition for every state q and distinct-port access pair
/// with a < b; all other slots are kPairUnused.
struct CommuteOverwriteCert {
  std::vector<std::uint8_t> dispositions;
};

/// kTrivialObliviousUpper: the claimed response table resp[q*I + i], checked
/// to match delta and to be invariant along every one-step edge.
struct TrivialObliviousCert {
  std::vector<RespId> resp;
};

/// kTrivialGeneralUpper: classes[j*Q + q] is state q's port-j trace class;
/// checked to be a port-j bisimulation no foreign-port step can leave.
struct TrivialGeneralCert {
  std::vector<int> classes;
};

/// kRaceLower: the race state, the two distinct-port accesses, the four
/// responses (first/second application per side), and the derived
/// Section 5.2 non-trivial pair justifying register elimination.
struct RaceCert {
  StateId q = 0;
  PortId port_a = 0;
  PortId port_b = 0;
  InvId inv_a = 0;
  InvId inv_b = 0;
  RespId first_a = 0;   ///< delta(q, a, i_a).resp
  RespId second_a = 0;  ///< delta(delta(q, b, i_b).next, a, i_a).resp
  RespId first_b = 0;   ///< delta(q, b, i_b).resp
  RespId second_b = 0;  ///< delta(delta(q, a, i_a).next, b, i_b).resp
  NonTrivialPair pair;
};

/// kSoloLower / kAdoptLower: from state q, process p (on port p < depth)
/// invokes inv[v_p] once and decides decide[v_p * R + r] from its response.
/// Consistent when every injective port sequence and value assignment makes
/// every decision equal the first proposed value.  -1 entries are
/// unconstrained (unreachable (value, response) combinations).
struct AdoptCert {
  StateId q = 0;
  int depth = 1;
  InvId inv[2] = {0, 0};
  std::vector<int> decide;
};

/// kRegisterAugmentation: which family members were absorbed (certified
/// cons <= 1 individually) and which member the family lower bound comes
/// from (-1 when every member bottoms out at the solo bound).
struct FamilyCert {
  std::vector<int> absorbed;
  int lower_source = -1;
};

using Certificate =
    std::variant<CommuteOverwriteCert, TrivialObliviousCert,
                 TrivialGeneralCert, RaceCert, AdoptCert, FamilyCert>;

/// One certified bound: `rule` tells whether `bound` is a lower or an upper
/// bound on cons(T).
struct PowerClaim {
  PowerRule rule = PowerRule::kSoloLower;
  int bound = 1;
  Certificate cert;
};

// ---- classification --------------------------------------------------------

struct ConsensusPowerResult {
  std::string type_name;
  bool deterministic = false;
  /// Sound: cons(T) >= lower (always >= 1 for total types).
  int lower = 1;
  /// When upper_finite, sound: cons(T) <= upper (the static rules only ever
  /// prove upper == 1; upper_finite == false means "no static upper bound").
  bool upper_finite = false;
  int upper = 0;
  /// Every claim backing the bounds, each independently checkable.
  std::vector<PowerClaim> claims;
  std::string note;

  /// "cons in [L, U]" / "cons >= L" one-liner plus the rules that fired.
  std::string summary() const;
};

/// Classifies one type.  Requires a total spec (throws std::invalid_argument
/// otherwise); nondeterministic types get the solo bound only.
ConsensusPowerResult classify_consensus_power(const TypeSpec& t);

// ---- independent certificate checking --------------------------------------

struct CertCheckResult {
  bool ok = false;
  std::string detail;  ///< first discrepancy, empty when ok
};

/// Re-validates one claim against the raw delta table.  Shares no code with
/// classify_consensus_power: everything is re-derived from TypeSpec::delta.
/// FamilyCert claims are checked by check_family_result instead (they are
/// claims about a set of types); passing one here fails with a note.
CertCheckResult check_certificate(const TypeSpec& t, const PowerClaim& claim);

// ---- the family rule (register augmentation) -------------------------------

struct FamilyPowerResult {
  /// Sound: a protocol over objects drawn from the family (plus registers)
  /// solving n-consensus exists for n = lower ...
  int lower = 1;
  /// ... and cannot exist for n > upper when upper_finite.
  bool upper_finite = false;
  int upper = 0;
  /// Per-member classification, in input order.
  std::vector<ConsensusPowerResult> members;
  /// The kRegisterAugmentation claim (present iff upper_finite: every
  /// member was individually certified cons <= 1).
  std::optional<PowerClaim> augmentation;
  std::string note;
};

/// Classifies a family of types used together.  The family lower bound is
/// the max over members (cons already allows registers alongside any single
/// member); the family upper bound is 1 exactly when EVERY member carries
/// its own cons <= 1 certificate, by the mixed critical-state argument
/// (trivial members are deleted first, commute-or-overwrite members sustain
/// the bivalence argument).
FamilyPowerResult classify_family(std::span<const TypeSpec> members);

/// Re-validates a family result: every member claim via check_certificate,
/// plus the absorption bookkeeping (bounds really are the max / the
/// all-members-certified conjunction the augmentation claim states).
CertCheckResult check_family_result(std::span<const TypeSpec> members,
                                    const FamilyPowerResult& result);

/// True when every (port, invocation) of `t` is a pure read (never changes
/// state) or a pure write (constant target state and constant response,
/// independent of the pre-state).  Register-shaped types always satisfy the
/// commute-or-overwrite rule; surfaced separately because the paper's main
/// theorem is about exactly these.
bool is_register_shaped(const TypeSpec& t);

// ---- daemon / verifier fast-path -------------------------------------------

/// A hook for VerifyOptions::static_consensus: decides a consensus job
/// without exploration when theory already settles it.  Returns a negative
/// decision (solves = false, wait_free = true) when
///
///   * the implementation's interface has >= 2 ports,
///   * every flattened base object's port wiring is process-exclusive (no
///     two interface ports reach the same port of the same base object),
///   * every flattened base type is deterministic and individually
///     certified cons <= 1 -- with every emitted certificate re-validated
///     by check_certificate before it is trusted,
///   * wfregs-lint reports no errors and every static per-object access
///     bound is finite, and every program in the tree is statically
///     inspectable and loop-free (so all executions terminate: the verdict
///     may honestly claim wait-freedom and completeness);
///
/// and nullopt otherwise (the caller falls back to full exploration).
/// Positive decisions are never produced statically: a lower bound proves
/// some protocol exists, not that THIS implementation is correct.
std::function<std::optional<StaticConsensusDecision>(const Implementation&)>
static_consensus_decider();

}  // namespace wfregs::analysis
