// Process symmetry of a System, and the job-text reduction spellings.
//
// When several processes run the same program over the same objects, a
// configuration and its image under a process renaming have isomorphic
// futures.  The library uses this at one place only: a consensus job's
// input vectors fall into orbits under the renamings of
// symmetry_renamings, and check_consensus explores one vector per orbit
// (wfregs/consensus/check.hpp).  Within one exploration every node is
// explored as it is; there is no per-node canonicalization (DESIGN.md §6
// records why it was deleted).
//
// SOUNDNESS of crediting a vector with its orbit representative's stats: an
// automorphism fixes object and invocation ids (it only permutes processes
// and ports), so the renamed roots' configuration graphs are isomorphic, with
// the same configs, edges, terminals, depth and access bounds, and the
// consensus check (agreement and validity) names no process.
#pragma once

#include <vector>

#include "wfregs/runtime/system.hpp"

namespace wfregs {

/// The reduction spellings of a job (VerifyOptions::reduction).  Every
/// spelling explores the same graph and gives the same verdict; they remain
/// because they are job text (service/job.hpp), and a job's key hashes its
/// printed text, so the three spellings are three distinct jobs.
enum class Reduction {
  kNone,
  kSleep,
  kSleepSymmetry,
};

/// One element of a System's process-symmetry group: a process permutation
/// that, together with the per-object port maps it induces, leaves the
/// system invariant.
struct ProcessRenaming {
  std::vector<ProcId> proc_map;  ///< old process id -> new process id
};

/// All non-identity renamings under which `sys` is invariant: permutations
/// pi with toplevel_program(p) == toplevel_program(pi(p)) (pointer equality
/// -- programs are immutable and shared), identical environment object
/// sequences, and induced port maps under which every moved held port has
/// an identical transition table (base objects) or identical programs
/// (implemented objects).  Returns empty for asymmetric systems and for
/// systems with more than 6 processes (the factorial enumeration stops
/// paying for itself well before the memory of the exploration it would
/// reduce fits in RAM).
std::vector<ProcessRenaming> symmetry_renamings(const System& sys);

}  // namespace wfregs
