// The driver program of the scripted verifiers (verify_linearizable in
// verify.cpp, verify_regular in regularity.cpp).
#pragma once

#include <string>
#include <vector>

#include "wfregs/runtime/program.hpp"
#include "wfregs/typesys/type_spec.hpp"

namespace wfregs {

/// One process's driver: invokes `script` in order on environment slot 0,
/// then returns its responses folded into one number in radix
/// iface.num_responses() + 1 (digit resp + 1 for a response of the
/// interface, 0 for any other value).  The fold keeps executions with
/// different response histories in distinct configurations, as the
/// MEMOIZATION CONTRACT of explorer.hpp requires; the out-of-range digit
/// merges only histories that are already wrong.  Throws
/// std::invalid_argument when radix^script.size() exceeds INT64_MAX, where
/// the fold would overflow.
ProgramRef script_driver(const TypeSpec& iface,
                         const std::vector<InvId>& script,
                         const std::string& name);

}  // namespace wfregs
