// Configuration of the authenticated state stack (docs/STATE.md). It has no
// fields: the commitment is the one incremental trie, computed at every
// commit point. ExecutionOracle's four-argument constructor still takes it.
#pragma once

namespace srbb::state {

struct StateConfig {};

}  // namespace srbb::state
