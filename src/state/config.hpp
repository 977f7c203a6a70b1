// Tuning knobs for the authenticated state stack (docs/STATE.md). Every
// default reproduces the seed StateDB behaviour bit-for-bit: a state root
// computed at every commit point and unbounded commitment caches. The knobs
// exist so benchmarks and large-scale runs can opt into deferred roots and
// bounded trie caches without changing what any default-configured replica
// observes.
#pragma once

#include <cstddef>
#include <cstdint>

namespace srbb::state {

struct StateConfig {
  // --- deferred root computation (Reddio-style, off the commit path) ---
  /// When true, the execution oracle publishes a recomputed state root only
  /// every `root_interval` superblock indices; in between it republishes the
  /// last computed root. Deterministic across replicas as long as they share
  /// the config (the root is a pure function of (state, index)). Default off:
  /// every commit point carries a fresh root, exactly the seed behaviour.
  bool defer_root = false;
  /// Interval (in superblock indices) between root recomputations when
  /// defer_root is on. Index 0 always computes.
  std::uint64_t root_interval = 8;

  // --- incremental trie commitment ---
  /// Bound on memoized trie-node references in the account trie
  /// (0 = unbounded; see MerklePatriciaTrie::set_node_cache_limit).
  std::size_t trie_node_cache_limit = 0;
  /// Max per-account storage tries kept materialized for incremental
  /// updates (0 = unbounded). Evicted accounts keep only their storage-root
  /// hash; the next write to one rebuilds its trie from the flat state.
  std::size_t storage_trie_cache = 0;
};

}  // namespace srbb::state
