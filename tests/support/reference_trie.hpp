// The value-storing Merkle Patricia Trie and the from-scratch state root:
// the references the program's key-only LeanTrie (state/trie.hpp) and its
// incremental StateDB::state_root() are checked against. Never linked into
// the program.
//
// MerklePatriciaTrie stores each value in its leaf (leaf / extension /
// branch nodes over nibble paths, hex-prefix encoding, Keccak over RLP node
// encodings), with child references per the yellow paper (appendix D): a
// child whose RLP encoding is shorter than 32 bytes is inlined into its
// parent's encoding, longer ones are referenced by their Keccak hash. Every
// node memoizes the reference its parent embeds; put()/erase() invalidate
// the memo only along the touched path.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/bytes.hpp"
#include "state/statedb.hpp"
#include "state/trie.hpp"

namespace srbb::state {

class MerklePatriciaTrie {
 public:
  MerklePatriciaTrie();
  ~MerklePatriciaTrie();
  MerklePatriciaTrie(MerklePatriciaTrie&&) noexcept;
  MerklePatriciaTrie& operator=(MerklePatriciaTrie&&) noexcept;

  /// Insert or overwrite. Empty values are legal and distinct from absence.
  void put(BytesView key, Bytes value);
  std::optional<Bytes> get(BytesView key) const;
  /// Remove a key; no-op when absent.
  void erase(BytesView key);

  bool empty() const { return root_ == nullptr; }
  std::size_t size() const { return size_; }

  /// keccak256 of the RLP encoding of the root node; empty_trie_root() for
  /// the empty trie. Incremental: only nodes dirtied since the previous call
  /// are re-encoded/re-hashed.
  Hash32 root_hash() const;

  struct CacheStats {
    std::size_t cached_refs = 0;  // nodes currently holding a memoized ref
  };
  const CacheStats& cache_stats() const { return cache_stats_; }

 private:
  struct Node;
  using NodePtr = std::unique_ptr<Node>;

  NodePtr insert(NodePtr node, std::span<const std::uint8_t> nibbles,
                 Bytes value, bool& inserted);
  static const Node* lookup(const Node* node,
                            std::span<const std::uint8_t> nibbles);
  NodePtr remove(NodePtr node, std::span<const std::uint8_t> nibbles,
                 bool& removed);
  /// Re-normalise a node whose children changed (collapse single-child
  /// branches into extensions/leaves).
  NodePtr normalize(NodePtr node);
  /// Full RLP encoding of a node (children embedded per the yellow paper).
  Bytes encode(const Node& node) const;
  /// The RLP item a parent embeds for `node`: the encoding itself when
  /// shorter than 32 bytes, rlp(keccak(encoding)) otherwise. Memoized.
  Bytes child_ref(const Node& node) const;
  /// Drop a node's memoized ref (cache-stat bookkeeping funnel).
  void invalidate(Node& node);

  NodePtr root_;
  std::size_t size_ = 0;
  mutable CacheStats cache_stats_;
};

/// Nibble helpers (exposed for tests).
std::vector<std::uint8_t> to_nibbles(BytesView key);
/// Hex-prefix encoding of a nibble path with the leaf flag (yellow paper
/// appendix C).
Bytes hex_prefix_encode(std::span<const std::uint8_t> nibbles, bool is_leaf);

/// The state root rebuilt from scratch in value-storing tries, with the
/// account leaf encoding the program uses. Always equals db.state_root().
Hash32 state_root_mpt_full(const StateDB& db);

}  // namespace srbb::state
