// Merkle Patricia Trie over keys only: the authenticated structure behind
// the world-state commitment (docs/STATE.md), implemented from scratch
// (leaf / extension / branch nodes over nibble paths, hex-prefix encoding,
// Keccak over RLP node encodings).
//
// The trie stores no values. A leaf keeps only its packed key suffix; when a
// branch above it is re-hashed, the leaf is re-encoded from the value a
// TrieValues source returns for its full key (StateDB's flat maps in
// production). A branch memoizes the reference its parent embeds, so a
// root after k put()/erase() calls re-encodes only the O(k · depth)
// branches on the touched paths. An extension is folded into the branch it
// leads to and shares that branch's memo.
//
// Child references follow the yellow paper (appendix D): a child whose RLP
// encoding is shorter than 32 bytes is inlined into its parent's encoding;
// longer encodings are referenced by their Keccak hash. Roots are therefore
// byte-compatible with Ethereum's (unsecured) trie for the same key/value
// bytes (pinned by the known-root vectors in tests/test_trie.cpp).
#pragma once

#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace srbb::state {

/// keccak256(rlp("")) — the canonical empty-trie sentinel root.
const Hash32& empty_trie_root();

/// The value committed under each key of a LeanTrie. root_hash() may call it
/// from several pool threads at once, so it must be a pure read.
class TrieValues {
 public:
  virtual ~TrieValues() = default;
  /// Replaces `out` with the value bytes stored under `key`.
  virtual void value(BytesView key, Bytes& out) const = 0;
};

class LeanTrie {
 public:
  /// Keys are at most this long.
  static constexpr std::size_t kMaxKeyBytes = 32;
  /// Touched keys from which root_hash() fans out to the pool.
  static constexpr std::size_t kParallelRehashKeys = 512;

  LeanTrie() = default;
  ~LeanTrie();
  LeanTrie(LeanTrie&& other) noexcept;
  LeanTrie& operator=(LeanTrie&& other) noexcept;
  LeanTrie(const LeanTrie&) = delete;
  LeanTrie& operator=(const LeanTrie&) = delete;

  /// Replaces the content with `keys`, which must be sorted ascending and
  /// distinct. Every node is allocated once, at its final size.
  void build(std::span<const BytesView> keys);
  /// Adds `key` if absent. Either way its value is re-read at the next root.
  void put(BytesView key);
  /// Removes `key`; no-op when absent.
  void erase(BytesView key);
  bool empty() const { return root_.branch == nullptr && !root_.leaf; }

  /// keccak256 of the root node's RLP encoding; empty_trie_root() for the
  /// empty trie. Re-encodes only branches touched since the previous call.
  /// Once kParallelRehashKeys or more keys were touched, the subtries under
  /// the top branch are re-hashed on the process-wide pool.
  Hash32 root_hash(const TrieValues& values);

  struct Branch;
  /// A nibble string, one nibble per byte.
  struct Nibbles {
    std::uint8_t n[2 * kMaxKeyBytes] = {};
    std::size_t size = 0;
    std::span<const std::uint8_t> view() const { return {n, size}; }
    void append(std::span<const std::uint8_t> more);
  };
  /// A subtrie as the slot above it holds it: nothing, one leaf (the key
  /// nibbles below the slot), or a branch.
  struct Slot {
    Branch* branch = nullptr;
    bool leaf = false;
    Nibbles suffix;
  };

 private:
  Slot root_;
  std::size_t touched_ = 0;  // put()/erase() calls since the last root
};

}  // namespace srbb::state
