// Recursive Length Prefix (RLP) serialization, as specified in the Ethereum
// yellow paper. Encoding is canonical; decoding rejects every non-canonical
// form (long form for short payloads, leading zeros in lengths, trailing
// bytes), so decoding an encoding gives back the original and malformed
// wire data is surfaced as an error rather than undefined behaviour.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/u256.hpp"

namespace srbb::rlp {

// --- Encoding -------------------------------------------------------------

Bytes encode_bytes(BytesView payload);
/// Minimal big-endian integer encoding (zero encodes as the empty string).
Bytes encode_u64(std::uint64_t value);
Bytes encode_u256(const U256& value);
/// Wrap already-encoded items into a list.
Bytes encode_list(const std::vector<Bytes>& encoded_items);

/// Incremental builder for composite structures.
class ListBuilder {
 public:
  ListBuilder& add_bytes(BytesView payload);
  ListBuilder& add_u64(std::uint64_t value);
  ListBuilder& add_u256(const U256& value);
  ListBuilder& add_raw(Bytes encoded);  // pre-encoded item (e.g. nested list)
  Bytes build() const;

 private:
  std::vector<Bytes> items_;
};

// --- Decoding (zero-copy) ---------------------------------------------------
//
// decode_view() records views into the wire buffer instead of copying
// payloads, with the tree structure flattened into a ViewDoc arena in DFS
// pre-order. Nesting beyond 512 levels is rejected ("rlp: nesting too deep")
// so hostile wire data cannot exhaust the parser's stack. The copying
// decoder in tests/support/ is its reference (fuzz_rlp_view checks the two
// differentially: same grammar, canonicality rules and error strings).
//
// Lifetime rules (docs/PERF.md "Arena lifetime"):
//  - every ItemView and every BytesView obtained from one aliases BOTH the
//    ViewDoc and the wire buffer passed to decode_view; neither may move or
//    be destroyed while views are in use;
//  - decode_view clears the doc on entry, so reusing one ViewDoc across many
//    frames amortizes the node allocations (arena behaviour) but invalidates
//    all views into the previous frame;
//  - on error the doc contents are unspecified.

struct ViewNode {
  std::uint32_t subtree_end = 0;  // one past this node's subtree in the doc
  std::uint32_t child_count = 0;  // direct children (0 for strings)
  bool is_list = false;
  BytesView payload{};  // string contents; for lists, the raw encoded body
};

class ViewDoc;

/// A node handle into a ViewDoc. Cheap to copy (pointer + index).
class ItemView {
 public:
  ItemView() = default;

  bool valid() const { return doc_ != nullptr; }
  bool is_list() const;
  /// String contents (empty view for lists).
  BytesView payload() const;
  /// Raw encoded body of a list — the concatenated encoded children, a slice
  /// of the wire buffer (empty view for strings). Lets callers cut nested
  /// frames out of the wire without re-encoding.
  BytesView list_body() const;
  /// Direct child count (0 for strings).
  std::size_t size() const;
  /// i-th child via O(i) subtree hops; prefer next_sibling() when walking a
  /// long list. Precondition: is_list() and i < size().
  ItemView child(std::size_t i) const;
  /// The node after this subtree. Only meaningful while the walk stays below
  /// the parent's size() — the hop past the last child lands outside the
  /// sibling range.
  ItemView next_sibling() const;

  /// Integer view of a string node; error when it is a list, has a leading
  /// zero byte, or exceeds the requested width.
  Result<std::uint64_t> as_u64() const;
  Result<U256> as_u256() const;

 private:
  friend class ViewDoc;
  friend Result<ItemView> decode_view(BytesView data, ViewDoc& doc);
  ItemView(const ViewDoc* doc, std::uint32_t index)
      : doc_(doc), index_(index) {}

  const ViewDoc* doc_ = nullptr;
  std::uint32_t index_ = 0;
};

/// Flat arena holding one decoded frame in DFS pre-order: a node's children
/// start at its own index + 1, and sibling n+1 starts at sibling n's
/// subtree_end.
class ViewDoc {
 public:
  /// Root of the last successful decode_view into this doc.
  ItemView root() const { return ItemView{this, 0}; }
  std::size_t node_count() const { return nodes_.size(); }
  /// Drop the nodes but keep the capacity (arena reuse across frames).
  void clear() { nodes_.clear(); }

 private:
  friend class ItemView;
  friend Result<ItemView> decode_view(BytesView data, ViewDoc& doc);
  std::vector<ViewNode> nodes_;
};

/// Decode a complete RLP document; trailing bytes are an error. On success
/// the returned root view and its whole subtree live in `doc`.
Result<ItemView> decode_view(BytesView data, ViewDoc& doc);

}  // namespace srbb::rlp
