#include "support/reference_trie.hpp"

#include <algorithm>
#include <vector>

#include "codec/rlp.hpp"
#include "crypto/keccak.hpp"

namespace srbb::state {

struct MerklePatriciaTrie::Node {
  enum class Kind : std::uint8_t { kLeaf, kExtension, kBranch };

  Kind kind = Kind::kLeaf;
  std::vector<std::uint8_t> path;  // nibbles (leaf / extension)
  Bytes value;                     // leaf value, or branch slot-17 value
  bool has_value = false;          // branch: value present at this prefix
  NodePtr child;                   // extension target
  std::array<NodePtr, 16> children{};  // branch children

  // Memoized parent-embeddable reference (hash item or inline encoding).
  // Valid iff ref_valid; every mutation path must clear it through
  // MerklePatriciaTrie::invalidate so the cache stats stay exact.
  mutable Bytes ref;
  mutable bool ref_valid = false;

  static NodePtr leaf(std::vector<std::uint8_t> nibbles, Bytes val) {
    auto node = std::make_unique<Node>();
    node->kind = Kind::kLeaf;
    node->path = std::move(nibbles);
    node->value = std::move(val);
    node->has_value = true;
    return node;
  }

  static NodePtr extension(std::vector<std::uint8_t> nibbles, NodePtr target) {
    auto node = std::make_unique<Node>();
    node->kind = Kind::kExtension;
    node->path = std::move(nibbles);
    node->child = std::move(target);
    return node;
  }

  static NodePtr branch() {
    auto node = std::make_unique<Node>();
    node->kind = Kind::kBranch;
    return node;
  }

  std::size_t branch_child_count() const {
    std::size_t count = 0;
    for (const NodePtr& c : children) count += c != nullptr ? 1 : 0;
    return count;
  }
};

MerklePatriciaTrie::MerklePatriciaTrie() = default;
MerklePatriciaTrie::~MerklePatriciaTrie() = default;
MerklePatriciaTrie::MerklePatriciaTrie(MerklePatriciaTrie&&) noexcept = default;
MerklePatriciaTrie& MerklePatriciaTrie::operator=(MerklePatriciaTrie&&) noexcept =
    default;

std::vector<std::uint8_t> to_nibbles(BytesView key) {
  std::vector<std::uint8_t> out;
  out.reserve(key.size() * 2);
  for (const std::uint8_t byte : key) {
    out.push_back(byte >> 4);
    out.push_back(byte & 0x0f);
  }
  return out;
}

Bytes hex_prefix_encode(std::span<const std::uint8_t> nibbles, bool is_leaf) {
  Bytes out;
  const std::uint8_t flag = is_leaf ? 2 : 0;
  if (nibbles.size() % 2 == 0) {
    out.push_back(static_cast<std::uint8_t>(flag << 4));
    for (std::size_t i = 0; i < nibbles.size(); i += 2) {
      out.push_back(static_cast<std::uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
    }
  } else {
    out.push_back(static_cast<std::uint8_t>(((flag | 1) << 4) | nibbles[0]));
    for (std::size_t i = 1; i < nibbles.size(); i += 2) {
      out.push_back(static_cast<std::uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
    }
  }
  return out;
}

namespace {

std::size_t common_prefix(std::span<const std::uint8_t> a,
                          std::span<const std::uint8_t> b) {
  const std::size_t limit = std::min(a.size(), b.size());
  std::size_t i = 0;
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

std::vector<std::uint8_t> slice(std::span<const std::uint8_t> nibbles,
                                std::size_t from) {
  return std::vector<std::uint8_t>(nibbles.begin() + static_cast<std::ptrdiff_t>(from),
                                   nibbles.end());
}

}  // namespace

void MerklePatriciaTrie::invalidate(Node& node) {
  if (!node.ref_valid) return;
  node.ref_valid = false;
  node.ref.clear();
  --cache_stats_.cached_refs;
}

// --- insert -----------------------------------------------------------------

MerklePatriciaTrie::NodePtr MerklePatriciaTrie::insert(
    NodePtr node, std::span<const std::uint8_t> nibbles, Bytes value,
    bool& inserted) {
  if (node == nullptr) {
    inserted = true;
    return Node::leaf(std::vector<std::uint8_t>(nibbles.begin(), nibbles.end()),
                      std::move(value));
  }
  // Every node on the descent path is (potentially) mutated; nodes hanging
  // off the path keep their memoized refs — that is the incremental win.
  invalidate(*node);

  switch (node->kind) {
    case Node::Kind::kLeaf: {
      const std::size_t shared = common_prefix(node->path, nibbles);
      if (shared == node->path.size() && shared == nibbles.size()) {
        node->value = std::move(value);  // overwrite
        return node;
      }
      // Split into a branch (possibly behind an extension for the shared
      // prefix).
      NodePtr branch = Node::branch();
      // Existing leaf's remainder.
      if (shared == node->path.size()) {
        branch->value = std::move(node->value);
        branch->has_value = true;
      } else {
        const std::uint8_t idx = node->path[shared];
        branch->children[idx] =
            Node::leaf(slice(node->path, shared + 1), std::move(node->value));
      }
      // New value's remainder.
      if (shared == nibbles.size()) {
        branch->value = std::move(value);
        branch->has_value = true;
      } else {
        const std::uint8_t idx = nibbles[shared];
        branch->children[idx] =
            Node::leaf(slice(nibbles, shared + 1), std::move(value));
      }
      inserted = true;
      if (shared == 0) return branch;
      return Node::extension(
          std::vector<std::uint8_t>(nibbles.begin(),
                                    nibbles.begin() + static_cast<std::ptrdiff_t>(shared)),
          std::move(branch));
    }

    case Node::Kind::kExtension: {
      const std::size_t shared = common_prefix(node->path, nibbles);
      if (shared == node->path.size()) {
        node->child = insert(std::move(node->child), nibbles.subspan(shared),
                             std::move(value), inserted);
        return node;
      }
      // Split the extension.
      NodePtr branch = Node::branch();
      {
        // Remainder of the existing extension path.
        const std::uint8_t idx = node->path[shared];
        std::vector<std::uint8_t> rest = slice(node->path, shared + 1);
        branch->children[idx] =
            rest.empty() ? std::move(node->child)
                         : Node::extension(std::move(rest), std::move(node->child));
      }
      if (shared == nibbles.size()) {
        branch->value = std::move(value);
        branch->has_value = true;
      } else {
        const std::uint8_t idx = nibbles[shared];
        branch->children[idx] =
            Node::leaf(slice(nibbles, shared + 1), std::move(value));
      }
      inserted = true;
      if (shared == 0) return branch;
      return Node::extension(
          std::vector<std::uint8_t>(nibbles.begin(),
                                    nibbles.begin() + static_cast<std::ptrdiff_t>(shared)),
          std::move(branch));
    }

    case Node::Kind::kBranch: {
      if (nibbles.empty()) {
        if (!node->has_value) inserted = true;
        node->value = std::move(value);
        node->has_value = true;
        return node;
      }
      const std::uint8_t idx = nibbles[0];
      node->children[idx] = insert(std::move(node->children[idx]),
                                   nibbles.subspan(1), std::move(value), inserted);
      return node;
    }
  }
  return node;  // unreachable
}

void MerklePatriciaTrie::put(BytesView key, Bytes value) {
  const auto nibbles = to_nibbles(key);
  bool inserted = false;
  root_ = insert(std::move(root_), nibbles, std::move(value), inserted);
  if (inserted) ++size_;
}

// --- lookup -----------------------------------------------------------------

const MerklePatriciaTrie::Node* MerklePatriciaTrie::lookup(
    const Node* node, std::span<const std::uint8_t> nibbles) {
  while (node != nullptr) {
    switch (node->kind) {
      case Node::Kind::kLeaf:
        return (nibbles.size() == node->path.size() &&
                std::equal(nibbles.begin(), nibbles.end(), node->path.begin()))
                   ? node
                   : nullptr;
      case Node::Kind::kExtension: {
        if (nibbles.size() < node->path.size() ||
            !std::equal(node->path.begin(), node->path.end(), nibbles.begin())) {
          return nullptr;
        }
        nibbles = nibbles.subspan(node->path.size());
        node = node->child.get();
        break;
      }
      case Node::Kind::kBranch: {
        if (nibbles.empty()) return node->has_value ? node : nullptr;
        node = node->children[nibbles[0]].get();
        nibbles = nibbles.subspan(1);
        break;
      }
    }
  }
  return nullptr;
}

std::optional<Bytes> MerklePatriciaTrie::get(BytesView key) const {
  const auto nibbles = to_nibbles(key);
  const Node* node = lookup(root_.get(), nibbles);
  if (node == nullptr) return std::nullopt;
  return node->value;
}

// --- erase ------------------------------------------------------------------

MerklePatriciaTrie::NodePtr MerklePatriciaTrie::normalize(NodePtr node) {
  if (node == nullptr || node->kind != Node::Kind::kBranch) return node;
  const std::size_t child_count = node->branch_child_count();
  if (node->has_value && child_count == 0) {
    // Branch degenerated into a value at this prefix: a leaf with empty path.
    return Node::leaf({}, std::move(node->value));
  }
  if (!node->has_value && child_count == 1) {
    // Single child: merge the branch nibble into the child's path.
    for (std::uint8_t i = 0; i < 16; ++i) {
      if (node->children[i] == nullptr) continue;
      NodePtr child = std::move(node->children[i]);
      switch (child->kind) {
        case Node::Kind::kLeaf:
        case Node::Kind::kExtension:
          invalidate(*child);  // path changes below
          child->path.insert(child->path.begin(), i);
          return child;
        case Node::Kind::kBranch:
          return Node::extension({i}, std::move(child));
      }
    }
  }
  if (!node->has_value && child_count == 0) return nullptr;
  return node;
}

MerklePatriciaTrie::NodePtr MerklePatriciaTrie::remove(
    NodePtr node, std::span<const std::uint8_t> nibbles, bool& removed) {
  if (node == nullptr) return nullptr;
  switch (node->kind) {
    case Node::Kind::kLeaf: {
      if (nibbles.size() == node->path.size() &&
          std::equal(nibbles.begin(), nibbles.end(), node->path.begin())) {
        invalidate(*node);
        removed = true;
        return nullptr;
      }
      return node;
    }
    case Node::Kind::kExtension: {
      if (nibbles.size() < node->path.size() ||
          !std::equal(node->path.begin(), node->path.end(), nibbles.begin())) {
        return node;
      }
      invalidate(*node);
      node->child = remove(std::move(node->child),
                           nibbles.subspan(node->path.size()), removed);
      if (node->child == nullptr) return nullptr;
      // Merge chained extensions / absorb leaf children.
      if (node->child->kind != Node::Kind::kBranch) {
        NodePtr child = std::move(node->child);
        invalidate(*child);  // path changes below
        child->path.insert(child->path.begin(), node->path.begin(),
                           node->path.end());
        return child;
      }
      return node;
    }
    case Node::Kind::kBranch: {
      invalidate(*node);
      if (nibbles.empty()) {
        if (node->has_value) {
          node->has_value = false;
          node->value.clear();
          removed = true;
        }
        return normalize(std::move(node));
      }
      const std::uint8_t idx = nibbles[0];
      node->children[idx] =
          remove(std::move(node->children[idx]), nibbles.subspan(1), removed);
      return normalize(std::move(node));
    }
  }
  return node;  // unreachable
}

void MerklePatriciaTrie::erase(BytesView key) {
  const auto nibbles = to_nibbles(key);
  bool removed = false;
  root_ = remove(std::move(root_), nibbles, removed);
  if (removed) --size_;
}

// --- hashing ----------------------------------------------------------------

Bytes MerklePatriciaTrie::encode(const Node& node) const {
  switch (node.kind) {
    case Node::Kind::kLeaf: {
      rlp::ListBuilder rlp;
      rlp.add_bytes(hex_prefix_encode(node.path, true));
      rlp.add_bytes(node.value);
      return rlp.build();
    }
    case Node::Kind::kExtension: {
      rlp::ListBuilder rlp;
      rlp.add_bytes(hex_prefix_encode(node.path, false));
      rlp.add_raw(child_ref(*node.child));
      return rlp.build();
    }
    case Node::Kind::kBranch: {
      rlp::ListBuilder rlp;
      for (const NodePtr& child : node.children) {
        if (child == nullptr) {
          rlp.add_bytes(BytesView{});
        } else {
          rlp.add_raw(child_ref(*child));
        }
      }
      rlp.add_bytes(node.has_value ? BytesView{node.value} : BytesView{});
      return rlp.build();
    }
  }
  return {};  // unreachable
}

Bytes MerklePatriciaTrie::child_ref(const Node& node) const {
  if (node.ref_valid) return node.ref;
  Bytes enc = encode(node);
  // Yellow paper appendix D: nodes whose encoding is shorter than 32 bytes
  // are embedded verbatim in the parent; longer ones by hash. A node
  // encoding is always an RLP list, so the two forms cannot collide with
  // each other inside the parent's item slots.
  if (enc.size() < 32) {
    node.ref = std::move(enc);
  } else {
    node.ref = rlp::encode_bytes(crypto::Keccak256::hash(enc).view());
  }
  node.ref_valid = true;
  ++cache_stats_.cached_refs;
  return node.ref;
}

Hash32 MerklePatriciaTrie::root_hash() const {
  if (root_ == nullptr) return empty_trie_root();
  // The root node itself is always hashed (TRIE(J) = KEC(c(J,0))), even when
  // its encoding is shorter than 32 bytes.
  return crypto::Keccak256::hash(encode(*root_));
}

namespace {

template <typename Key>
std::vector<Key> sorted_keys(const auto& map) {
  std::vector<Key> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace

Hash32 state_root_mpt_full(const StateDB& db) {
  MerklePatriciaTrie trie;
  Bytes leaf;
  for (const Address& addr : sorted_keys<Address>(db.accounts())) {
    const Account& account = db.accounts().at(addr);
    MerklePatriciaTrie storage;
    for (const Hash32& slot : sorted_keys<Hash32>(account.storage())) {
      storage.put(slot.view(), rlp::encode_u256(account.storage().at(slot)));
    }
    encode_account_leaf(account, storage.root_hash(), leaf);
    trie.put(addr.view(), leaf);
  }
  return trie.root_hash();
}

}  // namespace srbb::state
