#include "state/trie.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <new>
#include <utility>
#include <vector>

#include "common/invariant.hpp"
#include "common/thread_pool.hpp"
#include "crypto/keccak.hpp"

namespace srbb::state {

const Hash32& empty_trie_root() {
  static const Hash32 root = [] {
    const std::uint8_t empty_string = 0x80;  // rlp("")
    return crypto::Keccak256::hash(BytesView{&empty_string, 1});
  }();
  return root;
}

void LeanTrie::Nibbles::append(std::span<const std::uint8_t> more) {
  SRBB_CHECK(size + more.size() <= sizeof n);
  std::copy(more.begin(), more.end(), n + size);
  size += more.size();
}

namespace {

using Nibbles = LeanTrie::Nibbles;
using Slot = LeanTrie::Slot;
using NibbleView = std::span<const std::uint8_t>;

Nibbles nibbles_of(BytesView key) {
  SRBB_CHECK(key.size() <= LeanTrie::kMaxKeyBytes);
  Nibbles out;
  for (const std::uint8_t byte : key) {
    out.n[out.size++] = byte >> 4;
    out.n[out.size++] = byte & 0x0f;
  }
  return out;
}

std::uint8_t nibble_at(const std::uint8_t* packed, std::size_t i) {
  return i % 2 == 0 ? packed[i / 2] >> 4 : packed[i / 2] & 0x0f;
}

std::size_t packed_size(std::size_t nibbles) { return (nibbles + 1) / 2; }

void pack(NibbleView nibbles, std::uint8_t* out) {
  std::memset(out, 0, packed_size(nibbles.size()));
  for (std::size_t i = 0; i < nibbles.size(); ++i) {
    out[i / 2] = static_cast<std::uint8_t>(out[i / 2] |
                                           (i % 2 == 0 ? nibbles[i] << 4 : nibbles[i]));
  }
}

Nibbles unpack(const std::uint8_t* packed, std::size_t count) {
  Nibbles out;
  for (std::size_t i = 0; i < count; ++i) out.n[i] = nibble_at(packed, i);
  out.size = count;
  return out;
}

bool equal(NibbleView a, NibbleView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

Slot leaf_slot(NibbleView suffix) {
  Slot s{.leaf = true};
  s.suffix.append(suffix);
  return s;
}

/// The RLP item a parent embeds for a node: its encoding when shorter than
/// 32 bytes, else (len == 32) its Keccak hash.
struct Ref {
  std::uint8_t len = 0;  // 0 only as a branch's stale memo
  std::uint8_t bytes[32] = {};
};

Ref make_ref(BytesView encoding) {
  Ref ref;
  if (encoding.size() < 32) {
    ref.len = static_cast<std::uint8_t>(encoding.size());
    std::memcpy(ref.bytes, encoding.data(), encoding.size());
  } else {
    ref.len = 32;
    std::memcpy(ref.bytes, crypto::Keccak256::hash(encoding).data.data(), 32);
  }
  return ref;
}

}  // namespace

// One allocation per branch, this 40-byte header followed by
//   Branch* kids[popcount(mask & ~leaf_mask)]   branch children, by nibble
//   packed extension nibbles                    ceil(ext_len / 2) bytes
//   leaf records, by nibble                     [nibble count][packed suffix]
// so a leaf costs its key suffix and one length byte.
struct alignas(alignof(void*)) LeanTrie::Branch {
  std::uint16_t mask = 0;       // bit i: a child at nibble i
  std::uint16_t leaf_mask = 0;  // the children that are leaves
  std::uint8_t ext_len = 0;     // nibbles of the extension folded in front
  bool has_value = false;       // a key ends at this branch (value slot)
  Ref ref;                      // memo; the extension's ref when ext_len > 0
};
static_assert(sizeof(LeanTrie::Branch) == 40);

namespace {

using Branch = LeanTrie::Branch;

std::uint16_t bit_of(std::uint8_t nibble) {
  return static_cast<std::uint16_t>(1u << nibble);
}
unsigned kid_mask(const Branch* b) { return b->mask & ~b->leaf_mask & 0xffffu; }
Branch** kids(Branch* b) { return reinterpret_cast<Branch**>(b + 1); }
const std::uint8_t* ext_bytes(Branch* b) {
  return reinterpret_cast<const std::uint8_t*>(kids(b) +
                                               std::popcount(kid_mask(b)));
}
const std::uint8_t* leaf_records(Branch* b) {
  return ext_bytes(b) + packed_size(b->ext_len);
}
std::size_t record_size(const std::uint8_t* record) {
  return 1 + packed_size(record[0]);
}
Branch*& kid_at(Branch* b, std::uint8_t nibble) {
  return kids(b)[std::popcount(kid_mask(b) & (bit_of(nibble) - 1))];
}
const std::uint8_t* record_at(Branch* b, std::uint8_t nibble) {
  const std::uint8_t* record = leaf_records(b);
  const int before =
      std::popcount(static_cast<unsigned>(b->leaf_mask & (bit_of(nibble) - 1)));
  for (int i = 0; i < before; ++i) record += record_size(record);
  return record;
}

Slot slot_at(Branch* b, std::uint8_t nibble) {
  if ((b->mask & bit_of(nibble)) == 0) return Slot{};
  if ((b->leaf_mask & bit_of(nibble)) == 0) return Slot{.branch = kid_at(b, nibble)};
  const std::uint8_t* record = record_at(b, nibble);
  return Slot{.leaf = true, .suffix = unpack(record + 1, record[0])};
}

/// An unpacked, editable branch: structural edits decode the branch, change
/// the draft and encode a fresh allocation at the new size.
struct Draft {
  bool has_value = false;
  Nibbles ext;
  Slot slots[16];

  int entries() const {
    int count = has_value ? 1 : 0;
    for (const Slot& s : slots) count += s.branch != nullptr || s.leaf ? 1 : 0;
    return count;
  }
  /// Adds a key ending `key` nibbles below this branch's extension.
  void add(NibbleView key) {
    if (key.empty()) {
      has_value = true;
    } else {
      slots[key[0]] = leaf_slot(key.subspan(1));
    }
  }
};

Draft decode(Branch* b) {
  Draft d;
  d.has_value = b->has_value;
  d.ext = unpack(ext_bytes(b), b->ext_len);
  for (std::uint8_t i = 0; i < 16; ++i) d.slots[i] = slot_at(b, i);
  return d;
}

Branch* encode(const Draft& d) {
  Branch header{.ext_len = static_cast<std::uint8_t>(d.ext.size),
                .has_value = d.has_value};
  std::size_t bytes = sizeof(Branch) + packed_size(d.ext.size);
  for (std::uint8_t i = 0; i < 16; ++i) {
    const Slot& s = d.slots[i];
    if (s.branch != nullptr) bytes += sizeof(Branch*);
    if (s.leaf) bytes += 1 + packed_size(s.suffix.size);
    if (s.branch != nullptr || s.leaf) header.mask |= bit_of(i);
    if (s.leaf) header.leaf_mask |= bit_of(i);
  }
  auto* b = new (::operator new(bytes)) Branch{header};
  Branch** kid = kids(b);
  for (const Slot& s : d.slots) {
    if (s.branch != nullptr) *kid++ = s.branch;
  }
  auto* out = reinterpret_cast<std::uint8_t*>(kid);
  pack(d.ext.view(), out);
  out += packed_size(d.ext.size);
  for (const Slot& s : d.slots) {
    if (!s.leaf) continue;
    *out++ = static_cast<std::uint8_t>(s.suffix.size);
    pack(s.suffix.view(), out);
    out += packed_size(s.suffix.size);
  }
  return b;
}

void release(Branch* b) { ::operator delete(b); }

void destroy(Branch* b) {
  if (b == nullptr) return;
  for (int i = 0; i < std::popcount(kid_mask(b)); ++i) destroy(kids(b)[i]);
  release(b);
}

// `key` is the nibble path below the slot holding `s`; insert() and remove()
// return what the slot holds afterwards.
Slot insert(const Slot& s, NibbleView key) {
  if (s.branch == nullptr) {
    if (!s.leaf || equal(s.suffix.view(), key)) return leaf_slot(key);
    // Two keys: a branch behind their common prefix.
    const NibbleView other = s.suffix.view();
    const auto shared = static_cast<std::size_t>(
        std::mismatch(other.begin(), other.end(), key.begin(), key.end()).first -
        other.begin());
    Draft d;
    d.ext.append(key.first(shared));
    d.add(other.subspan(shared));
    d.add(key.subspan(shared));
    return Slot{.branch = encode(d)};
  }
  Branch* b = s.branch;
  b->ref.len = 0;  // the path changes, or the value under `key` does
  const Nibbles ext = unpack(ext_bytes(b), b->ext_len);
  const auto shared = static_cast<std::size_t>(
      std::mismatch(ext.n, ext.n + ext.size, key.begin(), key.end()).first - ext.n);
  if (shared < ext.size) {
    // The key leaves the extension part-way: split it there.
    Draft lower = decode(b);
    release(b);
    lower.ext = Nibbles{};
    lower.ext.append(ext.view().subspan(shared + 1));
    Draft top;
    top.ext.append(ext.view().first(shared));
    top.slots[ext.n[shared]].branch = encode(lower);
    top.add(key.subspan(shared));
    return Slot{.branch = encode(top)};
  }
  const NibbleView rest = key.subspan(ext.size);
  if (rest.empty()) {
    b->has_value = true;
    return s;
  }
  const Slot before = slot_at(b, rest[0]);
  const Slot after = insert(before, rest.subspan(1));
  if (before.leaf && after.leaf) return s;  // the key was there already
  if (before.branch != nullptr) {
    kid_at(b, rest[0]) = after.branch;  // a branch stays a branch
    return s;
  }
  Draft d = decode(b);
  release(b);
  d.slots[rest[0]] = after;
  return Slot{.branch = encode(d)};
}

/// Normalizes a draft that lost an entry: a branch left with one entry
/// merges into the slot above it.
Slot collapse(const Draft& d) {
  if (d.entries() >= 2) return Slot{.branch = encode(d)};
  Slot out = leaf_slot(d.ext.view());  // a key ending here ends at the slot
  if (d.has_value) return out;
  for (std::uint8_t i = 0; i < 16; ++i) {
    const Slot& only = d.slots[i];
    if (only.branch == nullptr && !only.leaf) continue;
    out.suffix.append(NibbleView{&i, 1});
    if (only.leaf) {
      out.suffix.append(only.suffix.view());
      return out;
    }
    // Fold the extension and nibble into the child branch's extension.
    Draft child = decode(only.branch);
    release(only.branch);
    out.suffix.append(child.ext.view());
    child.ext = out.suffix;
    return Slot{.branch = encode(child)};
  }
  return Slot{};
}

Slot remove(const Slot& s, NibbleView key, bool& removed) {
  if (s.branch == nullptr) {
    if (!s.leaf || !equal(s.suffix.view(), key)) return s;
    removed = true;
    return Slot{};
  }
  Branch* b = s.branch;
  const Nibbles ext = unpack(ext_bytes(b), b->ext_len);
  if (key.size() < ext.size || !std::equal(ext.n, ext.n + ext.size, key.begin())) {
    return s;
  }
  const NibbleView rest = key.subspan(ext.size);
  Draft d;
  if (rest.empty()) {
    if (!b->has_value) return s;
    removed = true;
    d = decode(b);
    d.has_value = false;
  } else {
    const Slot after = remove(slot_at(b, rest[0]), rest.subspan(1), removed);
    if (!removed) return s;
    b->ref.len = 0;
    if (after.branch != nullptr) {
      kid_at(b, rest[0]) = after.branch;  // a branch below stays a branch
      return s;
    }
    d = decode(b);
    d.slots[rest[0]] = after;
  }
  release(b);
  return collapse(d);
}

/// keys[lo, hi) are sorted, distinct and share their first `depth` nibbles.
Slot build_range(std::span<const BytesView> keys, std::size_t lo,
                 std::size_t hi, std::size_t depth) {
  if (hi - lo == 1) return leaf_slot(nibbles_of(keys[lo]).view().subspan(depth));
  // Sorted keys: the range's common prefix is that of its first and last.
  const Nibbles first = nibbles_of(keys[lo]);
  const Nibbles last = nibbles_of(keys[hi - 1]);
  std::size_t pos = depth;
  while (pos < first.size && pos < last.size && first.n[pos] == last.n[pos]) ++pos;
  Draft d;
  d.ext.append(first.view().subspan(depth, pos - depth));
  std::size_t i = lo;
  if (first.size == pos) {
    d.has_value = true;  // a key that is a prefix of the others sorts first
    ++i;
  }
  while (i < hi) {
    const std::uint8_t at = nibble_at(keys[i].data(), pos);
    std::size_t j = i + 1;
    while (j < hi && nibble_at(keys[j].data(), pos) == at) ++j;
    d.slots[at] = build_range(keys, i, j, pos + 1);
    i = j;
  }
  return Slot{.branch = encode(d)};
}

// --- hashing ----------------------------------------------------------------

/// Appends an RLP header: `base` + length for payloads under 56 bytes, else
/// `base` + 55 + the length's byte count, then the length.
void put_header(Bytes& out, std::uint8_t base, std::size_t size) {
  SRBB_CHECK(size < 65536);
  if (size < 56) {
    out.push_back(static_cast<std::uint8_t>(base + size));
  } else if (size < 256) {
    out.insert(out.end(), {static_cast<std::uint8_t>(base + 56),
                           static_cast<std::uint8_t>(size)});
  } else {
    out.insert(out.end(), {static_cast<std::uint8_t>(base + 57),
                           static_cast<std::uint8_t>(size >> 8),
                           static_cast<std::uint8_t>(size)});
  }
}

void put_string(Bytes& out, BytesView s) {
  if (s.size() != 1 || s[0] >= 0x80) put_header(out, 0x80, s.size());
  out.insert(out.end(), s.begin(), s.end());
}

/// Writes the RLP list with the given payload to `out`.
BytesView as_list(const Bytes& payload, Bytes& out) {
  out.clear();
  put_header(out, 0xc0, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void put_ref(Bytes& out, const Ref& ref) {
  if (ref.len == 32) out.push_back(0x80 + 32);
  out.insert(out.end(), ref.bytes, ref.bytes + ref.len);
}

/// Hex-prefix encoding (yellow paper appendix C) of a packed nibble string,
/// as an RLP string item.
void put_hex_prefix(Bytes& out, const std::uint8_t* packed, std::size_t count,
                    bool leaf) {
  std::uint8_t hp[1 + LeanTrie::kMaxKeyBytes] = {};
  const bool odd = count % 2 == 1;
  const int flag = (leaf ? 2 : 0) | (odd ? 1 : 0);
  hp[0] = static_cast<std::uint8_t>(flag << 4 | (odd ? nibble_at(packed, 0) : 0));
  std::size_t size = 1;
  for (std::size_t i = odd ? 1 : 0; i < count; i += 2) {
    hp[size++] = static_cast<std::uint8_t>(nibble_at(packed, i) << 4 |
                                           nibble_at(packed, i + 1));
  }
  put_string(out, BytesView{hp, size});
}

/// Re-encodes stale branches. One per thread: it owns the path buffer and
/// the scratch encodings.
class Hasher {
 public:
  explicit Hasher(const TrieValues& values) : values_(values) {}

  std::uint8_t* path() { return path_; }

  /// Refreshes b's memo; path()[0, depth) is the path to b's slot.
  void refresh(Branch* b, std::size_t depth) {
    if (b->ref.len != 0) return;
    const std::uint8_t* ext = ext_bytes(b);
    for (std::size_t i = 0; i < b->ext_len; ++i) path_[depth + i] = nibble_at(ext, i);
    const std::size_t at = depth + b->ext_len;
    for (std::uint8_t i = 0; i < 16; ++i) {
      if ((kid_mask(b) & bit_of(i)) == 0) continue;
      path_[at] = i;
      refresh(kid_at(b, i), at + 1);
    }
    node_.clear();
    const std::uint8_t* record = leaf_records(b);
    for (std::uint8_t i = 0; i < 16; ++i) {
      if ((b->mask & bit_of(i)) == 0) {
        node_.push_back(0x80);
      } else if ((b->leaf_mask & bit_of(i)) != 0) {
        path_[at] = i;
        put_ref(node_, make_ref(leaf_encoding(at + 1, record + 1, record[0])));
        record += record_size(record);
      } else {
        put_ref(node_, kid_at(b, i)->ref);
      }
    }
    if (b->has_value) {
      read_value(at);
      put_string(node_, value_);
    } else {
      node_.push_back(0x80);
    }
    Ref ref = make_ref(as_list(node_, encoding_));
    if (b->ext_len > 0) {
      node_.clear();
      put_hex_prefix(node_, ext, b->ext_len, false);
      put_ref(node_, ref);
      ref = make_ref(as_list(node_, encoding_));
    }
    b->ref = ref;
  }

  /// rlp([hp(suffix, leaf), value]) for the leaf whose packed suffix of
  /// `len` nibbles starts at path()[depth].
  BytesView leaf_encoding(std::size_t depth, const std::uint8_t* suffix,
                          std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) path_[depth + i] = nibble_at(suffix, i);
    read_value(depth + len);
    leaf_.clear();
    put_hex_prefix(leaf_, suffix, len, true);
    put_string(leaf_, value_);
    return as_list(leaf_, leaf_encoding_);
  }

 private:
  /// value_ = the value under the key spelled by path()[0, nibbles).
  void read_value(std::size_t nibbles) {
    SRBB_CHECK(nibbles % 2 == 0);
    std::uint8_t key[LeanTrie::kMaxKeyBytes] = {};
    pack(NibbleView{path_, nibbles}, key);
    values_.value(BytesView{key, nibbles / 2}, value_);
  }

  const TrieValues& values_;
  std::uint8_t path_[2 * LeanTrie::kMaxKeyBytes] = {};
  Bytes value_, node_, encoding_, leaf_, leaf_encoding_;
};

}  // namespace

LeanTrie::~LeanTrie() { destroy(root_.branch); }

LeanTrie::LeanTrie(LeanTrie&& other) noexcept { *this = std::move(other); }

LeanTrie& LeanTrie::operator=(LeanTrie&& other) noexcept {
  if (this == &other) return *this;
  destroy(root_.branch);
  root_ = std::exchange(other.root_, Slot{});
  touched_ = std::exchange(other.touched_, 0);
  return *this;
}

void LeanTrie::build(std::span<const BytesView> keys) {
  for (std::size_t i = 1; i < keys.size(); ++i) {
    SRBB_CHECK(std::lexicographical_compare(keys[i - 1].begin(), keys[i - 1].end(),
                                            keys[i].begin(), keys[i].end()));
  }
  destroy(root_.branch);
  root_ = keys.empty() ? Slot{} : build_range(keys, 0, keys.size(), 0);
  touched_ = keys.size();
}

void LeanTrie::put(BytesView key) {
  ++touched_;
  root_ = insert(root_, nibbles_of(key).view());
}

void LeanTrie::erase(BytesView key) {
  ++touched_;
  bool removed = false;
  root_ = remove(root_, nibbles_of(key).view(), removed);
}

Hash32 LeanTrie::root_hash(const TrieValues& values) {
  const std::size_t touched = std::exchange(touched_, 0);
  Hasher hasher{values};
  Branch* top = root_.branch;
  if (top == nullptr) {
    if (!root_.leaf) return empty_trie_root();
    // The root node is always hashed (TRIE(J) = KEC(c(J, 0))), even when its
    // encoding is shorter than 32 bytes.
    std::uint8_t suffix[kMaxKeyBytes] = {};
    pack(root_.suffix.view(), suffix);
    return crypto::Keccak256::hash(
        hasher.leaf_encoding(0, suffix, root_.suffix.size));
  }
  if (touched >= kParallelRehashKeys && top->ref.len == 0) {
    // The subtries under the top branch are disjoint: re-hash the stale ones
    // on the pool, then encode the top branch over their fresh memos.
    std::vector<std::uint8_t> stale;
    for (std::uint8_t i = 0; i < 16; ++i) {
      if ((kid_mask(top) & bit_of(i)) != 0 && kid_at(top, i)->ref.len == 0) {
        stale.push_back(i);
      }
    }
    shared_pool().parallel_for(stale.size(), [&](std::size_t t) {
      Hasher local{values};
      const std::uint8_t* ext = ext_bytes(top);
      for (std::size_t i = 0; i < top->ext_len; ++i) local.path()[i] = nibble_at(ext, i);
      local.path()[top->ext_len] = stale[t];
      local.refresh(kid_at(top, stale[t]), top->ext_len + 1u);
    });
  }
  hasher.refresh(top, 0);
  if (top->ref.len == 32) return Hash32{BytesView{top->ref.bytes, 32}};
  return crypto::Keccak256::hash(BytesView{top->ref.bytes, top->ref.len});
}

}  // namespace srbb::state
