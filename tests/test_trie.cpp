// The value-storing reference trie (tests/support) against yellow-paper and
// Ethereum vectors, and the program's key-only LeanTrie against both.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "state/trie.hpp"
#include "support/reference_trie.hpp"

namespace srbb::state {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes{s.begin(), s.end()}; }

TEST(HexPrefix, YellowPaperExamples) {
  // Even extension: [1,2,3,4,5] is odd -> 0x11 0x23 0x45.
  const std::vector<std::uint8_t> odd{1, 2, 3, 4, 5};
  EXPECT_EQ(hex_prefix_encode(odd, false), (Bytes{0x11, 0x23, 0x45}));
  // Even extension: [0,1,2,3,4,5] -> 0x00 0x01 0x23 0x45.
  const std::vector<std::uint8_t> even{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(hex_prefix_encode(even, false), (Bytes{0x00, 0x01, 0x23, 0x45}));
  // Leaf with odd path [15,1,12,11,8] -> 0x3f 0x1c 0xb8.
  const std::vector<std::uint8_t> leaf_odd{0x0f, 1, 0x0c, 0x0b, 8};
  EXPECT_EQ(hex_prefix_encode(leaf_odd, true), (Bytes{0x3f, 0x1c, 0xb8}));
  // Leaf with even path [0,15,1,12,11,8] -> 0x20 0x0f 0x1c 0xb8.
  const std::vector<std::uint8_t> leaf_even{0, 0x0f, 1, 0x0c, 0x0b, 8};
  EXPECT_EQ(hex_prefix_encode(leaf_even, true),
            (Bytes{0x20, 0x0f, 0x1c, 0xb8}));
}

TEST(Nibbles, RoundTripExpansion) {
  const Bytes key{0xAB, 0xCD};
  const auto nibbles = to_nibbles(key);
  EXPECT_EQ(nibbles, (std::vector<std::uint8_t>{0xA, 0xB, 0xC, 0xD}));
}

TEST(Trie, EmptyBasics) {
  MerklePatriciaTrie trie;
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.size(), 0u);
  EXPECT_FALSE(trie.get(bytes_of("missing")).has_value());
  // Canonical empty root is stable.
  EXPECT_EQ(MerklePatriciaTrie{}.root_hash(), trie.root_hash());
}

TEST(Trie, PutGetSingle) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("dog"), bytes_of("puppy"));
  EXPECT_EQ(trie.size(), 1u);
  ASSERT_TRUE(trie.get(bytes_of("dog")).has_value());
  EXPECT_EQ(*trie.get(bytes_of("dog")), bytes_of("puppy"));
  EXPECT_FALSE(trie.get(bytes_of("do")).has_value());
  EXPECT_FALSE(trie.get(bytes_of("dogs")).has_value());
}

TEST(Trie, OverwriteKeepsSize) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("k"), bytes_of("v1"));
  trie.put(bytes_of("k"), bytes_of("v2"));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.get(bytes_of("k")), bytes_of("v2"));
}

TEST(Trie, PrefixKeysCoexist) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("do"), bytes_of("verb"));
  trie.put(bytes_of("dog"), bytes_of("puppy"));
  trie.put(bytes_of("doge"), bytes_of("coin"));
  trie.put(bytes_of("horse"), bytes_of("stallion"));
  EXPECT_EQ(trie.size(), 4u);
  EXPECT_EQ(*trie.get(bytes_of("do")), bytes_of("verb"));
  EXPECT_EQ(*trie.get(bytes_of("dog")), bytes_of("puppy"));
  EXPECT_EQ(*trie.get(bytes_of("doge")), bytes_of("coin"));
  EXPECT_EQ(*trie.get(bytes_of("horse")), bytes_of("stallion"));
}

TEST(Trie, EmptyValueIsPresent) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("k"), Bytes{});
  ASSERT_TRUE(trie.get(bytes_of("k")).has_value());
  EXPECT_TRUE(trie.get(bytes_of("k"))->empty());
}

TEST(Trie, EmptyKeySupported) {
  MerklePatriciaTrie trie;
  trie.put(BytesView{}, bytes_of("root-value"));
  trie.put(bytes_of("a"), bytes_of("x"));
  EXPECT_EQ(*trie.get(BytesView{}), bytes_of("root-value"));
  EXPECT_EQ(*trie.get(bytes_of("a")), bytes_of("x"));
  trie.erase(BytesView{});
  EXPECT_FALSE(trie.get(BytesView{}).has_value());
  EXPECT_EQ(*trie.get(bytes_of("a")), bytes_of("x"));
}

TEST(Trie, EraseCollapsesNodes) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("dog"), bytes_of("1"));
  trie.put(bytes_of("dot"), bytes_of("2"));
  const Hash32 with_both = trie.root_hash();
  trie.put(bytes_of("dove"), bytes_of("3"));
  trie.erase(bytes_of("dove"));
  // Removing the third key must collapse back to the two-key structure.
  EXPECT_EQ(trie.root_hash(), with_both);
  trie.erase(bytes_of("dot"));
  trie.erase(bytes_of("dog"));
  EXPECT_TRUE(trie.empty());
  EXPECT_EQ(trie.root_hash(), MerklePatriciaTrie{}.root_hash());
}

TEST(Trie, EraseMissingIsNoop) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("a"), bytes_of("1"));
  const Hash32 root = trie.root_hash();
  trie.erase(bytes_of("b"));
  trie.erase(bytes_of("aa"));
  EXPECT_EQ(trie.root_hash(), root);
  EXPECT_EQ(trie.size(), 1u);
}

TEST(Trie, RootIndependentOfInsertionOrder) {
  MerklePatriciaTrie forward;
  MerklePatriciaTrie backward;
  std::vector<std::pair<std::string, std::string>> kvs = {
      {"alpha", "1"}, {"beta", "2"}, {"al", "3"}, {"alphabet", "4"},
      {"b", "5"},     {"", "6"},     {"gamma", "7"}};
  for (const auto& [k, v] : kvs) forward.put(bytes_of(k), bytes_of(v));
  for (auto it = kvs.rbegin(); it != kvs.rend(); ++it) {
    backward.put(bytes_of(it->first), bytes_of(it->second));
  }
  EXPECT_EQ(forward.root_hash(), backward.root_hash());
}

TEST(Trie, RootSensitiveToValues) {
  MerklePatriciaTrie a;
  MerklePatriciaTrie b;
  a.put(bytes_of("key"), bytes_of("value-1"));
  b.put(bytes_of("key"), bytes_of("value-2"));
  EXPECT_NE(a.root_hash(), b.root_hash());
}

TEST(Trie, RootSensitiveToKeys) {
  MerklePatriciaTrie a;
  MerklePatriciaTrie b;
  a.put(bytes_of("key1"), bytes_of("v"));
  b.put(bytes_of("key2"), bytes_of("v"));
  EXPECT_NE(a.root_hash(), b.root_hash());
}

// Property test: the trie agrees with std::map under a long random
// put/get/erase workload, and the root only depends on contents.
class TrieRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TrieRandomOps, MatchesReferenceMap) {
  Rng rng{GetParam()};
  MerklePatriciaTrie trie;
  std::map<Bytes, Bytes> reference;

  const auto random_key = [&rng] {
    // Short keys collide on prefixes often, stressing branch/extension
    // handling.
    const std::size_t len = rng.next_below(5);
    Bytes key(len);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(4));
    return key;
  };

  for (int step = 0; step < 3000; ++step) {
    const Bytes key = random_key();
    const std::uint64_t action = rng.next_below(10);
    if (action < 6) {
      Bytes value(rng.next_below(8));
      for (auto& b : value) b = static_cast<std::uint8_t>(rng.next_u64());
      trie.put(key, value);
      reference[key] = value;
    } else if (action < 9) {
      trie.erase(key);
      reference.erase(key);
    } else {
      const auto got = trie.get(key);
      const auto it = reference.find(key);
      if (it == reference.end()) {
        EXPECT_FALSE(got.has_value());
      } else {
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(*got, it->second);
      }
    }
    EXPECT_EQ(trie.size(), reference.size());
  }

  // Full sweep at the end.
  for (const auto& [key, value] : reference) {
    const auto got = trie.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }

  // Rebuild from scratch in sorted order: same root.
  MerklePatriciaTrie rebuilt;
  for (const auto& [key, value] : reference) rebuilt.put(key, value);
  EXPECT_EQ(rebuilt.root_hash(), trie.root_hash());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrieRandomOps,
                         ::testing::Values(1ull, 2ull, 3ull, 7ull, 99ull));

TEST(Trie, LargeSequentialKeys) {
  MerklePatriciaTrie trie;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    Bytes key(4);
    put_be32(key.data(), i);
    trie.put(key, key);
  }
  EXPECT_EQ(trie.size(), 2000u);
  for (std::uint32_t i = 0; i < 2000; i += 97) {
    Bytes key(4);
    put_be32(key.data(), i);
    ASSERT_TRUE(trie.get(key).has_value());
    EXPECT_EQ(*trie.get(key), key);
  }
  // Erase half, verify the rest intact.
  for (std::uint32_t i = 0; i < 2000; i += 2) {
    Bytes key(4);
    put_be32(key.data(), i);
    trie.erase(key);
  }
  EXPECT_EQ(trie.size(), 1000u);
  for (std::uint32_t i = 1; i < 2000; i += 2) {
    Bytes key(4);
    put_be32(key.data(), i);
    EXPECT_TRUE(trie.get(key).has_value()) << i;
  }
}

TEST(Trie, MoveSemantics) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("a"), bytes_of("1"));
  MerklePatriciaTrie moved = std::move(trie);
  EXPECT_EQ(*moved.get(bytes_of("a")), bytes_of("1"));
}

// --- Known Ethereum roots ---------------------------------------------------
//
// With yellow-paper child inlining (nodes whose RLP encoding is shorter than
// 32 bytes embed verbatim in their parent), the trie is byte-compatible with
// Ethereum's unsecured trie. These vectors pin well-known roots from the
// ethereum/tests trie suite; a divergence means the node encoding regressed.

Hash32 pinned(const std::string& hex) {
  const auto raw = from_hex(hex);
  EXPECT_TRUE(raw.has_value() && raw->size() == Hash32::size());
  return Hash32{BytesView{*raw}};
}

TEST(TrieEthereumVectors, EmptyTrieRoot) {
  // keccak256(rlp("")) — the canonical empty sentinel.
  EXPECT_EQ(
      MerklePatriciaTrie{}.root_hash(),
      pinned("56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"));
  EXPECT_EQ(empty_trie_root(),
            MerklePatriciaTrie{}.root_hash());
}

TEST(TrieEthereumVectors, DogePuzzle) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("do"), bytes_of("verb"));
  trie.put(bytes_of("dog"), bytes_of("puppy"));
  trie.put(bytes_of("doge"), bytes_of("coin"));
  trie.put(bytes_of("horse"), bytes_of("stallion"));
  EXPECT_EQ(
      trie.root_hash(),
      pinned("5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"));
}

TEST(TrieEthereumVectors, FooFood) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("foo"), bytes_of("bar"));
  trie.put(bytes_of("food"), bytes_of("bass"));
  EXPECT_EQ(
      trie.root_hash(),
      pinned("17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3"));
}

TEST(TrieEthereumVectors, DeletionRestoresPinnedRoot) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("foo"), bytes_of("bar"));
  trie.put(bytes_of("food"), bytes_of("bass"));
  trie.put(bytes_of("fob"), bytes_of("x"));
  trie.erase(bytes_of("fob"));
  EXPECT_EQ(
      trie.root_hash(),
      pinned("17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3"));
  trie.erase(bytes_of("foo"));
  trie.erase(bytes_of("food"));
  EXPECT_EQ(trie.root_hash(), empty_trie_root());
}

// --- Incremental hashing ----------------------------------------------------

// Interleaving root_hash() calls with mutations exercises the memoized-ref
// path (later calls reuse refs of untouched subtrees); the root must always
// equal a from-scratch rebuild of the same contents.
TEST_P(TrieRandomOps, IncrementalRootMatchesRebuild) {
  Rng rng{GetParam() ^ 0x1c0de5ull};
  MerklePatriciaTrie trie;
  std::map<Bytes, Bytes> reference;
  for (int step = 0; step < 600; ++step) {
    const std::size_t len = rng.next_below(5);
    Bytes key(len);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(4));
    if (rng.next_below(10) < 7) {
      Bytes value(1 + rng.next_below(8));
      for (auto& b : value) b = static_cast<std::uint8_t>(rng.next_u64());
      trie.put(key, value);
      reference[key] = value;
    } else {
      trie.erase(key);
      reference.erase(key);
    }
    if (step % 37 == 0) {
      MerklePatriciaTrie rebuilt;
      for (const auto& [k, v] : reference) rebuilt.put(k, v);
      ASSERT_EQ(trie.root_hash(), rebuilt.root_hash()) << "step " << step;
    }
  }
}

TEST(TrieNodeCache, RefsAccumulateAndInvalidate) {
  MerklePatriciaTrie trie;
  trie.put(bytes_of("do"), bytes_of("verb"));
  trie.put(bytes_of("dog"), bytes_of("puppy"));
  trie.put(bytes_of("doge"), bytes_of("coin"));
  EXPECT_EQ(trie.cache_stats().cached_refs, 0u);  // nothing hashed yet
  const Hash32 root = trie.root_hash();
  const std::size_t warm = trie.cache_stats().cached_refs;
  EXPECT_GT(warm, 0u);
  // A repeat hash touches nothing new.
  EXPECT_EQ(trie.root_hash(), root);
  EXPECT_EQ(trie.cache_stats().cached_refs, warm);
  // A mutation invalidates only the touched path, and re-hashing re-warms.
  trie.put(bytes_of("doge"), bytes_of("memecoin"));
  EXPECT_LT(trie.cache_stats().cached_refs, warm);
  trie.root_hash();
  EXPECT_GE(trie.cache_stats().cached_refs, warm);
}

// --- the program's key-only trie -------------------------------------------

/// Values for a LeanTrie from a map, mirrored into a reference trie.
class MapValues final : public TrieValues {
 public:
  void put(const Bytes& key, const Bytes& value) {
    values_[key] = value;
    trie_.put(key);
    reference_.put(key, value);
  }
  void erase(const Bytes& key) {
    values_.erase(key);
    trie_.erase(key);
    reference_.erase(key);
  }
  void value(BytesView key, Bytes& out) const override {
    out = values_.at(Bytes{key.begin(), key.end()});
  }
  Hash32 root() { return trie_.root_hash(*this); }
  Hash32 reference_root() const { return reference_.root_hash(); }
  /// A fresh LeanTrie built from the sorted keys.
  Hash32 built_root() const {
    std::vector<BytesView> keys;
    for (const auto& [key, value] : values_) keys.emplace_back(key);
    LeanTrie built;
    built.build(keys);
    return built.root_hash(*this);
  }
  LeanTrie& trie() { return trie_; }

 private:
  std::map<Bytes, Bytes> values_;
  LeanTrie trie_;
  MerklePatriciaTrie reference_;
};

TEST(LeanTrieEthereumVectors, DogePuzzle) {
  MapValues m;
  m.put(bytes_of("do"), bytes_of("verb"));
  m.put(bytes_of("dog"), bytes_of("puppy"));
  m.put(bytes_of("doge"), bytes_of("coin"));
  m.put(bytes_of("horse"), bytes_of("stallion"));
  const Hash32 want =
      pinned("5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84");
  EXPECT_EQ(m.root(), want);
  EXPECT_EQ(m.built_root(), want);
}

TEST(LeanTrieEthereumVectors, FooFood) {
  MapValues m;
  m.put(bytes_of("foo"), bytes_of("bar"));
  m.put(bytes_of("food"), bytes_of("bass"));
  const Hash32 want =
      pinned("17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3");
  EXPECT_EQ(m.root(), want);
  EXPECT_EQ(m.built_root(), want);
}

TEST(LeanTrieEthereumVectors, DeletionRestoresPinnedRoot) {
  MapValues m;
  m.put(bytes_of("foo"), bytes_of("bar"));
  m.put(bytes_of("food"), bytes_of("bass"));
  m.put(bytes_of("fob"), bytes_of("x"));
  m.root();  // memoize, so the erase below must invalidate
  m.erase(bytes_of("fob"));
  EXPECT_EQ(
      m.root(),
      pinned("17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3"));
  m.erase(bytes_of("foo"));
  m.erase(bytes_of("food"));
  EXPECT_TRUE(m.trie().empty());
  EXPECT_EQ(m.root(), empty_trie_root());
}

// Short keys over a 4-symbol alphabet: prefixes of each other (branch
// values), long shared extensions, splits and collapses at every depth.
class LeanTrieRandomOps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LeanTrieRandomOps, MatchesReferenceAndBuild) {
  Rng rng{GetParam()};
  MapValues m;
  for (int step = 0; step < 2000; ++step) {
    Bytes key(rng.next_below(6));
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(4) * 0x11);
    if (rng.next_below(10) < 6) {
      Bytes value(1 + rng.next_below(40));
      for (auto& b : value) b = static_cast<std::uint8_t>(rng.next_u64());
      m.put(key, value);
    } else {
      m.erase(key);
    }
    if (step % 23 == 0) {
      ASSERT_EQ(m.root(), m.reference_root()) << "step " << step;
    }
  }
  EXPECT_EQ(m.root(), m.reference_root());
  EXPECT_EQ(m.built_root(), m.reference_root());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LeanTrieRandomOps,
                         ::testing::Values(1ull, 2ull, 3ull, 7ull, 99ull));

// Enough touched keys that root_hash() re-hashes the top subtries on the
// shared pool; the root must not depend on it.
TEST(LeanTrie, ParallelRehashMatchesReference) {
  Rng rng{2024};
  MapValues m;
  std::vector<Bytes> keys;
  const auto value = [&rng] {
    Bytes v(1 + rng.next_below(70));
    for (auto& b : v) b = static_cast<std::uint8_t>(rng.next_u64());
    return v;
  };
  for (int i = 0; i < 4000; ++i) {
    Bytes key(20);
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_u64());
    keys.push_back(key);
    m.put(key, value());
  }
  ASSERT_EQ(m.root(), m.reference_root());
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < LeanTrie::kParallelRehashKeys; ++i) {
      const Bytes& key = keys[rng.next_below(keys.size())];
      if (rng.next_below(4) == 0) {
        m.erase(key);
      } else {
        m.put(key, value());
      }
    }
    ASSERT_EQ(m.root(), m.reference_root()) << "round " << round;
  }
}

}  // namespace
}  // namespace srbb::state
