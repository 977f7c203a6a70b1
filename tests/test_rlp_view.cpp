// Differential and lifetime tests for the zero-copy RLP decoder: decode_view
// must accept exactly what decode accepts, report identical error strings,
// produce an identical tree, and hand out views that alias the wire buffer
// instead of copying it.
#include "codec/rlp.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "support/copying_decode.hpp"

namespace srbb::rlp {
namespace {

Bytes bytes_of(const std::string& s) { return Bytes{s.begin(), s.end()}; }

// Structural equality of a copying Item and a materialized view tree.
void expect_same_tree(const Item& a, const Item& b, const std::string& where) {
  ASSERT_EQ(a.is_list, b.is_list) << where;
  EXPECT_EQ(a.payload, b.payload) << where;
  ASSERT_EQ(a.items.size(), b.items.size()) << where;
  for (std::size_t i = 0; i < a.items.size(); ++i) {
    expect_same_tree(a.items[i], b.items[i],
                     where + "[" + std::to_string(i) + "]");
  }
}

// Both decoders over the same wire bytes: same verdict, same error string,
// same tree.
void expect_differential(BytesView wire) {
  const auto copied = decode(wire);
  ViewDoc doc;
  const auto viewed = decode_view(wire, doc);
  ASSERT_EQ(copied.is_ok(), viewed.is_ok());
  if (!copied.is_ok()) {
    EXPECT_EQ(copied.status().message(), viewed.status().message());
    return;
  }
  expect_same_tree(copied.value(), materialize(viewed.value()), "root");
}

TEST(RlpView, MatchesCopyingDecoderOnValidInputs) {
  expect_differential(encode_bytes(BytesView{}));
  expect_differential(encode_bytes(bytes_of("dog")));
  expect_differential(encode_bytes(Bytes(1000, 0xab)));
  expect_differential(encode_u64(0));
  expect_differential(encode_u64(0xdeadbeef));
  expect_differential(encode_list({}));
  expect_differential(encode_list({encode_bytes(bytes_of("cat")),
                                   encode_list({encode_u64(7)}),
                                   encode_bytes(BytesView{})}));
  // Deeply nested but within the cap.
  Bytes nested = encode_bytes(bytes_of("x"));
  for (int i = 0; i < 100; ++i) nested = encode_list({nested});
  expect_differential(nested);
}

TEST(RlpView, MatchesCopyingDecoderOnMalformedInputs) {
  expect_differential(BytesView{});                       // empty input
  expect_differential(Bytes{0x81, 0x05});                 // non-canonical single byte
  expect_differential(Bytes{0x83, 'd', 'o'});             // truncated string
  expect_differential(Bytes{0xb8});                       // truncated length
  expect_differential(Bytes{0xb8, 0x01, 0x61});           // non-canonical long form
  expect_differential(Bytes{0xb8, 0x00});                 // leading zero length
  expect_differential(Bytes{0xc2, 0x81});                 // truncated inside list body
  expect_differential(Bytes{0xc1, 0xc2, 0x00});           // child overruns body
  expect_differential(Bytes{0x00, 0x00});                 // trailing bytes
  Bytes deep;
  for (int i = 0; i < 600; ++i) deep.push_back(0xc1);     // nesting too deep
  deep.push_back(0x00);
  expect_differential(deep);
}

TEST(RlpView, RandomizedDifferential) {
  Rng rng{0x5eedbeef};
  for (int round = 0; round < 2000; ++round) {
    const std::size_t len = rng.next_range(0, 40);
    Bytes wire(len);
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng.next_range(0, 255));
    // Bias toward valid-ish prefixes so both branches get exercised.
    if (!wire.empty() && round % 2 == 0) {
      wire[0] = static_cast<std::uint8_t>(0xc0 + (wire.size() - 1));
    }
    expect_differential(wire);
  }
}

TEST(RlpView, PayloadsAliasTheWireBuffer) {
  const Bytes wire = encode_list(
      {encode_bytes(bytes_of("hello")), encode_bytes(Bytes(60, 0x7e))});
  ViewDoc doc;
  const auto root = decode_view(wire, doc);
  ASSERT_TRUE(root.is_ok());
  const ItemView list = root.value();
  ASSERT_TRUE(list.is_list());
  ASSERT_EQ(list.size(), 2u);
  for (std::size_t i = 0; i < list.size(); ++i) {
    const BytesView payload = list.child(i).payload();
    EXPECT_GE(payload.data(), wire.data());
    EXPECT_LE(payload.data() + payload.size(), wire.data() + wire.size());
  }
  // The list body is the wire slice between the header and the end.
  const BytesView body = list.list_body();
  EXPECT_EQ(body.data() + body.size(), wire.data() + wire.size());
}

TEST(RlpView, IntegerAccessorsMatchItem) {
  const Bytes wire = encode_list({encode_u64(0), encode_u64(77),
                                  encode_u256(U256::max()),
                                  encode_bytes(Bytes{0x00, 0x01}),
                                  encode_list({})});
  const auto copied = decode(wire);
  ViewDoc doc;
  const auto viewed = decode_view(wire, doc);
  ASSERT_TRUE(copied.is_ok());
  ASSERT_TRUE(viewed.is_ok());
  for (std::size_t i = 0; i < copied.value().items.size(); ++i) {
    const auto a64 = copied.value().items[i].as_u64();
    const auto b64 = viewed.value().child(i).as_u64();
    ASSERT_EQ(a64.is_ok(), b64.is_ok()) << i;
    if (a64.is_ok()) {
      EXPECT_EQ(a64.value(), b64.value()) << i;
    } else {
      EXPECT_EQ(a64.status().message(), b64.status().message()) << i;
    }
    const auto a256 = copied.value().items[i].as_u256();
    const auto b256 = viewed.value().child(i).as_u256();
    ASSERT_EQ(a256.is_ok(), b256.is_ok()) << i;
    if (a256.is_ok()) {
      EXPECT_EQ(a256.value(), b256.value()) << i;
    }
  }
}

TEST(RlpView, ArenaReuseAcrossFrames) {
  ViewDoc doc;
  const Bytes big = encode_list({encode_bytes(Bytes(100, 1)),
                                 encode_list({encode_u64(1), encode_u64(2)}),
                                 encode_bytes(bytes_of("tail"))});
  ASSERT_TRUE(decode_view(big, doc).is_ok());
  const std::size_t nodes_big = doc.node_count();
  EXPECT_EQ(nodes_big, 6u);  // list + string + inner list + 2 ints + string

  // A smaller frame reuses the arena; node count reflects the new frame only.
  const Bytes small = encode_bytes(bytes_of("x"));
  const auto root = decode_view(small, doc);
  ASSERT_TRUE(root.is_ok());
  EXPECT_EQ(doc.node_count(), 1u);
  EXPECT_EQ(root.value().payload().size(), 1u);

  // A failed decode leaves the doc reusable.
  EXPECT_FALSE(decode_view(Bytes{0x83, 'd'}, doc).is_ok());
  ASSERT_TRUE(decode_view(big, doc).is_ok());
  EXPECT_EQ(doc.node_count(), nodes_big);
}

TEST(RlpView, SiblingWalkMatchesIndexedAccess) {
  std::vector<Bytes> encoded;
  for (std::uint64_t i = 0; i < 30; ++i) encoded.push_back(encode_u64(i * 3));
  const Bytes wire = encode_list(encoded);
  ViewDoc doc;
  const auto root = decode_view(wire, doc);
  ASSERT_TRUE(root.is_ok());
  ItemView walker = root.value().child(0);
  for (std::size_t i = 0; i < root.value().size(); ++i) {
    EXPECT_EQ(walker.as_u64().value(), i * 3);
    EXPECT_EQ(walker.as_u64().value(), root.value().child(i).as_u64().value());
    walker = walker.next_sibling();
  }
}

}  // namespace
}  // namespace srbb::rlp
