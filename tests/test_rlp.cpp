#include "codec/rlp.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hpp"
#include "support/copying_decode.hpp"

namespace srbb::rlp {
namespace {

Bytes bytes_of(const std::string& s) {
  return Bytes{s.begin(), s.end()};
}

TEST(RlpEncode, EmptyString) {
  EXPECT_EQ(encode_bytes(BytesView{}), (Bytes{0x80}));
}

TEST(RlpEncode, SingleLowByteEncodesItself) {
  const Bytes in{0x42};
  EXPECT_EQ(encode_bytes(in), (Bytes{0x42}));
  const Bytes zero{0x00};
  EXPECT_EQ(encode_bytes(zero), (Bytes{0x00}));
}

TEST(RlpEncode, SingleHighByteGetsHeader) {
  const Bytes in{0x80};
  EXPECT_EQ(encode_bytes(in), (Bytes{0x81, 0x80}));
}

TEST(RlpEncode, ShortString) {
  // "dog" -> 0x83 'd' 'o' 'g' (yellow paper example)
  const Bytes dog = bytes_of("dog");
  EXPECT_EQ(encode_bytes(dog), (Bytes{0x83, 'd', 'o', 'g'}));
}

TEST(RlpEncode, LongStringHeader) {
  const Bytes in(56, 'x');
  const Bytes enc = encode_bytes(in);
  EXPECT_EQ(enc[0], 0xb8);
  EXPECT_EQ(enc[1], 56);
  EXPECT_EQ(enc.size(), 58u);
}

TEST(RlpEncode, Integers) {
  EXPECT_EQ(encode_u64(0), (Bytes{0x80}));  // zero is the empty string
  EXPECT_EQ(encode_u64(15), (Bytes{0x0f}));
  EXPECT_EQ(encode_u64(1024), (Bytes{0x82, 0x04, 0x00}));
}

TEST(RlpEncode, EmptyList) {
  EXPECT_EQ(encode_list({}), (Bytes{0xc0}));
}

TEST(RlpEncode, CatDogList) {
  // ["cat", "dog"] -> 0xc8 0x83 cat 0x83 dog
  const Bytes enc =
      encode_list({encode_bytes(bytes_of("cat")), encode_bytes(bytes_of("dog"))});
  EXPECT_EQ(enc[0], 0xc8);
  EXPECT_EQ(enc.size(), 9u);
}

TEST(RlpDecode, RoundTripStrings) {
  Rng rng{21};
  for (std::size_t len : {0u, 1u, 2u, 54u, 55u, 56u, 57u, 200u, 1000u, 70000u}) {
    Bytes payload(len);
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
    const Bytes enc = encode_bytes(payload);
    auto item = decode(enc);
    ASSERT_TRUE(item.is_ok()) << item.message();
    EXPECT_FALSE(item.value().is_list);
    EXPECT_EQ(item.value().payload, payload) << len;
  }
}

TEST(RlpDecode, RoundTripIntegers) {
  Rng rng{22};
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t v = rng.next_u64() >> (i % 64);
    auto item = decode(encode_u64(v));
    ASSERT_TRUE(item.is_ok());
    auto back = item.value().as_u64();
    ASSERT_TRUE(back.is_ok());
    EXPECT_EQ(back.value(), v);
  }
}

TEST(RlpDecode, RoundTripU256) {
  const U256 v = (U256::one() << 200) + U256{12345};
  auto item = decode(encode_u256(v));
  ASSERT_TRUE(item.is_ok());
  auto back = item.value().as_u256();
  ASSERT_TRUE(back.is_ok());
  EXPECT_EQ(back.value(), v);
}

TEST(RlpDecode, NestedLists) {
  // [[], [[]], "x"]
  ListBuilder inner_empty;
  ListBuilder inner_nested;
  inner_nested.add_raw(encode_list({}));
  ListBuilder outer;
  outer.add_raw(encode_list({}));
  outer.add_raw(inner_nested.build());
  outer.add_bytes(bytes_of("x"));
  auto item = decode(outer.build());
  ASSERT_TRUE(item.is_ok());
  const Item& root = item.value();
  ASSERT_TRUE(root.is_list);
  ASSERT_EQ(root.items.size(), 3u);
  EXPECT_TRUE(root.items[0].is_list);
  EXPECT_TRUE(root.items[0].items.empty());
  ASSERT_EQ(root.items[1].items.size(), 1u);
  EXPECT_TRUE(root.items[1].items[0].is_list);
  EXPECT_EQ(root.items[2].payload, bytes_of("x"));
}

TEST(RlpDecode, ListBuilderRoundTrip) {
  ListBuilder builder;
  builder.add_u64(7).add_bytes(bytes_of("hello")).add_u256(U256::max());
  auto item = decode(builder.build());
  ASSERT_TRUE(item.is_ok());
  ASSERT_EQ(item.value().items.size(), 3u);
  EXPECT_EQ(item.value().items[0].as_u64().value(), 7u);
  EXPECT_EQ(item.value().items[1].payload, bytes_of("hello"));
  EXPECT_EQ(item.value().items[2].as_u256().value(), U256::max());
}

TEST(RlpDecode, RejectsTruncated) {
  const Bytes enc = encode_bytes(bytes_of("hello world"));
  for (std::size_t cut = 1; cut < enc.size(); ++cut) {
    const Bytes prefix{enc.begin(), enc.begin() + static_cast<std::ptrdiff_t>(cut)};
    EXPECT_FALSE(decode(prefix).is_ok()) << cut;
  }
}

TEST(RlpDecode, RejectsTrailingBytes) {
  Bytes enc = encode_u64(5);
  enc.push_back(0x00);
  EXPECT_FALSE(decode(enc).is_ok());
}

TEST(RlpDecode, RejectsNonCanonicalSingleByte) {
  // 0x81 0x05 should have been encoded as plain 0x05.
  EXPECT_FALSE(decode(Bytes{0x81, 0x05}).is_ok());
}

TEST(RlpDecode, RejectsNonCanonicalLongForm) {
  // Long form (0xb8) for a 3-byte payload.
  EXPECT_FALSE(decode(Bytes{0xb8, 0x03, 'a', 'b', 'c'}).is_ok());
}

TEST(RlpDecode, RejectsLeadingZeroLength) {
  EXPECT_FALSE(decode(Bytes{0xb9, 0x00, 0x38}).is_ok());
}

TEST(RlpDecode, RejectsEmptyInput) {
  EXPECT_FALSE(decode(BytesView{}).is_ok());
}

TEST(RlpDecode, IntegerRejectsLeadingZero) {
  // 0x82 0x00 0x01 is a valid string but not a canonical integer.
  auto item = decode(Bytes{0x82, 0x00, 0x01});
  ASSERT_TRUE(item.is_ok());
  EXPECT_FALSE(item.value().as_u64().is_ok());
}

TEST(RlpDecode, IntegerRejectsList) {
  auto item = decode(encode_list({}));
  ASSERT_TRUE(item.is_ok());
  EXPECT_FALSE(item.value().as_u64().is_ok());
}

TEST(RlpDecode, IntegerRejectsTooWide) {
  Bytes payload(33, 0x01);
  auto item = decode(encode_bytes(payload));
  ASSERT_TRUE(item.is_ok());
  EXPECT_FALSE(item.value().as_u256().is_ok());
  // 9 bytes exceeds u64 but fits u256.
  Bytes nine(9, 0x01);
  auto item9 = decode(encode_bytes(nine));
  ASSERT_TRUE(item9.is_ok());
  EXPECT_FALSE(item9.value().as_u64().is_ok());
  EXPECT_TRUE(item9.value().as_u256().is_ok());
}

TEST(RlpDecode, DecodePrefixAdvances) {
  Bytes two = encode_u64(1);
  append(two, encode_u64(2));
  BytesView view{two};
  auto first = decode_prefix(view);
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().as_u64().value(), 1u);
  auto second = decode_prefix(view);
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().as_u64().value(), 2u);
  EXPECT_TRUE(view.empty());
}

TEST(RlpDecode, LargeListRoundTrip) {
  ListBuilder builder;
  for (std::uint64_t i = 0; i < 1000; ++i) builder.add_u64(i);
  auto item = decode(builder.build());
  ASSERT_TRUE(item.is_ok());
  ASSERT_EQ(item.value().items.size(), 1000u);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(item.value().items[i].as_u64().value(), i);
  }
}

}  // namespace
}  // namespace srbb::rlp
