#include "crypto/keccak.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hpp"
#include "support/keccak_reference.hpp"

namespace srbb::crypto {
namespace {

BytesView sv(const std::string& s) {
  return BytesView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

// Known answers for Keccak-256 (original padding, as used by Ethereum).
TEST(Keccak256, EmptyString) {
  EXPECT_EQ(Keccak256::hash(BytesView{}).hex(),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak256, Abc) {
  EXPECT_EQ(Keccak256::hash(sv("abc")).hex(),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256, HelloEthereumStyle) {
  // keccak256("hello") — widely used in Solidity documentation.
  EXPECT_EQ(Keccak256::hash(sv("hello")).hex(),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
}

TEST(Keccak256, TransferSignature) {
  // The canonical ERC-20 event id: keccak256("Transfer(address,address,uint256)").
  EXPECT_EQ(Keccak256::hash(sv("Transfer(address,address,uint256)")).hex(),
            "ddf252ad1be2c89b69c2b068fc378daa952ba7f163c4a11628f55a4df523b3ef");
}

TEST(Keccak256, IncrementalMatchesOneShot) {
  const std::string msg(500, 'e');
  Keccak256 k;
  k.update(sv(msg.substr(0, 135)));
  k.update(sv(msg.substr(135, 2)));
  k.update(sv(msg.substr(137)));
  EXPECT_EQ(k.finish(), Keccak256::hash(sv(msg)));
}

TEST(Keccak256, RateBoundaryLengths) {
  // Lengths straddling the 136-byte rate.
  for (std::size_t len : {135u, 136u, 137u, 271u, 272u, 273u}) {
    const std::string msg(len, 'r');
    Keccak256 k;
    k.update(sv(msg));
    EXPECT_EQ(k.finish(), Keccak256::hash(sv(msg))) << len;
  }
}

TEST(Keccak256, DistinctInputsDistinctDigests) {
  EXPECT_NE(Keccak256::hash(sv("a")), Keccak256::hash(sv("b")));
  EXPECT_NE(Keccak256::hash(sv("")), Keccak256::hash(sv(std::string("\x00", 1))));
}

// The straight-line permutation against the loop reference, at every length
// through eight rate blocks (every padding position, including the one where
// the 0x01 and 0x80 pad bytes share the last byte of a block).
TEST(Keccak256, MatchesReferenceAtEveryLengthTo1100) {
  Rng rng{1100};
  Bytes data(1100);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const BytesView prefix{data.data(), len};
    ASSERT_EQ(Keccak256::hash(prefix), keccak256_reference(prefix)) << len;
  }
}

TEST(Keccak256, RandomUpdateSplitsMatchReference) {
  Rng rng{532};
  for (int trial = 0; trial < 300; ++trial) {
    Bytes data(rng.next_below(700));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng.next_u64());
    Keccak256 k;
    std::size_t offset = 0;
    while (offset < data.size()) {
      const std::size_t take = std::min<std::size_t>(
          data.size() - offset, rng.next_below(300));
      k.update(BytesView{data.data() + offset, take});
      offset += take;
    }
    ASSERT_EQ(k.finish(), keccak256_reference(data))
        << "trial " << trial << " length " << data.size();
  }
}

TEST(AddressDerivation, Last20BytesOfKeccak) {
  const std::string pubkey(32, 'p');
  const Hash32 h = Keccak256::hash(sv(pubkey));
  const Address a = address_from_pubkey(sv(pubkey));
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a[i], h[12 + i]);
}

TEST(AddressDerivation, DifferentKeysDifferentAddresses) {
  EXPECT_NE(address_from_pubkey(sv(std::string(32, 'a'))),
            address_from_pubkey(sv(std::string(32, 'b'))));
}

}  // namespace
}  // namespace srbb::crypto
