#include "crypto/signature.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "crypto/batch.hpp"

namespace srbb::crypto {

// Prints the scheme's name so the listed test names do not carry the
// scheme's address, which moves with every load of the binary. Found by
// argument-dependent lookup, so it lives in the scheme's namespace.
static void PrintTo(const SignatureScheme* scheme, std::ostream* os) {
  *os << scheme->name();
}

namespace {

BytesView sv(const std::string& s) {
  return BytesView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

class SchemeTest : public ::testing::TestWithParam<const SignatureScheme*> {};

TEST_P(SchemeTest, RoundTrip) {
  const SignatureScheme& scheme = *GetParam();
  const Identity id = scheme.make_identity(7);
  const Signature sig = scheme.sign(id, sv("hello srbb"));
  EXPECT_TRUE(scheme.verify(sv("hello srbb"), sig, id.public_key));
}

TEST_P(SchemeTest, TamperFails) {
  const SignatureScheme& scheme = *GetParam();
  const Identity id = scheme.make_identity(8);
  const Signature sig = scheme.sign(id, sv("payload"));
  EXPECT_FALSE(scheme.verify(sv("payloae"), sig, id.public_key));
}

TEST_P(SchemeTest, WrongKeyFails) {
  const SignatureScheme& scheme = *GetParam();
  const Identity a = scheme.make_identity(9);
  const Identity b = scheme.make_identity(10);
  const Signature sig = scheme.sign(a, sv("m"));
  EXPECT_FALSE(scheme.verify(sv("m"), sig, b.public_key));
}

TEST_P(SchemeTest, IdentitiesAreDeterministic) {
  const SignatureScheme& scheme = *GetParam();
  EXPECT_EQ(scheme.make_identity(3).public_key,
            scheme.make_identity(3).public_key);
  EXPECT_NE(scheme.make_identity(3).public_key,
            scheme.make_identity(4).public_key);
}

TEST_P(SchemeTest, AddressStableAndDistinct) {
  const SignatureScheme& scheme = *GetParam();
  const Identity a = scheme.make_identity(1);
  const Identity b = scheme.make_identity(2);
  EXPECT_EQ(a.address(), scheme.make_identity(1).address());
  EXPECT_NE(a.address(), b.address());
  EXPECT_FALSE(a.address().is_zero());
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeTest,
                         ::testing::Values(&SignatureScheme::ed25519(),
                                           &SignatureScheme::fast_sim()),
                         [](const auto& info) {
                           return std::string(info.param->name()) == "ed25519"
                                      ? "Ed25519"
                                      : "FastSim";
                         });

TEST(SchemeNames, AreDistinct) {
  EXPECT_STRNE(SignatureScheme::ed25519().name(),
               SignatureScheme::fast_sim().name());
}

TEST(BatchVerify, MatchesSequentialAndFlagsBadItems) {
  const auto& scheme = SignatureScheme::ed25519();
  ThreadPool pool{4};
  std::vector<Bytes> messages;  // items hold views; the buffers live here
  messages.reserve(40);
  std::vector<BatchVerifyItem> items;
  for (std::uint64_t i = 0; i < 40; ++i) {
    const Identity id = scheme.make_identity(i);
    messages.push_back(Bytes{static_cast<std::uint8_t>(i)});
    BatchVerifyItem item;
    item.message = BytesView{messages.back()};
    item.signature = scheme.sign(id, item.message);
    item.public_key = id.public_key;
    if (i % 7 == 3) item.signature[2] ^= 1;  // corrupt some
    items.push_back(item);
  }
  const auto parallel = verify_batch(scheme, items, &pool);
  const auto sequential = batch_verify_sequential(scheme, items);
  ASSERT_EQ(parallel.size(), items.size());
  EXPECT_EQ(parallel, sequential);
  for (std::size_t i = 0; i < items.size(); ++i) {
    EXPECT_EQ(parallel[i], i % 7 != 3) << i;
  }
}

TEST(BatchVerify, EmptyBatch) {
  ThreadPool pool{2};
  EXPECT_TRUE(verify_batch(SignatureScheme::fast_sim(), {}, &pool).empty());
}

TEST(FastSim, NotInteroperableWithEd25519) {
  const Identity id = SignatureScheme::fast_sim().make_identity(5);
  const Signature sig = SignatureScheme::fast_sim().sign(id, sv("x"));
  EXPECT_FALSE(SignatureScheme::ed25519().verify(sv("x"), sig, id.public_key));
}

}  // namespace
}  // namespace srbb::crypto
