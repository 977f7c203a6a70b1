// Randomized robustness tests: hostile inputs must produce clean errors,
// never crashes, hangs or resource blowups. These are the paths a Byzantine
// peer controls (wire bytes, bytecode inside deployments).
#include <gtest/gtest.h>

#include <memory>

#include "codec/rlp.hpp"
#include "common/rng.hpp"
#include "evm/interpreter.hpp"
#include "evm/opcodes.hpp"
#include "support/copying_decode.hpp"
#include "txn/block.hpp"
#include "txn/transaction.hpp"

namespace srbb {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.next_below(max_len));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

class FuzzSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeeds, RlpDecodeNeverCrashesAndRoundTrips) {
  Rng rng{GetParam()};
  for (int i = 0; i < 2000; ++i) {
    const Bytes input = random_bytes(rng, 64);
    auto item = rlp::decode(input);
    if (!item.is_ok()) continue;
    // Anything that decodes must re-encode to the identical canonical bytes.
    std::function<Bytes(const rlp::Item&)> reencode =
        [&](const rlp::Item& node) -> Bytes {
      if (!node.is_list) return rlp::encode_bytes(node.payload);
      std::vector<Bytes> parts;
      for (const rlp::Item& child : node.items) parts.push_back(reencode(child));
      return rlp::encode_list(parts);
    };
    EXPECT_EQ(reencode(item.value()), input);
  }
}

TEST_P(FuzzSeeds, TransactionDecodeNeverCrashes) {
  Rng rng{GetParam()};
  for (int i = 0; i < 1000; ++i) {
    const Bytes input = random_bytes(rng, 300);
    (void)txn::Transaction::decode(input);  // must not crash or leak
  }
  // Mutations of a valid transaction: decode either fails or yields a
  // transaction whose signature no longer verifies (unless untouched).
  const auto& scheme = crypto::SignatureScheme::ed25519();
  txn::TxParams params;
  params.gas_limit = 30'000;
  const txn::Transaction tx =
      txn::make_signed(params, scheme.make_identity(1), scheme);
  const Bytes wire = tx.encode();
  for (int i = 0; i < 200; ++i) {
    Bytes mutated = wire;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1 + rng.next_below(255));
    auto decoded = txn::Transaction::decode(mutated);
    if (!decoded.is_ok()) continue;
    if (decoded.value() == tx) continue;  // mutation hit redundant encoding
    EXPECT_FALSE(verify_signature(decoded.value(), scheme));
  }
}

TEST_P(FuzzSeeds, BlockDecodeNeverCrashes) {
  Rng rng{GetParam()};
  for (int i = 0; i < 500; ++i) {
    (void)txn::decode_block(random_bytes(rng, 400));
  }
}

TEST_P(FuzzSeeds, RandomBytecodeTerminatesCleanly) {
  Rng rng{GetParam()};
  state::StateDB db;
  Address contract;
  contract[19] = 0xFC;
  Address caller;
  caller[19] = 0xCA;
  db.add_balance(caller, U256{1'000'000});
  for (int i = 0; i < 300; ++i) {
    const Bytes code = random_bytes(rng, 200);
    db.set_code(contract, code);
    evm::Evm evm{db, {}, {}};
    evm::Message msg;
    msg.caller = caller;
    msg.to = contract;
    msg.gas = 100'000;
    msg.data = random_bytes(rng, 64);
    const evm::ExecResult result = evm.execute(msg);
    // Whatever happened, gas cannot be created.
    EXPECT_LE(result.gas_left, 100'000u);
  }
}

TEST_P(FuzzSeeds, RandomValidOpcodeSoupTerminates) {
  // Bias toward defined opcodes so deeper interpreter paths are reached.
  Rng rng{GetParam() ^ 0xBEEF};
  std::vector<std::uint8_t> defined;
  for (int op = 0; op < 256; ++op) {
    if (evm::opcode_info(static_cast<std::uint8_t>(op)).defined) {
      defined.push_back(static_cast<std::uint8_t>(op));
    }
  }
  state::StateDB db;
  Address contract;
  contract[19] = 0xFD;
  for (int i = 0; i < 300; ++i) {
    Bytes code(rng.next_below(300));
    for (auto& b : code) b = defined[rng.next_below(defined.size())];
    db.set_code(contract, code);
    evm::Evm evm{db, {}, {}};
    evm::Message msg;
    msg.to = contract;
    msg.gas = 200'000;
    const evm::ExecResult result = evm.execute(msg);
    EXPECT_LE(result.gas_left, 200'000u);
    db.commit();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeeds,
                         ::testing::Values(101ull, 202ull, 303ull));

// ---------------------------------------------------------------------------
// Deterministic edge cases promoted from fuzzing (see fuzz/corpus/).
// ---------------------------------------------------------------------------

Bytes nested_list(std::size_t depth) {
  // `depth` single-element lists wrapped around an empty list, with correct
  // length headers at every level. Built outside-in from precomputed sizes
  // so generating a 100k-deep frame stays linear.
  std::vector<std::size_t> sizes(depth + 1);
  sizes[0] = 1;  // 0xc0
  for (std::size_t k = 1; k <= depth; ++k) {
    const std::size_t inner = sizes[k - 1];
    std::size_t header = 1;
    if (inner > 55) {
      for (std::size_t v = inner; v != 0; v >>= 8) ++header;
    }
    sizes[k] = header + inner;
  }
  Bytes wire;
  wire.reserve(sizes[depth]);
  for (std::size_t k = depth; k >= 1; --k) {
    const std::size_t inner = sizes[k - 1];
    if (inner <= 55) {
      wire.push_back(static_cast<std::uint8_t>(0xc0 + inner));
    } else {
      Bytes be;
      for (std::size_t v = inner; v != 0; v >>= 8) {
        be.insert(be.begin(), static_cast<std::uint8_t>(v & 0xff));
      }
      wire.push_back(static_cast<std::uint8_t>(0xf7 + be.size()));
      wire.insert(wire.end(), be.begin(), be.end());
    }
  }
  wire.push_back(0xc0);
  return wire;
}

TEST(FuzzRegression, RlpNestingWithinCapRoundTrips) {
  for (const std::size_t depth : {0u, 1u, 64u, 500u}) {
    const Bytes wire = nested_list(depth);
    auto item = rlp::decode(wire);
    ASSERT_TRUE(item.is_ok()) << "depth " << depth;
    // Walk back down: each level must be a single-element list.
    const rlp::Item* node = &item.value();
    for (std::size_t level = 0; level < depth; ++level) {
      ASSERT_TRUE(node->is_list);
      ASSERT_EQ(node->items.size(), 1u);
      node = &node->items[0];
    }
    EXPECT_TRUE(node->is_list);
    EXPECT_TRUE(node->items.empty());
  }
}

TEST(FuzzRegression, RlpNestingBeyondCapFailsCleanly) {
  // Regression: before the 512-level cap, ~100KB of 0xc1 prefixes drove the
  // recursive decoder into stack overflow — a remotely triggerable validator
  // crash from a single hostile message.
  EXPECT_FALSE(rlp::decode(nested_list(600)).is_ok());
  EXPECT_FALSE(rlp::decode(nested_list(100'000)).is_ok());
}

txn::Block indexed_block(std::uint64_t index, std::uint64_t proposer_id) {
  const crypto::Identity proposer = scheme().make_identity(proposer_id);
  txn::TxParams params;
  params.nonce = proposer_id;
  auto tx = txn::make_tx_ptr(
      txn::make_signed(params, scheme().make_identity(7), scheme()));
  return txn::make_block(index, proposer_id, 1234, Hash32{}, {tx}, proposer,
                         scheme());
}

TEST(FuzzRegression, SuperblockRoundTrips) {
  std::vector<txn::BlockPtr> blocks;
  blocks.push_back(std::make_shared<txn::Block>(indexed_block(5, 1)));
  blocks.push_back(std::make_shared<txn::Block>(indexed_block(5, 2)));
  const Bytes wire = txn::encode_superblock(5, blocks);
  auto decoded = txn::decode_superblock(wire);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().index, 5u);
  ASSERT_EQ(decoded.value().blocks.size(), 2u);
  EXPECT_EQ(decoded.value().blocks[0]->hash(), blocks[0]->hash());
  EXPECT_EQ(decoded.value().blocks[1]->hash(), blocks[1]->hash());
}

TEST(FuzzRegression, SuperblockIndexMismatchRejected) {
  std::vector<txn::BlockPtr> blocks;
  blocks.push_back(std::make_shared<txn::Block>(indexed_block(5, 1)));
  const Bytes wire = txn::encode_superblock(7, blocks);  // frame says 7
  EXPECT_FALSE(txn::decode_superblock(wire).is_ok());
}

TEST(FuzzRegression, TruncatedSuperblockFramesFailCleanly) {
  std::vector<txn::BlockPtr> blocks;
  blocks.push_back(std::make_shared<txn::Block>(indexed_block(9, 1)));
  blocks.push_back(std::make_shared<txn::Block>(indexed_block(9, 2)));
  const Bytes wire = txn::encode_superblock(9, blocks);
  // Every strict prefix of a valid frame must fail (lengths are explicit in
  // RLP, so no prefix of a well-formed frame is itself well-formed)...
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const BytesView prefix{wire.data(), len};
    EXPECT_FALSE(txn::decode_superblock(prefix).is_ok()) << "prefix " << len;
  }
  // ...and so must trailing garbage (strict decode consumes exactly the
  // frame).
  Bytes padded = wire;
  padded.push_back(0x00);
  EXPECT_FALSE(txn::decode_superblock(padded).is_ok());
}

}  // namespace
}  // namespace srbb
