// Tests of Alg. 2 and Theorem 1: the proposer of a block with an invalid
// transaction ends at deposit 0 and is excluded; correct validators are
// never slashed; rewards R = I - C accrue only at the n-f threshold;
// duplicate invocations and forged certificates are rejected.
#include "rpm/rpm.hpp"

#include <gtest/gtest.h>

#include "txn/block.hpp"

namespace srbb::rpm {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

struct Fixture {
  RpmConfig config;
  RewardPenaltyMechanism rpm;
  std::vector<crypto::Identity> validators;

  Fixture() : config{make_config()}, rpm{config} {
    for (std::uint64_t i = 0; i < config.n; ++i) {
      validators.push_back(scheme().make_identity(i));
      rpm.register_validator(validators.back().address(), U256{1'000'000'000});
    }
  }

  static RpmConfig make_config() {
    RpmConfig c;
    c.n = 4;
    c.f = 1;
    c.block_reward = U256{1000};
    c.validation_cost_per_tx = U256{10};
    return c;
  }

  Address addr(std::size_t i) const { return validators[i].address(); }

  /// A block summary with `tx_count` transactions signed by validator `i`.
  BlockSummary summary(std::size_t proposer, std::uint32_t tx_count,
                       U256 fees, std::vector<Hash32>* leaves_out = nullptr) {
    std::vector<Hash32> leaves;
    for (std::uint32_t t = 0; t < tx_count; ++t) {
      Hash32 leaf;
      put_be64(leaf.data.data(), 1000 * proposer + t);
      leaves.push_back(leaf);
    }
    BlockSummary s;
    s.proposer_pubkey = validators[proposer].public_key;
    s.tx_root = crypto::merkle_root(leaves);
    s.signed_tx_root = scheme().sign(validators[proposer], s.tx_root.view());
    s.tx_count = tx_count;
    s.total_fees = fees;
    if (leaves_out) *leaves_out = leaves;
    return s;
  }
};

TEST(RpmReward, PaysAtThreshold) {
  Fixture f;
  const BlockSummary block = f.summary(0, 5, U256{200});
  const U256 before = f.rpm.deposit_of(f.addr(0));
  // n-f = 3 distinct invocations required.
  EXPECT_TRUE(f.rpm.prop_received(f.addr(1), block, 0, 1));
  EXPECT_EQ(f.rpm.deposit_of(f.addr(0)), before);
  EXPECT_TRUE(f.rpm.prop_received(f.addr(2), block, 0, 1));
  EXPECT_EQ(f.rpm.deposit_of(f.addr(0)), before);
  EXPECT_TRUE(f.rpm.prop_received(f.addr(3), block, 0, 1));
  // R = I - C = (1000 + 200) - 10*5 = 1150.
  EXPECT_EQ(f.rpm.deposit_of(f.addr(0)), before + U256{1150});
  EXPECT_EQ(f.rpm.total_rewards_paid(), U256{1150});
}

TEST(RpmReward, DuplicateInvocationDoesNotCount) {
  Fixture f;
  const BlockSummary block = f.summary(0, 1, U256{0});
  EXPECT_TRUE(f.rpm.prop_received(f.addr(1), block, 0, 1));
  EXPECT_FALSE(f.rpm.prop_received(f.addr(1), block, 0, 1));  // Alg. 2 line 11
  EXPECT_TRUE(f.rpm.prop_received(f.addr(2), block, 0, 1));
  EXPECT_EQ(f.rpm.deposit_of(f.addr(0)), U256{1'000'000'000});  // still 2 < 3
}

TEST(RpmReward, RewardPaidOnlyOnce) {
  Fixture f;
  const BlockSummary block = f.summary(0, 0, U256{0});
  for (std::size_t i = 0; i < 4; ++i) {
    f.rpm.prop_received(f.addr(i), block, 0, 1);
  }
  // 4th invocation past the threshold must not double-pay.
  EXPECT_EQ(f.rpm.deposit_of(f.addr(0)), U256{1'000'000'000} + U256{1000});
}

TEST(RpmReward, DistinctRoundsRewardSeparately) {
  Fixture f;
  const BlockSummary block = f.summary(0, 0, U256{0});
  for (std::size_t i = 1; i < 4; ++i) f.rpm.prop_received(f.addr(i), block, 0, 1);
  for (std::size_t i = 1; i < 4; ++i) f.rpm.prop_received(f.addr(i), block, 0, 2);
  EXPECT_EQ(f.rpm.deposit_of(f.addr(0)),
            U256{1'000'000'000} + U256{2000});
}

TEST(RpmReward, NonValidatorCertificateRejected) {
  Fixture f;
  // Certificate from an identity outside V (Alg. 2 line 16).
  const crypto::Identity stranger = scheme().make_identity(99);
  BlockSummary block;
  block.proposer_pubkey = stranger.public_key;
  Hash32 root;
  block.tx_root = root;
  block.signed_tx_root = scheme().sign(stranger, root.view());
  EXPECT_FALSE(f.rpm.prop_received(f.addr(1), block, 0, 1));
}

TEST(RpmReward, BadSignatureRejected) {
  Fixture f;
  BlockSummary block = f.summary(0, 1, U256{0});
  block.signed_tx_root[7] ^= 1;  // hash(T) != recovered h_t (Alg. 2 line 20)
  EXPECT_FALSE(f.rpm.prop_received(f.addr(1), block, 0, 1));
}

TEST(RpmReward, NonValidatorCallerIgnored) {
  Fixture f;
  const BlockSummary block = f.summary(0, 1, U256{0});
  EXPECT_FALSE(f.rpm.prop_received(scheme().make_identity(55).address(),
                                   block, 0, 1));
}

TEST(RpmPenalty, Theorem1ByzantineLosesEntireDeposit) {
  Fixture f;
  // Validator 3 proposed a block containing an invalid transaction; its
  // deposit had grown by an earlier reward (D' = D + I - C').
  std::vector<Hash32> leaves;
  const BlockSummary bad_block = f.summary(3, 4, U256{100}, &leaves);
  for (std::size_t i = 0; i < 3; ++i) {
    f.rpm.prop_received(f.addr(i), bad_block, 2, 9);
  }
  const U256 grown = f.rpm.deposit_of(f.addr(3));
  EXPECT_GT(grown, U256{1'000'000'000});

  // Three validators report leaf[2] as invalid, with a Merkle proof.
  const crypto::MerkleProof proof = crypto::merkle_prove(leaves, 2);
  EXPECT_FALSE(f.rpm.report(f.addr(0), bad_block, 7, leaves[2], proof)
                   .has_value());
  EXPECT_FALSE(f.rpm.report(f.addr(1), bad_block, 7, leaves[2], proof)
                   .has_value());
  const auto slash = f.rpm.report(f.addr(2), bad_block, 7, leaves[2], proof);
  ASSERT_TRUE(slash.has_value());
  EXPECT_EQ(slash->validator, f.addr(3));
  EXPECT_EQ(slash->penalty, grown);

  // D_end = 0 (Theorem 1) and the validator is excluded.
  EXPECT_EQ(f.rpm.deposit_of(f.addr(3)), U256::zero());
  EXPECT_TRUE(f.rpm.is_excluded(f.addr(3)));

  // The penalty is distributed among the other |V|-1 validators.
  const U256 share = grown / U256{3};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(f.rpm.deposit_of(f.addr(i)), U256{1'000'000'000} + share);
  }
  ASSERT_EQ(f.rpm.slash_events().size(), 1u);
}

TEST(RpmPenalty, FalseReportOutsideBlockRejected) {
  Fixture f;
  std::vector<Hash32> leaves;
  const BlockSummary block = f.summary(0, 3, U256{0}, &leaves);
  Hash32 foreign;
  foreign[0] = 0xAB;
  const crypto::MerkleProof proof = crypto::merkle_prove(leaves, 0);
  // t not in T (Alg. 2 line 32): proof does not bind `foreign` to tx_root.
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_FALSE(f.rpm.report(f.addr(i), block, 1, foreign, proof).has_value());
  }
  EXPECT_EQ(f.rpm.deposit_of(f.addr(0)), U256{1'000'000'000});
  EXPECT_FALSE(f.rpm.is_excluded(f.addr(0)));
}

TEST(RpmPenalty, DuplicateReportsDoNotReachThreshold) {
  Fixture f;
  std::vector<Hash32> leaves;
  const BlockSummary block = f.summary(0, 2, U256{0}, &leaves);
  const crypto::MerkleProof proof = crypto::merkle_prove(leaves, 0);
  for (int repeat = 0; repeat < 5; ++repeat) {
    EXPECT_FALSE(
        f.rpm.report(f.addr(1), block, 1, leaves[0], proof).has_value());
  }
  EXPECT_FALSE(f.rpm.is_excluded(f.addr(0)));
}

TEST(RpmPenalty, CorrectValidatorsNeverSlashedByRewardPath) {
  Fixture f;
  // Many legitimate rewards; nobody reported; all deposits only grow.
  for (std::uint64_t round = 0; round < 10; ++round) {
    for (std::size_t proposer = 0; proposer < 4; ++proposer) {
      const BlockSummary block = f.summary(proposer, 2, U256{50});
      for (std::size_t caller = 0; caller < 4; ++caller) {
        f.rpm.prop_received(f.addr(caller), block,
                            static_cast<std::uint32_t>(proposer), round);
      }
    }
  }
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GT(f.rpm.deposit_of(f.addr(i)), U256{1'000'000'000});
    EXPECT_FALSE(f.rpm.is_excluded(f.addr(i)));
  }
  EXPECT_TRUE(f.rpm.slash_events().empty());
}

TEST(RpmPenalty, SecondSlashOfSameOffenseIgnored) {
  Fixture f;
  std::vector<Hash32> leaves;
  const BlockSummary block = f.summary(3, 2, U256{0}, &leaves);
  const crypto::MerkleProof proof = crypto::merkle_prove(leaves, 1);
  f.rpm.report(f.addr(0), block, 4, leaves[1], proof);
  f.rpm.report(f.addr(1), block, 4, leaves[1], proof);
  ASSERT_TRUE(f.rpm.report(f.addr(2), block, 4, leaves[1], proof).has_value());
  // A fourth report of the same offense cannot slash again.
  EXPECT_FALSE(f.rpm.report(f.addr(0), block, 4, leaves[1], proof).has_value());
  EXPECT_EQ(f.rpm.slash_events().size(), 1u);
}

TEST(RpmPenalty, SlashedValidatorStaysExcluded) {
  Fixture f;
  std::vector<Hash32> leaves;
  const BlockSummary first = f.summary(3, 3, U256{0}, &leaves);
  const crypto::MerkleProof proof = crypto::merkle_prove(leaves, 1);
  for (std::size_t i = 0; i < 3; ++i) {
    f.rpm.report(f.addr(i), first, 5, leaves[1], proof);
  }
  ASSERT_TRUE(f.rpm.is_excluded(f.addr(3)));
  ASSERT_EQ(f.rpm.deposit_of(f.addr(3)), U256::zero());
  const U256 others_before = f.rpm.deposit_of(f.addr(0));

  // A later offense by the excluded proposer, fully reported, neither
  // slashes again nor moves any deposit: there is nothing left to take.
  std::vector<Hash32> later_leaves;
  const BlockSummary later = f.summary(3, 2, U256{0}, &later_leaves);
  const crypto::MerkleProof later_proof = crypto::merkle_prove(later_leaves, 0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(
        f.rpm.report(f.addr(i), later, 9, later_leaves[0], later_proof)
            .has_value());
  }
  EXPECT_TRUE(f.rpm.is_excluded(f.addr(3)));
  EXPECT_EQ(f.rpm.deposit_of(f.addr(3)), U256::zero());
  EXPECT_EQ(f.rpm.deposit_of(f.addr(0)), others_before);
  EXPECT_EQ(f.rpm.slash_events().size(), 1u);
  // The other validators were never excluded along with it.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(f.rpm.is_excluded(f.addr(i)));
  }
}

}  // namespace
}  // namespace srbb::rpm
