// Check (i) at execution: ExecutionOracle::execute verifies every signature
// of a superblock with one batch call before executing, and a transaction
// that fails is discarded unexecuted. These differential tests pin that
// against a reference that checks each transaction's signature with its own
// txn::verify_signature call right before applying it, on superblocks whose
// sizes straddle the batch verifier's parallel threshold (16) and chunk size
// (64), with the oracle's sequential and parallel executors.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crypto/batch.hpp"
#include "srbb/oracle.hpp"
#include "support/reference_trie.hpp"

namespace srbb::node {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

constexpr std::uint64_t kFunded = 160;      // identities 0..159 are funded
constexpr std::uint64_t kBrokeBase = 1'000;  // identities from here are not

const crypto::Identity& identity(std::uint64_t id) {
  static std::vector<std::unique_ptr<crypto::Identity>> cache(2'000);
  std::unique_ptr<crypto::Identity>& slot = cache.at(id);
  if (!slot) slot = std::make_unique<crypto::Identity>(scheme().make_identity(id));
  return *slot;
}

const Address& recipient() {
  static const Address a = scheme().make_identity(4242).address();
  return a;
}

GenesisSpec genesis() {
  GenesisSpec g;
  for (std::uint64_t i = 0; i < kFunded; ++i) {
    g.accounts.push_back({identity(i).address(), U256{1'000'000'000}});
  }
  return g;
}

evm::BlockContext block_template() {
  evm::BlockContext ctx;
  ctx.coinbase = scheme().make_identity(99).address();
  return ctx;
}

/// One planned transaction: who signs it, with which nonce, and whether its
/// signature is corrupted after signing.
struct Planned {
  std::uint64_t sender = 0;
  std::uint64_t nonce = 0;
  bool corrupt = false;
};

txn::TxPtr make_tx(const Planned& p, std::uint64_t value) {
  txn::TxParams params;
  params.nonce = p.nonce;
  params.gas_limit = 30'000;
  params.gas_price = U256{2};
  params.to = recipient();
  params.value = U256{value};
  txn::Transaction tx = txn::make_signed(params, identity(p.sender), scheme());
  if (p.corrupt) tx.signature[5] ^= 0x10;
  return txn::make_tx_ptr(std::move(tx));
}

/// Splits `plan` over `proposers` blocks in order (the canonical superblock
/// order is block order, then transaction order).
std::vector<txn::BlockPtr> superblock(std::uint64_t index,
                                      const std::vector<Planned>& plan,
                                      std::uint64_t proposers) {
  std::vector<std::vector<txn::TxPtr>> per_block(proposers);
  const std::size_t per = (plan.size() + proposers - 1) / proposers;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    per_block[i / per].push_back(make_tx(plan[i], 1 + i + 1'000 * index));
  }
  std::vector<txn::BlockPtr> blocks;
  for (std::uint64_t b = 0; b < proposers; ++b) {
    blocks.push_back(std::make_shared<const txn::Block>(
        txn::make_block(index, b, 0, Hash32{}, std::move(per_block[b]),
                        scheme().make_identity(b), scheme())));
  }
  return blocks;
}

/// The reference: per transaction, txn::verify_signature then
/// apply_transaction, on its own state.
class Reference {
 public:
  Reference() { genesis().apply(db_); }

  std::vector<TxOutcome> execute(std::uint64_t index,
                                 const std::vector<txn::BlockPtr>& blocks) {
    evm::BlockContext ctx = block_template();
    ctx.number = index;
    std::vector<TxOutcome> out;
    for (const txn::BlockPtr& block : blocks) {
      for (const txn::TxPtr& tx : block->txs) {
        TxOutcome outcome;
        outcome.hash = tx->hash;
        if (txn::verify_signature(tx->tx, scheme())) {
          const Result<txn::Receipt> receipt =
              txn::apply_transaction(tx->tx, db_, ctx, txn::ExecutionConfig{});
          if (receipt.is_ok()) {
            outcome.valid = true;
            outcome.executed_ok = receipt.value().success;
            outcome.gas_used = receipt.value().gas_used;
            outcome.fee = tx->tx.gas_price * U256{receipt.value().gas_used};
          }
        }
        out.push_back(outcome);
      }
    }
    db_.commit();
    return out;
  }

  const state::StateDB& db() const { return db_; }

 private:
  state::StateDB db_;
};

void expect_matches(const IndexExecResult& got,
                    const std::vector<TxOutcome>& want, const Hash32& want_root,
                    const std::string& label) {
  std::vector<TxOutcome> flat;
  for (const BlockExecResult& block : got.blocks) {
    flat.insert(flat.end(), block.outcomes.begin(), block.outcomes.end());
  }
  ASSERT_EQ(flat.size(), want.size()) << label;
  std::uint64_t valid = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(flat[i].hash, want[i].hash) << label << " tx " << i;
    EXPECT_EQ(flat[i].valid, want[i].valid) << label << " tx " << i;
    EXPECT_EQ(flat[i].executed_ok, want[i].executed_ok) << label << " tx " << i;
    EXPECT_EQ(flat[i].gas_used, want[i].gas_used) << label << " tx " << i;
    EXPECT_EQ(flat[i].fee, want[i].fee) << label << " tx " << i;
    if (want[i].valid) ++valid;
  }
  EXPECT_EQ(got.total_valid, valid) << label;
  EXPECT_EQ(got.total_invalid, want.size() - valid) << label;
  EXPECT_EQ(got.state_root, want_root) << label;
}

/// Runs the superblocks through the reference and through an oracle with
/// the parallel executor off and on.
void run_differential(const std::vector<std::vector<Planned>>& plans,
                      std::uint64_t proposers) {
  for (const bool parallel : {false, true}) {
    const std::string mode = parallel ? "parallel" : "sequential";
    Reference reference;
    ExecutionOracle oracle{genesis(), block_template(), scheme()};
    oracle.exec_config().parallel = parallel;
    oracle.exec_config().workers = 4;
    for (std::uint64_t index = 0; index < plans.size(); ++index) {
      const std::vector<txn::BlockPtr> blocks =
          superblock(index, plans[index], proposers);
      const std::vector<TxOutcome> want = reference.execute(index, blocks);
      const IndexExecResult& got = oracle.execute(index, blocks);
      expect_matches(got, want, reference.db().state_root(),
                     mode + " index " + std::to_string(index));
      EXPECT_EQ(got.state_root, state::state_root_mpt_full(oracle.db()))
          << mode << " index " << index;
    }
    EXPECT_EQ(oracle.db().state_root(), reference.db().state_root()) << mode;
  }
}

/// A superblock of `n` transactions from distinct funded senders (nonce 0),
/// with corrupted signatures at the first and last positions and on both
/// sides of every batch-chunk boundary, a zero-balance sender, a
/// transaction that fails both lazy validation and the signature check, and
/// a funded sender whose corrupted nonce-0 transaction is followed by its
/// correctly signed nonce-1 one (which must then fail lazy validation).
std::vector<Planned> mixed_plan(std::size_t n) {
  std::vector<Planned> plan(n);
  for (std::size_t i = 0; i < n; ++i) plan[i].sender = i;
  const std::size_t chunk = crypto::kVerifyChunkSize;
  plan.front().corrupt = true;
  plan.back().corrupt = true;
  for (std::size_t b = chunk; b < n; b += chunk) {
    plan[b - 1].corrupt = true;
    plan[b].corrupt = true;
  }
  if (n >= 6) {
    plan[1] = Planned{kBrokeBase + 1, 0, false};  // zero balance: lazy fails
    plan[2] = Planned{kBrokeBase + 2, 0, true};   // fails lazy and signature
    // Sender 0's nonce-0 transaction (position 0) is corrupted, so this
    // correctly signed nonce-1 one finds nonce 0 still expected.
    plan[3] = Planned{0, 1, false};
  }
  return plan;
}

TEST(OracleSignatureBatch, InvalidSignatureIsDiscardedWithoutTransition) {
  ExecutionOracle oracle{genesis(), block_template(), scheme()};
  const Hash32 genesis_root = oracle.db().state_root();
  const IndexExecResult& result =
      oracle.execute(0, superblock(0, {Planned{3, 0, true}}, 1));
  ASSERT_EQ(result.blocks.size(), 1u);
  ASSERT_EQ(result.blocks[0].outcomes.size(), 1u);
  EXPECT_FALSE(result.blocks[0].outcomes[0].valid);
  EXPECT_EQ(result.total_invalid, 1u);
  // No state transition: nonce, balances and the root are genesis's.
  EXPECT_EQ(oracle.db().nonce(identity(3).address()), 0u);
  EXPECT_EQ(oracle.db().balance(identity(3).address()), U256{1'000'000'000});
  EXPECT_EQ(oracle.db().balance(recipient()), U256::zero());
  EXPECT_EQ(result.state_root, genesis_root);
}

TEST(OracleSignatureBatch, SizesAroundThresholdAndChunkMatchReference) {
  for (const std::size_t n : {1, 15, 16, 17, 64, 65, 129}) {
    SCOPED_TRACE("superblock of " + std::to_string(n));
    run_differential({mixed_plan(n)}, n < 6 ? 1 : 4);
  }
}

TEST(OracleSignatureBatch, AllGoodAndAllBadSuperblocks) {
  std::vector<Planned> good(65);
  for (std::size_t i = 0; i < good.size(); ++i) good[i].sender = i;
  std::vector<Planned> bad = good;
  for (Planned& p : bad) p.corrupt = true;
  // Index 1 sends every sender's nonce-1 transaction: valid after the
  // all-good index 0, lazily invalid after the all-bad one, which advanced
  // no nonce.
  std::vector<Planned> next = good;
  for (Planned& p : next) p.nonce = 1;
  run_differential({good, next}, 3);
  run_differential({bad, next}, 3);
}

TEST(OracleSignatureBatch, ByzantineFloodBlockMatchesReference) {
  // dapp_flood's shape: honest blocks of valid transfers beside one block
  // from a flooding proposer, half zero-balance senders, half corrupted
  // signatures from funded accounts that send nothing valid.
  std::vector<Planned> plan;
  for (std::size_t i = 0; i < 96; ++i) plan.push_back({i, 0, false});
  for (std::size_t j = 0; j < 32; ++j) {
    plan.push_back(j % 2 == 0 ? Planned{kBrokeBase + j, 0, false}
                              : Planned{96 + j, 0, true});
  }
  std::vector<Planned> next = plan;
  for (std::size_t i = 0; i < 96; ++i) next[i].nonce = 1;
  run_differential({plan, next}, 4);
}

}  // namespace
}  // namespace srbb::node
