// Differential tests for the eager-validation check list (DESIGN.md §11):
// every batch result must be positionally identical — same accept/reject
// bit, same Status string — to running the eager_validate monolith on each
// transaction, with and without a worker pool and across batch
// compositions, and validate_one must agree too.
#include "txn/pipeline.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "crypto/batch.hpp"
#include "pool/txpool.hpp"
#include "txn/validation.hpp"

namespace srbb::txn {
namespace {

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

struct World {
  state::StateDB db;
  ValidationConfig vcfg;
  crypto::Identity alice = scheme().make_identity(1);
  crypto::Identity bob = scheme().make_identity(2);
  crypto::Identity pauper = scheme().make_identity(77);  // zero balance

  World() {
    db.add_balance(alice.address(), U256{10'000'000});
    db.add_balance(bob.address(), U256{10'000'000});
  }

  Transaction transfer(const crypto::Identity& from, const Address& to,
                       std::uint64_t value, std::uint64_t nonce,
                       std::uint64_t gas_limit = 30'000) {
    TxParams params;
    params.nonce = nonce;
    params.to = to;
    params.value = U256{value};
    params.gas_limit = gas_limit;
    params.gas_price = U256{1};
    return make_signed(params, from, scheme());
  }

  /// One transaction per failure class the monolith can produce, plus
  /// passing ones interleaved — the full differential corpus.
  std::vector<TxPtr> mixed_corpus() {
    std::vector<TxPtr> txs;
    // Passing.
    txs.push_back(make_tx_ptr(transfer(alice, bob.address(), 100, 0)));
    // (i) corrupted signature.
    Transaction bad_sig = transfer(alice, bob.address(), 100, 1);
    bad_sig.signature[5] ^= 1;
    txs.push_back(make_tx_ptr(std::move(bad_sig)));
    // (ii) oversized wire encoding.
    TxParams big;
    big.data = Bytes(vcfg.max_tx_size + 1, 0xaa);
    big.gas_limit = 10'000'000;
    txs.push_back(make_tx_ptr(make_signed(big, alice, scheme())));
    // (ii) gas limit below the intrinsic floor.
    TxParams low_gas;
    low_gas.to = bob.address();
    low_gas.gas_limit = 20'000;
    txs.push_back(make_tx_ptr(make_signed(low_gas, alice, scheme())));
    // Passing again (ordering matters for bisection coverage).
    txs.push_back(make_tx_ptr(transfer(bob, alice.address(), 7, 0)));
    // (iii) nonce beyond the window.
    txs.push_back(make_tx_ptr(
        transfer(alice, bob.address(), 1, vcfg.nonce_window + 5)));
    // (iv)+(v) pauper cannot afford gas + value.
    txs.push_back(make_tx_ptr(transfer(pauper, bob.address(), 100, 0)));
    // (iv)+(v) gas_price * gas_limit = 2^256 would wrap to a zero cost.
    TxParams wrapping;
    wrapping.to = bob.address();
    wrapping.gas_limit = 65'536;
    wrapping.gas_price = U256::one() << 240;
    txs.push_back(make_tx_ptr(make_signed(wrapping, pauper, scheme())));
    // (vi) invoke of a callee with no successful path (infinite loop:
    // JUMPDEST PUSH1 0 JUMP), gated by the static min-gas check.
    const Address doomed = scheme().make_identity(500).address();
    db.set_code(doomed, Bytes{0x5b, 0x60, 0x00, 0x56});
    TxParams invoke;
    invoke.kind = TxKind::kInvoke;
    invoke.to = doomed;
    invoke.gas_limit = 10'000'000;
    txs.push_back(make_tx_ptr(make_signed(invoke, alice, scheme())));
    return txs;
  }
};

void expect_matches_monolith(const ValidationPipeline& pipeline,
                             const std::vector<TxPtr>& txs,
                             const state::StateView& db, const World& w) {
  const std::vector<Status> got = pipeline.validate(txs, db);
  ASSERT_EQ(got.size(), txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const Status want = eager_validate(txs[i]->tx, db, scheme(), w.vcfg);
    EXPECT_EQ(got[i].is_ok(), want.is_ok()) << "tx " << i;
    EXPECT_EQ(got[i].message(), want.message()) << "tx " << i;
    // The single-transaction path must agree too.
    const Status one = pipeline.validate_one(*txs[i], db);
    EXPECT_EQ(one.is_ok(), want.is_ok()) << "tx " << i;
    EXPECT_EQ(one.message(), want.message()) << "tx " << i;
  }
}

TEST(ValidationPipeline, BatchMatchesMonolithPerFailureClass) {
  World w;
  // Three copies of the corpus (27 transactions) put the pooled run above
  // the verifier's parallel threshold.
  std::vector<TxPtr> txs;
  for (int copy = 0; copy < 3; ++copy) {
    for (TxPtr& tx : w.mixed_corpus()) txs.push_back(std::move(tx));
  }
  ValidationPipeline unpooled(scheme(), w.vcfg);
  expect_matches_monolith(unpooled, txs, w.db, w);
  ThreadPool pool(4);
  ValidationPipeline pooled(scheme(), w.vcfg, PipelineOptions{.pool = &pool});
  expect_matches_monolith(pooled, txs, w.db, w);
}

TEST(ValidationPipeline, EmptyAndSingletonBatches) {
  World w;
  ValidationPipeline pipeline(scheme(), w.vcfg);
  EXPECT_TRUE(pipeline.validate({}, w.db).empty());
  const std::vector<TxPtr> one = {
      make_tx_ptr(w.transfer(w.alice, w.bob.address(), 1, 0))};
  expect_matches_monolith(pipeline, one, w.db, w);
}

TEST(ValidationPipeline, StageCountersTrackPassAndFail) {
  World w;
  obs::MetricsRegistry metrics;
  PipelineOptions options;
  options.metrics = &metrics;
  ValidationPipeline pipeline(scheme(), w.vcfg, options);
  const std::vector<TxPtr> txs = w.mixed_corpus();
  pipeline.validate(txs, w.db);
  // Corpus: 9 txs — 2 structural failures (oversize, low gas), 1 signature
  // failure, 4 state failures (nonce window, balance, wrapping fee, min-gas
  // gate), 2 pass.
  EXPECT_EQ(metrics.counter("validate.stage.structural.pass").value(), 7u);
  EXPECT_EQ(metrics.counter("validate.stage.structural.fail").value(), 2u);
  EXPECT_EQ(metrics.counter("validate.stage.signature.pass").value(), 6u);
  EXPECT_EQ(metrics.counter("validate.stage.signature.fail").value(), 1u);
  EXPECT_EQ(metrics.counter("validate.stage.state.pass").value(), 2u);
  EXPECT_EQ(metrics.counter("validate.stage.state.fail").value(), 4u);
}

// Named to match the TSan gate's test regex: a pooled run over a batch of
// three signature chunks must be race-free and still agree with the
// monolith.
TEST(ValidationPipeline, PooledValidationIsRaceFreeAndExact) {
  World w;
  ThreadPool pool(4);
  ValidationPipeline pipeline(scheme(), w.vcfg, PipelineOptions{.pool = &pool});

  std::vector<TxPtr> txs;
  for (std::size_t i = 0; i < 2 * crypto::kVerifyChunkSize + 22; ++i) {
    Transaction tx = w.transfer(w.alice, w.bob.address(), 1 + i % 7, i % 11);
    if (i % 5 == 0) tx.signature[i % 64] ^= 1;  // sprinkle bad signatures
    if (i % 7 == 0) tx.signature[31] ^= 0x80;   // and corrupted R points
    txs.push_back(make_tx_ptr(std::move(tx)));
  }
  for (int round = 0; round < 3; ++round) {
    expect_matches_monolith(pipeline, txs, w.db, w);
  }
}

TEST(ValidationPipeline, AddBatchMatchesPerTxAdd) {
  World w;
  pool::TxPool pool(pool::TxPoolConfig{.capacity = 6});
  std::vector<TxPtr> txs;
  for (std::size_t i = 0; i < 8; ++i) {
    txs.push_back(make_tx_ptr(w.transfer(w.alice, w.bob.address(), 1, i)));
  }
  txs.push_back(txs[0]);  // duplicate
  const auto result = pool.add_batch(txs, /*now=*/0);
  // Capacity 6: first 6 admitted, next 2 dropped full, duplicate detected.
  EXPECT_EQ(result.added, 6u);
  EXPECT_EQ(result.dropped_full, 2u);
  EXPECT_EQ(result.duplicates, 1u);
  EXPECT_EQ(pool.size(), 6u);
  EXPECT_EQ(pool.admitted(), 6u);
  EXPECT_EQ(pool.dropped_full(), 2u);
}

}  // namespace
}  // namespace srbb::txn
