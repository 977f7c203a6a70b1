// Soundness tests for the static rw-set pass and its schedule-time
// resolution (docs/ANALYSIS.md §rw-sets). The contract under test:
//
//     predicted ⊇ observed   or   prediction is ⊤ (top == true)
//
// for every transaction — checked here differentially against the
// OverlayState observed access sets for every shipped DIABLO contract, plus
// exact reconciliation of the analysis.rwset.{hit,miss,violation} counters
// the parallel executor publishes.
#include "txn/rwset.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "crypto/keccak.hpp"
#include "evm/analysis/analysis.hpp"
#include "evm/contracts.hpp"
#include "obs/metrics.hpp"
#include "state/overlay.hpp"
#include "txn/parallel_executor.hpp"

namespace srbb::txn {
namespace {

using evm::analysis::ResolveContext;
using evm::analysis::StorageSummary;
using evm::analysis::SymClass;
using evm::analysis::SymExpr;

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

Address contract_addr(std::uint8_t tag) {
  Address a;
  a[0] = 0xC0;
  a[19] = tag;
  return a;
}

const Address kCounter = contract_addr(1);
const Address kExchange = contract_addr(2);
const Address kMobility = contract_addr(3);
const Address kTicketing = contract_addr(4);
const Address kStaking = contract_addr(5);
const Address kToken = contract_addr(6);
const Address kKvStore = contract_addr(7);

state::StateDB make_state(std::size_t senders) {
  state::StateDB db;
  for (std::size_t i = 0; i < senders; ++i) {
    db.add_balance(scheme().make_identity(i).address(), U256{1'000'000'000});
  }
  auto deploy = [&db](const Address& at, const evm::Contract& contract) {
    db.create_account(at);
    db.set_nonce(at, 1);
    db.set_code(at, contract.runtime_code);
  };
  deploy(kCounter, evm::counter_contract());
  deploy(kExchange, evm::exchange_contract());
  deploy(kMobility, evm::mobility_contract());
  deploy(kTicketing, evm::ticketing_contract());
  deploy(kStaking, evm::staking_contract());
  deploy(kToken, evm::token_contract());
  deploy(kKvStore, evm::kvstore_contract());
  db.commit();
  return db;
}

Transaction signed_tx(std::uint64_t sender, TxParams params) {
  return make_signed(params, scheme().make_identity(sender), scheme());
}

Transaction invoke(std::uint64_t sender, std::uint64_t nonce,
                   const Address& contract, Bytes calldata,
                   std::uint64_t value = 0) {
  TxParams params;
  params.kind = TxKind::kInvoke;
  params.nonce = nonce;
  params.gas_limit = 300'000;
  params.to = contract;
  params.value = U256{value};
  params.data = std::move(calldata);
  return signed_tx(sender, params);
}

Transaction transfer(std::uint64_t sender, std::uint64_t nonce,
                     const Address& to, std::uint64_t value = 7) {
  TxParams params;
  params.nonce = nonce;
  params.gas_limit = 30'000;
  params.to = to;
  params.value = U256{value};
  return signed_tx(sender, params);
}

SymExpr map_key(SymExpr word, std::uint64_t tag) {
  SymExpr e;
  e.cls = SymClass::kKeccak;
  e.children.push_back(std::move(word));
  e.children.push_back(SymExpr::make_const(U256{tag}));
  return e;
}

bool contains_expr(const std::vector<SymExpr>& exprs, const SymExpr& e) {
  for (const SymExpr& x : exprs) {
    if (x == e) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Symbolic-key resolution must match the interpreter bit for bit.

TEST(SymExprResolve, ConstAndLeaves) {
  ResolveContext ctx;
  Address caller;
  caller[3] = 0xAB;
  Address self;
  self[19] = 0x07;
  ctx.caller = caller;
  ctx.self = self;
  ctx.callvalue = U256{12345};

  EXPECT_EQ(resolve(SymExpr::make_const(U256{42}), ctx), U256{42});
  EXPECT_EQ(resolve(SymExpr::make_leaf(SymClass::kCallvalue), ctx),
            U256{12345});
  // Address leaves resolve as zero-extended 32-byte words: the low 20 bytes
  // of the word are the address, exactly as the CALLER opcode pushes it.
  const U256 caller_word = *resolve(SymExpr::make_leaf(SymClass::kCaller), ctx);
  const U256 origin_word = *resolve(SymExpr::make_leaf(SymClass::kOrigin), ctx);
  const U256 self_word = *resolve(SymExpr::make_leaf(SymClass::kSelf), ctx);
  EXPECT_EQ(caller_word, origin_word);  // top frame: ORIGIN == CALLER
  Hash32 expect_caller;
  std::copy(caller.data.begin(), caller.data.end(),
            expect_caller.data.begin() + 12);
  EXPECT_EQ(caller_word.to_hash(), expect_caller);
  Hash32 expect_self;
  std::copy(self.data.begin(), self.data.end(), expect_self.data.begin() + 12);
  EXPECT_EQ(self_word.to_hash(), expect_self);
}

TEST(SymExprResolve, CalldataUsesZeroPaddedSliceSemantics) {
  const Bytes data{0xde, 0xad, 0xbe, 0xef};
  ResolveContext ctx;
  ctx.calldata = BytesView{data};

  // CALLDATALOAD(0) over 4 bytes of calldata: the word is the 4 bytes
  // followed by 28 zero bytes (interpreter padded_slice semantics).
  Bytes word(32, 0);
  word[0] = 0xde;
  word[1] = 0xad;
  word[2] = 0xbe;
  word[3] = 0xef;
  EXPECT_EQ(resolve(SymExpr::make_calldata(0), ctx)->to_hash(),
            Hash32{BytesView{word}});
  // Entirely past the end: all zeros.
  EXPECT_EQ(resolve(SymExpr::make_calldata(1000), ctx), U256{0});
}

TEST(SymExprResolve, KeccakMatchesSha3OverMemoryLayout) {
  // The mapping idiom: mem[0] = calldata[4], mem[32] = tag, SHA3(0, 64).
  Bytes data(36, 0);
  data[35] = 9;  // arg 0 == 9
  ResolveContext ctx;
  ctx.calldata = BytesView{data};

  const SymExpr key = map_key(SymExpr::make_calldata(4), 1);
  Bytes preimage;
  append(preimage, U256{9}.be_bytes());
  append(preimage, U256{1}.be_bytes());
  EXPECT_EQ(resolve(key, ctx)->to_hash(),
            crypto::Keccak256::hash(BytesView{preimage}));
}

TEST(SymExprResolve, UnknownPoisonsTheTree) {
  ResolveContext ctx;
  EXPECT_FALSE(SymExpr::unknown().resolvable());
  EXPECT_EQ(resolve(SymExpr::unknown(), ctx), std::nullopt);
  const SymExpr poisoned = map_key(SymExpr::unknown(), 0);
  EXPECT_FALSE(poisoned.resolvable());
  EXPECT_EQ(resolve(poisoned, ctx), std::nullopt);
}

// ---------------------------------------------------------------------------
// Every shipped DIABLO contract must get a usable (non-⊤) summary whose
// symbolic keys match the contract's storage idiom.

TEST(StorageSummaryShapes, ShippedContractsAreAllPrecise) {
  const std::pair<const char*, const evm::Contract*> contracts[] = {
      {"counter", &evm::counter_contract()},
      {"exchange", &evm::exchange_contract()},
      {"mobility", &evm::mobility_contract()},
      {"ticketing", &evm::ticketing_contract()},
      {"staking", &evm::staking_contract()},
      {"token", &evm::token_contract()},
      {"kvstore", &evm::kvstore_contract()},
  };
  for (const auto& [name, contract] : contracts) {
    const evm::analysis::AnalysisResult r =
        evm::analysis::analyze(BytesView{contract->runtime_code});
    EXPECT_FALSE(r.storage.top) << name;
    EXPECT_FALSE(r.storage.budget_exhausted) << name;
    EXPECT_FALSE(r.storage.writes.empty()) << name;
    for (const SymExpr& e : r.storage.reads) {
      EXPECT_TRUE(e.resolvable()) << name << ": " << to_string(e);
    }
    for (const SymExpr& e : r.storage.writes) {
      EXPECT_TRUE(e.resolvable()) << name << ": " << to_string(e);
    }
  }
}

TEST(StorageSummaryShapes, CounterTouchesSlotZeroOnly) {
  const evm::analysis::AnalysisResult r =
      evm::analysis::analyze(BytesView{evm::counter_contract().runtime_code});
  ASSERT_EQ(r.storage.writes.size(), 1u);
  EXPECT_EQ(r.storage.writes[0], SymExpr::make_const(U256{0}));
  EXPECT_TRUE(contains_expr(r.storage.reads, SymExpr::make_const(U256{0})));
}

TEST(StorageSummaryShapes, KvStoreKeyIsKeccakOfCalldata) {
  const evm::analysis::AnalysisResult r =
      evm::analysis::analyze(BytesView{evm::kvstore_contract().runtime_code});
  const SymExpr key = map_key(SymExpr::make_calldata(4), 0);
  ASSERT_EQ(r.storage.writes.size(), 1u);
  EXPECT_EQ(r.storage.writes[0], key) << to_string(r.storage.writes[0]);
  EXPECT_TRUE(contains_expr(r.storage.reads, key));
  // No global stats slot: the whole point of the kvstore workload.
  EXPECT_FALSE(contains_expr(r.storage.writes, SymExpr::make_const(U256{0})));
}

TEST(StorageSummaryShapes, StakingMixesCallerAndCalldataKeys) {
  const evm::analysis::AnalysisResult r =
      evm::analysis::analyze(BytesView{evm::staking_contract().runtime_code});
  const SymExpr caller_key = map_key(SymExpr::make_leaf(SymClass::kCaller), 0);
  EXPECT_TRUE(contains_expr(r.storage.writes, caller_key));
  EXPECT_TRUE(contains_expr(r.storage.writes, SymExpr::make_const(U256{0})));
  EXPECT_TRUE(
      contains_expr(r.storage.reads, map_key(SymExpr::make_calldata(4), 0)));
}

// ---------------------------------------------------------------------------
// The soundness differential: for every transaction against every shipped
// contract, the schedule-time prediction must cover what the execution
// actually touched (or be ⊤). Runs the full battery sequentially so later
// transactions see the state the earlier ones produced.

struct SoundnessCase {
  Transaction tx;
  bool expect_hint;  // non-⊤ prediction expected
};

void run_soundness(const std::vector<SoundnessCase>& cases,
                   const evm::BlockContext& block) {
  state::StateDB db = make_state(16);
  evm::analysis::AnalysisCache cache;
  ExecutionConfig config;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Transaction& tx = cases[i].tx;
    const PredictedRwSet pred = predict_rwset(tx, db, block, cache);
    EXPECT_EQ(!pred.top, cases[i].expect_hint) << "tx " << i;
    state::OverlayState overlay{db};
    const Result<Receipt> res = apply_transaction(tx, overlay, block, config);
    if (!pred.top) {
      EXPECT_TRUE(
          pred.covers(overlay.observed_reads(), overlay.observed_writes()))
          << "tx " << i << ": predicted rw-set does not cover execution";
    }
    // Advance the state exactly as sequential execution would, so later
    // cases exercise predictions against evolving storage.
    if (res.is_ok()) overlay.apply_to(db);
  }
}

TEST(RwSetSoundness, AllShippedContractsAreCovered) {
  const Address fresh = scheme().make_identity(999).address();
  std::vector<SoundnessCase> cases;
  // counter
  cases.push_back({invoke(0, 0, kCounter, evm::encode_call("increment()", {})),
                   true});
  cases.push_back({invoke(1, 0, kCounter, evm::encode_call("get()", {})), true});
  // exchange (NASDAQ shape)
  cases.push_back({invoke(2, 0, kExchange,
                          evm::encode_call("trade(uint256,uint256,uint256)",
                                           {U256{3}, U256{100}, U256{5}})),
                   true});
  cases.push_back(
      {invoke(3, 0, kExchange, evm::encode_call("quote(uint256)", {U256{3}})),
       true});
  // mobility (Uber shape)
  cases.push_back({invoke(4, 0, kMobility,
                          evm::encode_call("ride(uint256,uint256)",
                                           {U256{7}, U256{30}})),
                   true});
  cases.push_back({invoke(5, 0, kMobility,
                          evm::encode_call("fareOf(uint256)", {U256{7}})),
                   true});
  // ticketing (FIFA shape); the second buy reverts — the reverted frame's
  // reads must still be covered.
  cases.push_back({invoke(6, 0, kTicketing,
                          evm::encode_call("buy(uint256,uint256)",
                                           {U256{1}, U256{2}})),
                   true});
  cases.push_back({invoke(7, 0, kTicketing,
                          evm::encode_call("buy(uint256,uint256)",
                                           {U256{1}, U256{2}})),
                   true});
  // staking: payable deposit (callvalue feeds both the value transfer and
  // the storage delta)
  cases.push_back({invoke(8, 0, kStaking, evm::encode_call("deposit()", {}),
                          /*value=*/500),
                   true});
  // token: mint then an insufficient-balance transfer (reverts)
  cases.push_back({invoke(9, 0, kToken,
                          evm::encode_call("mint(uint256,uint256)",
                                           {U256{77}, U256{100}})),
                   true});
  cases.push_back({invoke(10, 0, kToken,
                          evm::encode_call("transfer(uint256,uint256)",
                                           {U256{77}, U256{5}})),
                   true});
  // kvstore
  cases.push_back({invoke(11, 0, kKvStore,
                          evm::encode_call("put(uint256,uint256)",
                                           {U256{42}, U256{9}})),
                   true});
  cases.push_back({invoke(12, 0, kKvStore,
                          evm::encode_call("get(uint256)", {U256{42}})),
                   true});
  // plain transfers: to an existing account and to a fresh one (account
  // creation writes every scalar field)
  cases.push_back({transfer(13, 0, scheme().make_identity(1).address()), true});
  cases.push_back({transfer(13, 1, fresh), true});
  // value-carrying invoke (counter is not payable-gated; the value transfer
  // touches the contract balance)
  cases.push_back({invoke(14, 0, kCounter,
                          evm::encode_call("increment()", {}), /*value=*/3),
                   true});
  // invalid: future nonce — discarded by lazy validation, whose nonce read
  // must still be covered
  cases.push_back({transfer(15, 50, fresh), true});
  // deploy: no usable prediction, explicit ⊤
  TxParams deploy;
  deploy.kind = TxKind::kDeploy;
  deploy.nonce = 0;
  deploy.gas_limit = 3'000'000;
  deploy.data = evm::counter_contract().deploy_code;
  cases.push_back({signed_tx(15, deploy), false});

  run_soundness(cases, evm::BlockContext{});
}

TEST(RwSetSoundness, CoinbaseFeeCreditIsCovered) {
  evm::BlockContext block;
  block.coinbase[19] = 0xEE;
  std::vector<SoundnessCase> cases;
  cases.push_back({invoke(0, 0, kCounter, evm::encode_call("increment()", {})),
                   true});
  cases.push_back({transfer(1, 0, scheme().make_identity(2).address()), true});
  run_soundness(cases, block);
}

// Unknown selectors fall through to REVERT without touching storage; the
// prediction (the full resolved summary) must still be a superset.
TEST(RwSetSoundness, UnknownSelectorRevertIsCovered) {
  std::vector<SoundnessCase> cases;
  cases.push_back({invoke(0, 0, kExchange,
                          evm::encode_call("nonexistent()", {})),
                   true});
  run_soundness(cases, evm::BlockContext{});
}

// ---------------------------------------------------------------------------
// Counter reconciliation: analysis.rwset.{hit,miss,violation} must agree
// exactly with the ParallelExecStats of the blocks that produced them.

TEST(RwSetMetrics, CountersReconcileExactly) {
  state::StateDB db = make_state(16);
  evm::analysis::AnalysisCache cache;
  obs::MetricsRegistry registry;
  ParallelExecutor executor{4, 3};
  executor.set_metrics(&registry);

  ExecutionConfig config;
  config.analysis_hints = true;
  config.hint_cache = &cache;

  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 8; ++s) {  // hinted: disjoint kvstore puts
    txs.push_back(invoke(s, 0, kKvStore,
                         evm::encode_call("put(uint256,uint256)",
                                          {U256{s}, U256{s + 1}})));
  }
  for (std::uint64_t s = 8; s < 12; ++s) {  // hinted: hot counter
    txs.push_back(
        invoke(s, 0, kCounter, evm::encode_call("increment()", {})));
  }
  for (std::uint64_t s = 12; s < 14; ++s) {  // ⊤: deploys
    TxParams params;
    params.kind = TxKind::kDeploy;
    params.nonce = 0;
    params.gas_limit = 3'000'000;
    params.data = evm::counter_contract().deploy_code;
    txs.push_back(signed_tx(s, params));
  }
  std::vector<const Transaction*> ptrs;
  for (const Transaction& tx : txs) ptrs.push_back(&tx);

  ParallelExecStats stats;
  const auto receipts = executor.execute_block(ptrs, db, {}, config, &stats);
  for (const auto& r : receipts) EXPECT_TRUE(r.is_ok());

  EXPECT_EQ(stats.hinted_txs, 12u);
  EXPECT_EQ(stats.top_txs, 2u);
  EXPECT_EQ(stats.hint_violations, 0u);
  EXPECT_EQ(registry.counter("analysis.rwset.hit").value(), stats.hinted_txs);
  EXPECT_EQ(registry.counter("analysis.rwset.miss").value(), stats.top_txs);
  EXPECT_EQ(registry.counter("analysis.rwset.violation").value(), 0u);

  // Second block through the same executor: counters accumulate, stats are
  // per-call — totals must still reconcile.
  std::vector<Transaction> txs2;
  for (std::uint64_t s = 0; s < 4; ++s) {
    txs2.push_back(invoke(s, 1, kKvStore,
                          evm::encode_call("put(uint256,uint256)",
                                           {U256{100 + s}, U256{1}})));
  }
  std::vector<const Transaction*> ptrs2;
  for (const Transaction& tx : txs2) ptrs2.push_back(&tx);
  ParallelExecStats stats2;
  executor.execute_block(ptrs2, db, {}, config, &stats2);
  EXPECT_EQ(stats2.hinted_txs, 4u);
  EXPECT_EQ(registry.counter("analysis.rwset.hit").value(),
            stats.hinted_txs + stats2.hinted_txs);
  EXPECT_EQ(registry.counter("analysis.rwset.miss").value(), stats.top_txs);
}

TEST(RwSetMetrics, WrongHintsTripTheGuardButNotTheReceipts) {
  // Adversarially wrong hints: non-⊤ predictions with empty access sets, so
  // every execution escapes its prediction. The runtime guard must abort
  // those speculations (violation counter), demote them to blind mode, and
  // still produce receipts identical to sequential execution.
  ExecutionConfig config;

  std::vector<Transaction> txs;
  for (std::uint64_t s = 0; s < 6; ++s) {
    txs.push_back(
        invoke(s, 0, kCounter, evm::encode_call("increment()", {})));
    txs.push_back(invoke(s, 1, kKvStore,
                         evm::encode_call("put(uint256,uint256)",
                                          {U256{s}, U256{1}})));
  }

  state::StateDB seq_db = make_state(16);
  std::vector<Result<Receipt>> seq;
  for (const Transaction& tx : txs) {
    seq.push_back(apply_transaction(tx, seq_db, {}, config));
  }
  seq_db.commit();

  state::StateDB par_db = make_state(16);
  std::vector<const Transaction*> ptrs;
  for (const Transaction& tx : txs) ptrs.push_back(&tx);
  const std::vector<PredictedRwSet> wrong(txs.size());  // empty, non-⊤
  obs::MetricsRegistry registry;
  ParallelExecutor executor{4, 8};
  executor.set_metrics(&registry);
  config.analysis_hints = true;
  ParallelExecStats stats;
  const auto par =
      executor.execute_block(ptrs, par_db, {}, config, &stats, {}, &wrong);
  par_db.commit();

  EXPECT_GT(stats.hint_violations, 0u);
  EXPECT_EQ(registry.counter("analysis.rwset.violation").value(),
            stats.hint_violations);
  ASSERT_EQ(seq.size(), par.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    ASSERT_TRUE(seq[i].is_ok());
    ASSERT_TRUE(par[i].is_ok()) << par[i].message();
    EXPECT_EQ(seq[i].value().tx_hash, par[i].value().tx_hash);
    EXPECT_EQ(seq[i].value().success, par[i].value().success);
    EXPECT_EQ(seq[i].value().gas_used, par[i].value().gas_used);
  }
  EXPECT_EQ(seq_db.state_root(), par_db.state_root());
}

// AccessSet primitives used by the scheduler.
TEST(AccessSet, SortedDedupAndIntersection) {
  state::AccessSet a;
  const Address x = contract_addr(1);
  const Address y = contract_addr(2);
  a.insert(state::AccessKey::account(x, state::AccessField::kBalance));
  a.insert(state::AccessKey::account(x, state::AccessField::kBalance));  // dup
  a.insert(state::AccessKey::account(x, state::AccessField::kNonce));
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(
      a.contains(state::AccessKey::account(x, state::AccessField::kBalance)));
  EXPECT_FALSE(
      a.contains(state::AccessKey::account(y, state::AccessField::kBalance)));

  state::AccessSet b;
  b.insert(state::AccessKey::account(y, state::AccessField::kBalance));
  EXPECT_FALSE(a.intersects(b));
  b.insert(state::AccessKey::account(x, state::AccessField::kNonce));
  EXPECT_TRUE(a.intersects(b));
  EXPECT_FALSE(a.contains_all(b));
  state::AccessSet c;
  c.insert(state::AccessKey::account(x, state::AccessField::kNonce));
  EXPECT_TRUE(a.contains_all(c));

  Hash32 slot;
  slot.data[31] = 1;
  state::AccessSet s;
  s.insert(state::AccessKey::storage_slot(x, slot));
  EXPECT_FALSE(s.intersects(a));  // storage never collides with fields
  EXPECT_TRUE(s.contains(state::AccessKey::storage_slot(x, slot)));
}

}  // namespace
}  // namespace srbb::txn
