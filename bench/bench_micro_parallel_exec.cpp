// Sequential vs optimistic-parallel superblock execution (Block-STM style,
// DESIGN.md "Parallel execution") across conflict regimes:
//   disjoint  — every transaction touches its own accounts (best case),
//   medium    — mostly disjoint transfers with a shared-counter hot spot,
//   hot       — every transaction increments the same storage slot (worst
//               case: the commit prefix degenerates to one tx per round),
// plus the three DApp call shapes the DIABLO traces replay (exchange trade /
// mobility ride / ticketing buy). Note the paper's DApps all bump a global
// stats slot per call, so they are inherently conflict-heavy — the per-arm
// conflict_rate counter makes that visible.
//
// BM_HintedExec runs the same regimes through the analysis-hinted scheduler
// (ExecutionConfig::analysis_hints, docs/ANALYSIS.md §rw-sets), plus two
// hint-specific ones:
//   kv_disjoint — kvstore puts under distinct keys (hints prove non-conflict),
//   top_heavy   — half deployments (⊤ predictions, blind speculation),
//   router_hot  — token transfers routed through a DELEGATECALL proxy to one
//                 shared recipient: only the composed interprocedural summary
//                 (docs/ANALYSIS.md "Interprocedural composition") sees the
//                 cross-contract write, so hints turn blind abort/retry into
//                 exact deferrals with zero aborts.
// tools/perf_smoke.sh gates on hinted aborts being strictly below blind
// aborts for the hot-slot regime, and on zero hinted aborts/fallbacks for
// the router regime.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "crypto/keccak.hpp"
#include "evm/contracts.hpp"
#include "state/statedb.hpp"
#include "txn/parallel_executor.hpp"

namespace {

using namespace srbb;

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::fast_sim();
}

constexpr std::size_t kTxCount = 512;

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
const Address kKvStore = contract_addr(5);
const Address kToken = contract_addr(6);
const Address kRouter = contract_addr(7);

enum WorkloadKind : std::int64_t {
  kDisjoint = 0,
  kMedium,
  kHot,
  kNasdaq,
  kUber,
  kFifa,
  kKvDisjoint,
  kTopHeavy,
  kRouterHot,  // rtransfer through the router: cross-contract hot recipient
};

/// Token-ledger slot keccak(addressWord ++ 0) in *router* storage
/// (DELEGATECALL) — genesis funding for the kRouterHot senders.
Hash32 token_balance_slot(const Address& holder) {
  Bytes preimage;
  append(preimage, U256::from_be(holder.view()).be_bytes());
  append(preimage, U256{0}.be_bytes());
  return crypto::Keccak256::hash(BytesView{preimage});
}

struct Workload {
  state::StateDB genesis;
  std::vector<txn::Transaction> txs;
};

txn::Transaction make_tx(std::uint64_t sender, txn::TxParams params) {
  return txn::make_signed(params, scheme().make_identity(sender), scheme());
}

Workload build_workload(WorkloadKind kind) {
  Workload w;
  for (std::uint64_t s = 0; s < kTxCount; ++s) {
    w.genesis.add_balance(scheme().make_identity(s).address(),
                          U256{1'000'000'000});
  }
  auto deploy = [&w](const Address& at, const evm::Contract& contract) {
    w.genesis.create_account(at);
    w.genesis.set_nonce(at, 1);
    w.genesis.set_code(at, contract.runtime_code);
  };
  deploy(kCounter, evm::counter_contract());
  deploy(kExchange, evm::exchange_contract());
  deploy(kMobility, evm::mobility_contract());
  deploy(kTicketing, evm::ticketing_contract());
  deploy(kKvStore, evm::kvstore_contract());
  deploy(kToken, evm::token_contract());
  deploy(kRouter, evm::router_contract(kKvStore, kToken));
  if (kind == kRouterHot) {
    // The router's rtransfer DELEGATECALLs the token, so the ledger lives in
    // *router* storage; fund every sender's balance slot there.
    for (std::uint64_t s = 0; s < kTxCount; ++s) {
      w.genesis.set_storage(
          kRouter, token_balance_slot(scheme().make_identity(s).address()),
          U256{1'000'000'000});
    }
  }
  w.genesis.commit();

  auto invoke = [](std::uint64_t sender, const Address& to, Bytes data) {
    txn::TxParams params;
    params.kind = txn::TxKind::kInvoke;
    params.gas_limit = 300'000;
    params.to = to;
    params.data = std::move(data);
    return make_tx(sender, params);
  };
  for (std::uint64_t i = 0; i < kTxCount; ++i) {
    switch (kind) {
      case kDisjoint: {
        txn::TxParams params;
        params.gas_limit = 30'000;
        params.to = scheme().make_identity(1'000'000 + i).address();
        params.value = U256{5};
        w.txs.push_back(make_tx(i, params));
        break;
      }
      case kMedium:  // one shared-counter hit per 8 disjoint transfers
        if (i % 8 == 0) {
          w.txs.push_back(
              invoke(i, kCounter, evm::encode_call("increment()", {})));
        } else {
          txn::TxParams params;
          params.gas_limit = 30'000;
          params.to = scheme().make_identity(1'000'000 + i).address();
          params.value = U256{5};
          w.txs.push_back(make_tx(i, params));
        }
        break;
      case kHot:
        w.txs.push_back(
            invoke(i, kCounter, evm::encode_call("increment()", {})));
        break;
      case kNasdaq:  // trade(stockId, price, volume) over 5 hot stocks
        w.txs.push_back(invoke(
            i, kExchange,
            evm::encode_call("trade(uint256,uint256,uint256)",
                             {U256{i % 5}, U256{100 + i % 7}, U256{1}})));
        break;
      case kUber:  // ride(rideId, fare), unique ride ids
        w.txs.push_back(invoke(i, kMobility,
                               evm::encode_call("ride(uint256,uint256)",
                                                {U256{i}, U256{25}})));
        break;
      case kFifa:  // buy(matchId, seat), unique seats across 8 matches
        w.txs.push_back(invoke(
            i, kTicketing,
            evm::encode_call("buy(uint256,uint256)", {U256{i % 8}, U256{i}})));
        break;
      case kKvDisjoint:  // put(key, value), unique keys — provably disjoint
        w.txs.push_back(invoke(i, kKvStore,
                               evm::encode_call("put(uint256,uint256)",
                                                {U256{i}, U256{i + 1}})));
        break;
      case kTopHeavy:  // every other tx deploys (⊤ prediction)
        if (i % 2 == 0) {
          txn::TxParams params;
          params.kind = txn::TxKind::kDeploy;
          params.gas_limit = 3'000'000;
          params.data = evm::counter_contract().deploy_code;
          w.txs.push_back(make_tx(i, params));
        } else {
          w.txs.push_back(invoke(i, kKvStore,
                                 evm::encode_call("put(uint256,uint256)",
                                                  {U256{i}, U256{1}})));
        }
        break;
      case kRouterHot:  // cross-contract transfer, one shared hot recipient
        w.txs.push_back(invoke(
            i, kRouter,
            evm::encode_call("rtransfer(uint256,uint256)",
                             {U256{0x707ull}, U256{1}})));
        break;
    }
  }
  return w;
}

const Workload& workload(WorkloadKind kind) {
  static Workload cache[kRouterHot + 1];
  Workload& w = cache[kind];
  if (w.txs.empty()) w = build_workload(kind);
  return w;
}

void BM_SequentialExec(benchmark::State& state) {
  const Workload& w = workload(static_cast<WorkloadKind>(state.range(0)));
  const txn::ExecutionConfig config;
  for (auto _ : state) {
    state::StateDB db = w.genesis;
    std::uint64_t gas = 0;
    for (const txn::Transaction& tx : w.txs) {
      const auto receipt = txn::apply_transaction(tx, db, {}, config);
      if (receipt.is_ok()) gas += receipt.value().gas_used;
    }
    db.commit();
    benchmark::DoNotOptimize(gas);
    benchmark::DoNotOptimize(db.state_root());
  }
  state.SetItemsProcessed(state.iterations() * kTxCount);
}
BENCHMARK(BM_SequentialExec)
    ->Arg(kDisjoint)->Arg(kMedium)->Arg(kHot)
    ->Arg(kNasdaq)->Arg(kUber)->Arg(kFifa)
    ->Unit(benchmark::kMillisecond)->ArgNames({"workload"});

void BM_ParallelExec(benchmark::State& state) {
  const Workload& w = workload(static_cast<WorkloadKind>(state.range(0)));
  const txn::ExecutionConfig config;
  const std::size_t workers = static_cast<std::size_t>(state.range(1));
  txn::ParallelExecutor executor{workers, /*max_retries=*/3};
  std::vector<const txn::Transaction*> ptrs;
  for (const txn::Transaction& tx : w.txs) ptrs.push_back(&tx);
  txn::ParallelExecStats stats;
  for (auto _ : state) {
    state::StateDB db = w.genesis;
    const auto receipts = executor.execute_block(ptrs, db, {}, config, &stats);
    db.commit();
    std::uint64_t gas = 0;
    for (const auto& receipt : receipts) {
      if (receipt.is_ok()) gas += receipt.value().gas_used;
    }
    benchmark::DoNotOptimize(gas);
    benchmark::DoNotOptimize(db.state_root());
  }
  state.SetItemsProcessed(state.iterations() * kTxCount);
  state.counters["conflict_rate"] = stats.conflict_rate();
  state.counters["aborts_per_block"] =
      static_cast<double>(stats.aborts) /
      static_cast<double>(state.iterations());
  state.counters["fallback_txs"] =
      static_cast<double>(stats.fallback_txs) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ParallelExec)
    ->Args({kDisjoint, 2})->Args({kDisjoint, 4})->Args({kDisjoint, 8})
    ->Args({kMedium, 4})->Args({kMedium, 8})
    ->Args({kHot, 4})
    ->Args({kNasdaq, 4})->Args({kUber, 4})->Args({kFifa, 4})
    ->Args({kKvDisjoint, 4})->Args({kTopHeavy, 4})->Args({kRouterHot, 4})
    ->Unit(benchmark::kMillisecond)->ArgNames({"workload", "workers"})
    ->UseRealTime();

// Same superblocks through the conflict-aware pre-scheduler. Receipts are
// bit-identical to BM_ParallelExec (the tests enforce it); what changes is
// the schedule — aborts_per_block is the headline number perf_smoke gates.
void BM_HintedExec(benchmark::State& state) {
  const Workload& w = workload(static_cast<WorkloadKind>(state.range(0)));
  evm::analysis::AnalysisCache hint_cache;
  txn::ExecutionConfig config;
  config.analysis_hints = true;
  config.hint_cache = &hint_cache;
  const std::size_t workers = static_cast<std::size_t>(state.range(1));
  txn::ParallelExecutor executor{workers, /*max_retries=*/3};
  std::vector<const txn::Transaction*> ptrs;
  for (const txn::Transaction& tx : w.txs) ptrs.push_back(&tx);
  txn::ParallelExecStats stats;
  for (auto _ : state) {
    state::StateDB db = w.genesis;
    const auto receipts = executor.execute_block(ptrs, db, {}, config, &stats);
    db.commit();
    std::uint64_t gas = 0;
    for (const auto& receipt : receipts) {
      if (receipt.is_ok()) gas += receipt.value().gas_used;
    }
    benchmark::DoNotOptimize(gas);
    benchmark::DoNotOptimize(db.state_root());
  }
  state.SetItemsProcessed(state.iterations() * kTxCount);
  const double iters = static_cast<double>(state.iterations());
  state.counters["conflict_rate"] = stats.conflict_rate();
  state.counters["aborts_per_block"] = static_cast<double>(stats.aborts) / iters;
  state.counters["fallback_txs"] =
      static_cast<double>(stats.fallback_txs) / iters;
  state.counters["hinted_txs"] = static_cast<double>(stats.hinted_txs) / iters;
  state.counters["top_txs"] = static_cast<double>(stats.top_txs) / iters;
  state.counters["deferrals"] =
      static_cast<double>(stats.hint_deferrals) / iters;
  state.counters["violations"] =
      static_cast<double>(stats.hint_violations) / iters;
}
BENCHMARK(BM_HintedExec)
    ->Args({kKvDisjoint, 4})->Args({kKvDisjoint, 8})
    ->Args({kHot, 4})
    ->Args({kMedium, 4})
    ->Args({kNasdaq, 4})->Args({kUber, 4})->Args({kFifa, 4})
    ->Args({kTopHeavy, 4})->Args({kRouterHot, 4})
    ->Unit(benchmark::kMillisecond)->ArgNames({"workload", "workers"})
    ->UseRealTime();

}  // namespace
