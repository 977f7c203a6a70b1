// Superblock execution through the real node::ExecutionOracle, the call a
// validator makes at commit: the batch signature check of every
// transaction, sequential execution, then the incremental state root.
//
//   BM_OracleExecute/accounts:N
//       one superblock of 8 blocks x 256 Ed25519-signed transfers (distinct
//       funded senders, recipients spread over the pre-funded accounts) on a
//       state of N accounts. Each iteration resets the oracle to genesis and
//       builds its state trie outside the timed region, then executes
//       index 0. Times are wall clock
//       (UseRealTime): the signature check runs on the oracle's process-wide
//       pool, so main-thread CPU time would hide it. items_per_second counts
//       transactions.
//
// tools/perf_smoke.sh gate 7 bounds the real time per transaction at 10^4
// accounts by a multiple of one BM_Ed25519_Verify.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "srbb/oracle.hpp"

namespace {

using namespace srbb;

constexpr std::uint64_t kBlocks = 8;
constexpr std::uint64_t kTxsPerBlock = 256;
constexpr std::uint64_t kTxs = kBlocks * kTxsPerBlock;

const crypto::SignatureScheme& scheme() {
  return crypto::SignatureScheme::ed25519();
}

Address extra_address(std::uint64_t i) {
  Address a{};
  a[0] = 0xEE;
  put_be64(a.data.data() + 12, i);
  return a;
}

struct Fixture {
  node::GenesisSpec genesis;
  std::vector<txn::BlockPtr> blocks;
};

Fixture make_fixture(std::uint64_t accounts) {
  Fixture f;
  std::vector<crypto::Identity> senders;
  senders.reserve(kTxs);
  for (std::uint64_t i = 0; i < kTxs; ++i) {
    senders.push_back(scheme().make_identity(1'000 + i));
    f.genesis.accounts.push_back({senders.back().address(), U256{1'000'000'000}});
  }
  const std::uint64_t extra = accounts > kTxs ? accounts - kTxs : 1;
  for (std::uint64_t i = 0; i < extra; ++i) {
    f.genesis.accounts.push_back({extra_address(i), U256{1'000}});
  }
  Rng rng{accounts};
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    std::vector<txn::TxPtr> txs;
    for (std::uint64_t j = 0; j < kTxsPerBlock; ++j) {
      txn::TxParams params;
      params.gas_limit = 21'000;
      params.to = extra_address(rng.next_below(extra));
      params.value = U256{1};
      txs.push_back(txn::make_tx_ptr(txn::make_signed(
          params, senders[b * kTxsPerBlock + j], scheme())));
    }
    f.blocks.push_back(std::make_shared<const txn::Block>(
        txn::make_block(0, b, 0, Hash32{}, std::move(txs),
                        scheme().make_identity(b), scheme())));
  }
  return f;
}

void BM_OracleExecute(benchmark::State& state) {
  const Fixture f = make_fixture(static_cast<std::uint64_t>(state.range(0)));
  node::ExecutionOracle oracle{f.genesis, {}, scheme()};
  std::uint64_t valid = 0;
  for (auto _ : state) {
    state.PauseTiming();
    oracle.reset();
    // A validator builds its state trie once, at its first root; every
    // later superblock pays only the incremental re-hash timed here.
    benchmark::DoNotOptimize(oracle.db().state_root());
    state.ResumeTiming();
    valid = oracle.execute(0, f.blocks).total_valid;
  }
  if (valid != kTxs) state.SkipWithError("a transfer did not commit");
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kTxs));
}
BENCHMARK(BM_OracleExecute)
    ->Arg(10'000)
    ->Arg(200'000)
    ->ArgNames({"accounts"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
