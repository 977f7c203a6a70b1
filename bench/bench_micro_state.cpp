// State-stack microbenchmarks (docs/STATE.md, EXPERIMENTS.md "State stack"):
//
//   BM_StateRootMptIncremental / BM_StateRootMptFull
//       incremental node-cached MPT root after a small write burst vs a
//       from-scratch rebuild, swept over 10^4..10^6 accounts. The ratio is
//       gated by tools/perf_smoke.sh (incremental must win by >=10x at 10^5).
//   BM_HotRead_Resident
//       hot-read latency of the flat account map.
//   BM_CommitPath
//       per-block commit + root publication with deferred roots off/on —
//       the flat-per-tx-latency evidence for the DIABLO-shaped run.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "common/rng.hpp"
#include "state/statedb.hpp"

namespace {

using namespace srbb;
using namespace srbb::state;

Address addr_of(std::uint64_t i) {
  Address a{};
  put_be64(a.data.data() + 12, i);
  return a;
}

Hash32 slot_of(std::uint64_t i) {
  Hash32 h{};
  put_be64(h.data.data() + 24, i);
  return h;
}

/// `n` externally-owned accounts plus n/16 small contracts.
void populate(StateDB& db, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    db.add_balance(addr_of(i), U256{1'000'000 + i});
    if (i % 16 == 0) {
      db.set_storage(addr_of(i), slot_of(i % 4), U256{i + 1});
    }
  }
  db.commit();
}

void BM_StateRootMptIncremental(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  StateConfig cfg;
  cfg.trie_node_cache_limit = 4 * n;  // memoized refs stay resident
  StateDB db{cfg};
  populate(db, n);
  benchmark::DoNotOptimize(db.state_root_mpt());  // build once outside timing

  Rng rng{n};
  for (auto _ : state) {
    // A block-sized burst: 64 balance writes + 8 storage writes.
    for (int i = 0; i < 64; ++i) {
      db.add_balance(addr_of(rng.next_below(n)), U256{1});
    }
    for (int i = 0; i < 8; ++i) {
      db.set_storage(addr_of(rng.next_below(n)), slot_of(i % 4),
                     U256{1 + rng.next_below(100)});
    }
    db.commit();
    benchmark::DoNotOptimize(db.state_root_mpt());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateRootMptIncremental)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Arg(1'000'000)
    ->Unit(benchmark::kMicrosecond);

void BM_StateRootMptFull(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  StateDB db;
  populate(db, n);

  Rng rng{n};
  for (auto _ : state) {
    db.add_balance(addr_of(rng.next_below(n)), U256{1});
    db.commit();
    benchmark::DoNotOptimize(db.state_root_mpt_full());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateRootMptFull)
    ->Arg(10'000)
    ->Arg(100'000)
    ->Unit(benchmark::kMicrosecond);

void BM_HotRead_Resident(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  StateDB db;
  populate(db, n);
  Rng rng{7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(db.balance(addr_of(rng.next_below(n))));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HotRead_Resident)->Arg(100'000);

void BM_CommitPath(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  const bool defer = state.range(1) != 0;
  StateConfig cfg;
  cfg.trie_node_cache_limit = 4 * n;
  StateDB db{cfg};
  populate(db, n);
  benchmark::DoNotOptimize(db.state_root_mpt());

  Rng rng{n};
  std::uint64_t index = 0;
  Hash32 last_root{};
  for (auto _ : state) {
    // One DIABLO-shaped block: 128 transfers over a uniform account set.
    for (int i = 0; i < 128; ++i) {
      const Address from = addr_of(rng.next_below(n));
      const Address to = addr_of(rng.next_below(n));
      db.sub_balance(from, U256{1});
      db.add_balance(to, U256{1});
      db.increment_nonce(from);
    }
    db.commit();
    // Deferred mode publishes the memoized root except every 8th block —
    // the oracle's StateConfig::root_interval default.
    if (!defer || index % 8 == 0) {
      last_root = db.state_root_mpt();
    }
    benchmark::DoNotOptimize(last_root);
    ++index;
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_CommitPath)
    ->Args({10'000, 0})
    ->Args({10'000, 1})
    ->Args({100'000, 0})
    ->Args({100'000, 1})
    ->Args({1'000'000, 0})
    ->Args({1'000'000, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace
