// State-stack microbenchmarks (docs/STATE.md, EXPERIMENTS.md "State stack"):
//
//   BM_StateRootMptIncremental / BM_StateRootMptFull
//       StateDB::state_root() after a small write burst vs the from-scratch
//       reference rebuild (tests/support), swept over 10^4..10^6 accounts.
//       The ratio is gated by tools/perf_smoke.sh (incremental must win by
//       >=10x at 10^5).
//   BM_StateRootBuild
//       the first root at 2x10^5 accounts with scattered addresses, which
//       builds the trie: time, and the bytes it holds per account.
//   BM_HotRead_Resident
//       hot-read latency of the flat account map.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>

#include <unistd.h>

// mallinfo2() exists from glibc 2.33 on.
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
#define SRBB_HAS_MALLINFO2 1
#include <malloc.h>
#endif

#include "common/rng.hpp"
#include "crypto/keccak.hpp"
#include "state/statedb.hpp"
#include "support/reference_trie.hpp"

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
  StateDB db;
  populate(db, n);
  benchmark::DoNotOptimize(db.state_root());  // build once outside timing

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
    benchmark::DoNotOptimize(db.state_root());
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
    benchmark::DoNotOptimize(state_root_mpt_full(db));
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

/// Resident set size of this process, from /proc/self/statm.
std::size_t rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0;
  unsigned long resident = 0;
  const int read = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return read == 2 ? resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE)) : 0;
}

/// Heap bytes in use (glibc), mmapped blocks included; 0 elsewhere.
std::size_t heap_bytes() {
#if defined(SRBB_HAS_MALLINFO2)
  const struct mallinfo2 info = mallinfo2();
  return info.uordblks + info.hblkhd;
#else
  return 0;
#endif
}

// One iteration: the first root builds the trie, so repeating it would
// time a rebuild into memory the previous trie freed and read no RSS growth.
void BM_StateRootBuild(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  StateDB db;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::uint8_t seed[8];
    put_be64(seed, i);
    Address a;
    const Hash32 h = crypto::Keccak256::hash(BytesView{seed, 8});
    std::copy(h.data.begin(), h.data.begin() + 20, a.data.begin());
    db.add_balance(a, U256{1'000'000 + i});
  }
  db.commit();
  double rss_per_account = 0;
  double heap_per_account = 0;
  for (auto _ : state) {
#if defined(SRBB_HAS_MALLINFO2)
    // Hand free heap pages back first, so the trie's nodes cannot land in
    // pages that are already resident and read as no RSS growth.
    malloc_trim(0);
#endif
    const std::size_t rss_before = rss_bytes();
    const std::size_t heap_before = heap_bytes();
    benchmark::DoNotOptimize(db.state_root());
    rss_per_account = static_cast<double>(rss_bytes() - rss_before) /
                      static_cast<double>(n);
    heap_per_account = static_cast<double>(heap_bytes() - heap_before) /
                       static_cast<double>(n);
  }
  state.counters["rss_bytes_per_account"] = rss_per_account;
  state.counters["heap_bytes_per_account"] = heap_per_account;
}
BENCHMARK(BM_StateRootBuild)
    ->ArgName("accounts")
    ->Arg(200'000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace
