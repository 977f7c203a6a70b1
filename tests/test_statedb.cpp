#include "state/statedb.hpp"

#include <gtest/gtest.h>

// mallinfo2() exists from glibc 2.33 on.
#if defined(__GLIBC__) && __GLIBC_PREREQ(2, 33)
#define SRBB_HAS_MALLINFO2 1
#include <malloc.h>
#endif

#include "common/rng.hpp"
#include "crypto/keccak.hpp"
#include "state/overlay.hpp"
#include "support/reference_trie.hpp"

namespace srbb::state {
namespace {

Address addr(std::uint8_t tag) {
  Address a;
  a[19] = tag;
  return a;
}

Hash32 key(std::uint8_t tag) {
  Hash32 k;
  k[31] = tag;
  return k;
}

TEST(StateDB, MissingAccountReadsAreZero) {
  StateDB db;
  EXPECT_FALSE(db.account_exists(addr(1)));
  EXPECT_EQ(db.balance(addr(1)), U256::zero());
  EXPECT_EQ(db.nonce(addr(1)), 0u);
  EXPECT_TRUE(db.code(addr(1)).empty());
  EXPECT_EQ(db.storage(addr(1), key(1)), U256::zero());
}

TEST(StateDB, BalanceLifecycle) {
  StateDB db;
  db.add_balance(addr(1), U256{100});
  EXPECT_TRUE(db.account_exists(addr(1)));
  EXPECT_EQ(db.balance(addr(1)), U256{100});
  EXPECT_TRUE(db.sub_balance(addr(1), U256{30}));
  EXPECT_EQ(db.balance(addr(1)), U256{70});
  EXPECT_FALSE(db.sub_balance(addr(1), U256{71}));
  EXPECT_EQ(db.balance(addr(1)), U256{70});  // unchanged on failure
}

TEST(StateDB, NonceIncrement) {
  StateDB db;
  db.increment_nonce(addr(2));
  db.increment_nonce(addr(2));
  EXPECT_EQ(db.nonce(addr(2)), 2u);
}

TEST(StateDB, CodeAndHash) {
  StateDB db;
  const Bytes code{0x60, 0x01};
  db.set_code(addr(3), code);
  EXPECT_EQ(db.code(addr(3)), code);
  EXPECT_NE(db.code_keccak(addr(3)), db.code_keccak(addr(4)));  // vs empty
}

TEST(StateDB, StorageZeroWriteClearsSlot) {
  StateDB db;
  db.set_storage(addr(1), key(1), U256{9});
  EXPECT_EQ(db.storage(addr(1), key(1)), U256{9});
  db.set_storage(addr(1), key(1), U256::zero());
  EXPECT_EQ(db.storage(addr(1), key(1)), U256::zero());
}

TEST(StateDB, DeleteAccount) {
  StateDB db;
  db.add_balance(addr(5), U256{10});
  db.set_storage(addr(5), key(1), U256{1});
  db.delete_account(addr(5));
  EXPECT_FALSE(db.account_exists(addr(5)));
  EXPECT_EQ(db.storage(addr(5), key(1)), U256::zero());
}

TEST(StateDBJournal, RevertUndoesEverything) {
  StateDB db;
  db.add_balance(addr(1), U256{100});
  db.commit();
  const Hash32 base_root = db.state_root();

  const auto snap = db.snapshot();
  db.add_balance(addr(1), U256{5});
  db.increment_nonce(addr(1));
  db.set_code(addr(2), Bytes{0x01});
  db.set_storage(addr(1), key(7), U256{7});
  db.create_account(addr(9));
  db.delete_account(addr(1));
  db.revert_to(snap);

  EXPECT_EQ(db.state_root(), base_root);
  EXPECT_EQ(db.balance(addr(1)), U256{100});
  EXPECT_EQ(db.nonce(addr(1)), 0u);
  EXPECT_FALSE(db.account_exists(addr(2)));
  EXPECT_FALSE(db.account_exists(addr(9)));
}

TEST(StateDBJournal, NestedSnapshots) {
  StateDB db;
  db.add_balance(addr(1), U256{10});
  const auto outer = db.snapshot();
  db.add_balance(addr(1), U256{10});
  const auto inner = db.snapshot();
  db.add_balance(addr(1), U256{10});
  EXPECT_EQ(db.balance(addr(1)), U256{30});
  db.revert_to(inner);
  EXPECT_EQ(db.balance(addr(1)), U256{20});
  db.revert_to(outer);
  EXPECT_EQ(db.balance(addr(1)), U256{10});
}

TEST(StateDBJournal, RevertRestoresDeletedAccountFully) {
  StateDB db;
  db.add_balance(addr(1), U256{10});
  db.set_storage(addr(1), key(1), U256{5});
  db.set_code(addr(1), Bytes{0xaa});
  db.commit();
  const auto snap = db.snapshot();
  db.delete_account(addr(1));
  db.revert_to(snap);
  EXPECT_EQ(db.balance(addr(1)), U256{10});
  EXPECT_EQ(db.storage(addr(1), key(1)), U256{5});
  EXPECT_EQ(db.code(addr(1)), (Bytes{0xaa}));
}

TEST(StateDBJournal, CommitMakesChangesPermanentAgainstRevert) {
  StateDB db;
  const auto snap = db.snapshot();
  db.add_balance(addr(1), U256{10});
  db.commit();
  db.revert_to(snap);  // no-op: journal is empty after commit
  EXPECT_EQ(db.balance(addr(1)), U256{10});
}

TEST(StateDBJournal, RevertStorageToPreviousNonZero) {
  StateDB db;
  db.set_storage(addr(1), key(1), U256{1});
  db.commit();
  const auto snap = db.snapshot();
  db.set_storage(addr(1), key(1), U256{2});
  db.set_storage(addr(1), key(1), U256::zero());
  db.revert_to(snap);
  EXPECT_EQ(db.storage(addr(1), key(1)), U256{1});
}

TEST(StateRoot, DeterministicAcrossInsertionOrder) {
  StateDB a;
  StateDB b;
  // Insert the same accounts in opposite orders.
  for (int i = 0; i < 20; ++i) {
    a.add_balance(addr(static_cast<std::uint8_t>(i)), U256{static_cast<std::uint64_t>(i)});
    a.set_storage(addr(static_cast<std::uint8_t>(i)), key(1), U256{7});
  }
  for (int i = 19; i >= 0; --i) {
    b.set_storage(addr(static_cast<std::uint8_t>(i)), key(1), U256{7});
    b.add_balance(addr(static_cast<std::uint8_t>(i)), U256{static_cast<std::uint64_t>(i)});
  }
  EXPECT_EQ(a.state_root(), b.state_root());
}

TEST(StateRoot, SensitiveToEveryField) {
  StateDB base;
  base.add_balance(addr(1), U256{1});
  const Hash32 root = base.state_root();

  StateDB balance_diff;
  balance_diff.add_balance(addr(1), U256{2});
  EXPECT_NE(balance_diff.state_root(), root);

  StateDB nonce_diff;
  nonce_diff.add_balance(addr(1), U256{1});
  nonce_diff.increment_nonce(addr(1));
  EXPECT_NE(nonce_diff.state_root(), root);

  StateDB code_diff;
  code_diff.add_balance(addr(1), U256{1});
  code_diff.set_code(addr(1), Bytes{0x00});
  EXPECT_NE(code_diff.state_root(), root);

  StateDB storage_diff;
  storage_diff.add_balance(addr(1), U256{1});
  storage_diff.set_storage(addr(1), key(1), U256{1});
  EXPECT_NE(storage_diff.state_root(), root);

  StateDB addr_diff;
  addr_diff.add_balance(addr(2), U256{1});
  EXPECT_NE(addr_diff.state_root(), root);
}

TEST(StateRoot, EmptyStatesAgree) {
  StateDB a;
  StateDB b;
  EXPECT_EQ(a.state_root(), b.state_root());
}

TEST(StateRootMpt, DeterministicAcrossInsertionOrder) {
  StateDB a;
  StateDB b;
  for (int i = 0; i < 15; ++i) {
    a.add_balance(addr(static_cast<std::uint8_t>(i)), U256{7});
    a.set_storage(addr(static_cast<std::uint8_t>(i)), key(2), U256{9});
  }
  for (int i = 14; i >= 0; --i) {
    b.set_storage(addr(static_cast<std::uint8_t>(i)), key(2), U256{9});
    b.add_balance(addr(static_cast<std::uint8_t>(i)), U256{7});
  }
  EXPECT_EQ(a.state_root(), b.state_root());
}

TEST(StateRootMpt, SensitiveToEveryField) {
  StateDB base;
  base.add_balance(addr(1), U256{1});
  const Hash32 root = base.state_root();

  StateDB nonce_diff;
  nonce_diff.add_balance(addr(1), U256{1});
  nonce_diff.increment_nonce(addr(1));
  EXPECT_NE(nonce_diff.state_root(), root);

  StateDB storage_diff;
  storage_diff.add_balance(addr(1), U256{1});
  storage_diff.set_storage(addr(1), key(1), U256{1});
  EXPECT_NE(storage_diff.state_root(), root);

  StateDB code_diff;
  code_diff.add_balance(addr(1), U256{1});
  code_diff.set_code(addr(1), Bytes{0x60});
  EXPECT_NE(code_diff.state_root(), root);
}

TEST(StateRoot, MemoizedRootTracksWritesAndReverts) {
  // Branch memos survive between roots and only written keys are re-synced;
  // the result must stay indistinguishable from a fresh recompute.
  StateDB db;
  db.add_balance(addr(1), U256{5});
  const Hash32 first = db.state_root();
  EXPECT_EQ(db.state_root(), first);  // repeat root, same digest
  db.add_balance(addr(2), U256{9});
  const Hash32 second = db.state_root();
  EXPECT_NE(second, first);
  const auto snap = db.snapshot();
  db.set_storage(addr(2), key(1), U256{3});
  EXPECT_NE(db.state_root(), second);
  db.revert_to(snap);  // revert must invalidate the memos too
  EXPECT_EQ(db.state_root(), second);
  db.delete_account(addr(2));
  EXPECT_EQ(db.state_root(), first);
  EXPECT_EQ(db.state_root(), state_root_mpt_full(db));
}

TEST(StateRootMpt, TracksRevert) {
  StateDB db;
  db.add_balance(addr(1), U256{5});
  db.commit();
  const Hash32 before = db.state_root();
  const auto snap = db.snapshot();
  db.add_balance(addr(2), U256{9});
  EXPECT_NE(db.state_root(), before);
  db.revert_to(snap);
  EXPECT_EQ(db.state_root(), before);
}

TEST(StateRootMpt, IndependentOfInsertionOrder) {
  // Regression: the root computations used to walk the unordered account
  // map directly, so replicas whose maps had different bucket histories
  // could (in principle) disagree. Roots are now derived over sorted keys;
  // populating the same state in opposite orders must yield identical
  // commitments.
  StateDB forward;
  StateDB backward;
  for (int i = 1; i <= 24; ++i) {
    forward.add_balance(addr(i), U256{static_cast<std::uint64_t>(i)});
    forward.set_storage(addr(i), key(i), U256{7});
    forward.set_storage(addr(i), key(i + 100), U256{9});
  }
  for (int i = 24; i >= 1; --i) {
    backward.set_storage(addr(i), key(i + 100), U256{9});
    backward.set_storage(addr(i), key(i), U256{7});
    backward.add_balance(addr(i), U256{static_cast<std::uint64_t>(i)});
  }
  forward.commit();
  backward.commit();
  EXPECT_EQ(forward.state_root(), backward.state_root());
}

TEST(StateDB, CodeKeccakIsMemoizedBySetCode) {
  StateDB db;
  EXPECT_EQ(db.code_keccak(addr(1)), empty_code_keccak());  // no account
  const Bytes code{0x60, 0x01, 0x00};
  db.set_code(addr(1), code);
  EXPECT_EQ(db.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{code}));
  // Overwriting code refreshes the memo.
  const Bytes other{0x60, 0x02, 0x00};
  db.set_code(addr(1), other);
  EXPECT_EQ(db.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{other}));
}

TEST(StateDB, CodeKeccakSurvivesRevert) {
  StateDB db;
  const Bytes before{0x60, 0x01, 0x00};
  db.set_code(addr(1), before);
  const auto snap = db.snapshot();
  db.set_code(addr(1), Bytes{0xfe});
  db.revert_to(snap);
  EXPECT_EQ(db.code(addr(1)), before);
  EXPECT_EQ(db.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{before}));
}

TEST(Overlay, CodeKeccakRoutesThroughBuffer) {
  StateDB base;
  const Bytes base_code{0x60, 0x01, 0x00};
  base.set_code(addr(1), base_code);
  OverlayState overlay{base};
  // Unmodified account: overlay serves the base memo.
  EXPECT_EQ(overlay.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{base_code}));
  // Buffered write: the overlay hashes its pending code, base untouched.
  const Bytes pending{0x60, 0x02, 0x00};
  overlay.set_code(addr(1), pending);
  EXPECT_EQ(overlay.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{pending}));
  EXPECT_EQ(base.code_keccak(addr(1)),
            crypto::Keccak256::hash(BytesView{base_code}));
  // Code-less address: the canonical empty-code hash.
  EXPECT_EQ(overlay.code_keccak(addr(9)), empty_code_keccak());
}

// A burst of writes large enough (more than LeanTrie::kParallelRehashKeys
// touched accounts) that the account trie re-hashes its top subtries on the
// shared pool, mixed with storage writes, zero writes, deletions and
// recreations; every root must equal the from-scratch reference.
TEST(StateRootParallel, LargeDirtySetMatchesReference) {
  Rng rng{77};
  StateDB db;
  const auto account = [](std::uint64_t i) {
    Address a;
    put_be64(a.data.data() + 4, i * 0x9e3779b97f4a7c15ull);
    return a;
  };
  for (std::uint64_t i = 0; i < 3000; ++i) {
    db.add_balance(account(i), U256{1 + i});
    if (i % 10 == 0) {
      db.set_storage(account(i), key(static_cast<std::uint8_t>(i % 7)),
                     U256{i + 1});
    }
  }
  db.commit();
  ASSERT_EQ(db.state_root(), state_root_mpt_full(db));
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 1500; ++i) {
      const Address a = account(rng.next_below(3500));
      switch (rng.next_below(8)) {
        case 0:
          db.delete_account(a);
          break;
        case 1:
          db.set_storage(a, key(static_cast<std::uint8_t>(rng.next_below(5))),
                         U256{rng.next_below(3)});  // zero writes erase
          break;
        case 2:
          db.set_code(a, Bytes{0x60, static_cast<std::uint8_t>(i)});
          break;
        default:
          db.add_balance(a, U256{1});
          db.increment_nonce(a);
      }
    }
    db.commit();
    ASSERT_EQ(db.state_root(), state_root_mpt_full(db)) << "round " << round;
  }
}

// Sanitizer runtimes replace malloc, so glibc's statistics do not see it.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SRBB_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define SRBB_MALLOC_REPLACED 1
#endif
#endif

TEST(StateDB, CommitReleasesGenesisSizedJournal) {
#if !defined(SRBB_HAS_MALLINFO2) || defined(SRBB_MALLOC_REPLACED)
  GTEST_SKIP() << "needs glibc's (2.33+) own allocator statistics";
#else
  constexpr std::uint32_t kAccounts = 100'000;
  StateDB db;
  for (std::uint32_t i = 0; i < kAccounts; ++i) {
    Address a;
    put_be32(a.data.data() + 16, i + 1);
    db.add_balance(a, U256{1});
  }
  // Bytes in use on the heap plus in mmapped blocks: glibc serves an
  // allocation as large as this journal with mmap, outside uordblks.
  const auto in_use = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const std::size_t before = in_use();
  db.commit();
  const std::size_t after = in_use();
  // Each account journaled a create and a balance change, each entry well
  // over 100 bytes; commit() must hand that memory back.
  EXPECT_LT(after + std::size_t{kAccounts} * 2 * 100, before);
#endif
}

TEST(StateDbInvariants, RevertToStaleSnapshotAborts) {
  // SRBB_CHECK (common/invariant.hpp) turns an out-of-range revert — a
  // corrupted snapshot token — into an immediate abort instead of silent
  // journal corruption.
  StateDB db;
  db.add_balance(addr(1), U256{5});
  const auto bogus = db.snapshot() + 17;
  EXPECT_DEATH(db.revert_to(bogus), "SRBB_CHECK");
}

}  // namespace
}  // namespace srbb::state
