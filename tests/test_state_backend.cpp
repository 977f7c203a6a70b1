// Differential suite for the layered state stack (docs/STATE.md).
//
// A StateDB without a backend is the reference. One writing through to a
// memory backend and one writing through to a log-structured backend on disk
// must produce bit-identical state_root() at every commit point of a
// randomized journaled workload, equal to the from-scratch reference root
// (tests/support), and a StateDB reopened over either backend must reproduce
// it, across torn-log recovery, compaction, reverted creates and
// self-destruct/recreate cycles.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "codec/rlp.hpp"
#include "common/rng.hpp"
#include "crypto/keccak.hpp"
#include "state/log_backend.hpp"
#include "state/overlay.hpp"
#include "state/statedb.hpp"
#include "support/reference_trie.hpp"

namespace srbb::state {
namespace {

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

std::string fresh_log_path(const std::string& name) {
  const std::string path =
      (std::filesystem::path{::testing::TempDir()} / name).string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".compact");
  return path;
}

// --- account record codec ---------------------------------------------------

TEST(AccountRecord, RoundTripsRandomAccounts) {
  Rng rng{7};
  for (int i = 0; i < 200; ++i) {
    Account account;
    account.nonce = rng.next_u64();
    account.balance = U256{rng.next_u64()};
    if (rng.next_below(2) == 0) {
      Bytes code(1 + rng.next_below(63));
      for (auto& b : code) b = static_cast<std::uint8_t>(rng.next_u64());
      account.contract_data().code_keccak = crypto::Keccak256::hash(code);
      account.contract_data().code = std::move(code);
    }
    const std::uint64_t slots = rng.next_below(6);
    for (std::uint64_t s = 0; s < slots; ++s) {
      account.contract_data().storage[slot_of(rng.next_below(32))] =
          U256{1 + rng.next_u64()};
    }
    const Bytes record = encode_account_record(account);
    const std::optional<Account> decoded = decode_account_record(record);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->nonce, account.nonce);
    EXPECT_EQ(decoded->balance, account.balance);
    EXPECT_EQ(decoded->code(), account.code());
    EXPECT_EQ(decoded->contract != nullptr, account.contract != nullptr);
    if (!account.code().empty()) {
      EXPECT_EQ(decoded->contract->code_keccak, account.contract->code_keccak);
    }
    EXPECT_EQ(decoded->storage().size(), account.storage().size());
    for (const auto& [slot, value] : account.storage()) {
      ASSERT_TRUE(decoded->storage().contains(slot));
      EXPECT_EQ(decoded->storage().at(slot), value);
    }
  }
}

TEST(AccountRecord, RejectsNonCanonicalRecords) {
  // Wrong arity.
  {
    rlp::ListBuilder three;
    three.add_u64(1);
    three.add_u64(2);
    three.add_u64(3);
    EXPECT_FALSE(decode_account_record(three.build()).has_value());
  }
  // Storage entry with a short slot.
  {
    rlp::ListBuilder entry;
    entry.add_bytes(Bytes(31, 0xAA));
    entry.add_u64(5);
    rlp::ListBuilder storage;
    storage.add_raw(entry.build());
    rlp::ListBuilder record;
    record.add_u64(0);
    record.add_u256(U256::zero());
    record.add_bytes(BytesView{});
    record.add_raw(storage.build());
    EXPECT_FALSE(decode_account_record(record.build()).has_value());
  }
  // Slots out of order (and duplicated) are both rejected.
  for (const std::uint64_t second : {std::uint64_t{1}, std::uint64_t{2}}) {
    rlp::ListBuilder storage;
    for (const std::uint64_t s : {std::uint64_t{2}, second}) {
      rlp::ListBuilder entry;
      entry.add_bytes(slot_of(s).view());
      entry.add_u256(U256{7});
      storage.add_raw(entry.build());
    }
    rlp::ListBuilder record;
    record.add_u64(0);
    record.add_u256(U256::zero());
    record.add_bytes(BytesView{});
    record.add_raw(storage.build());
    EXPECT_FALSE(decode_account_record(record.build()).has_value());
  }
  // Zero-valued slot (never representable in the flat map).
  {
    rlp::ListBuilder entry;
    entry.add_bytes(slot_of(1).view());
    entry.add_u256(U256::zero());
    rlp::ListBuilder storage;
    storage.add_raw(entry.build());
    rlp::ListBuilder record;
    record.add_u64(0);
    record.add_u256(U256::zero());
    record.add_bytes(BytesView{});
    record.add_raw(storage.build());
    EXPECT_FALSE(decode_account_record(record.build()).has_value());
  }
  // Truncated bytes.
  Account account;
  account.nonce = 9;
  Bytes record = encode_account_record(account);
  record.pop_back();
  EXPECT_FALSE(decode_account_record(record).has_value());
}

TEST(Crc32, KnownVector) {
  const std::string data = "123456789";
  EXPECT_EQ(crc32(BytesView{reinterpret_cast<const std::uint8_t*>(data.data()),
                            data.size()}),
            0xCBF43926u);
}

// --- randomized differential workload ---------------------------------------

/// Applies one random journaled op to every db identically. Ops cover
/// create/balance/nonce/code/storage writes (zero writes erase slots),
/// SELFDESTRUCT, recreate-after-destruct, a reverted create, snapshot/revert,
/// and commit (where all roots are compared).
class StateFleet {
 public:
  explicit StateFleet(std::vector<StateDB*> dbs) : dbs_(std::move(dbs)) {}

  /// Applies one op; true when it was a commit.
  bool step(Rng& rng) {
    const Address addr = addr_of(rng.next_below(24));
    switch (rng.next_below(13)) {
      case 0:
      case 1: {
        const U256 delta{1 + rng.next_below(1000)};
        for_each([&](StateDB& db) { db.add_balance(addr, delta); });
        break;
      }
      case 2:
        for_each([&](StateDB& db) { db.increment_nonce(addr); });
        break;
      case 3:
      case 4: {
        const Hash32 slot = slot_of(rng.next_below(8));
        // Zero values exercise EVM slot-clearing.
        const U256 value{rng.next_below(4) == 0 ? 0 : 1 + rng.next_u64() % 1000};
        for_each([&](StateDB& db) { db.set_storage(addr, slot, value); });
        break;
      }
      case 5: {
        Bytes code(rng.next_below(24));
        for (auto& b : code) b = static_cast<std::uint8_t>(rng.next_u64());
        for_each([&](StateDB& db) { db.set_code(addr, code); });
        break;
      }
      case 6:
        for_each([&](StateDB& db) { db.delete_account(addr); });
        break;
      case 7: {
        // Self-destruct then immediately recreate with fresh storage — the
        // old storage must not leak into the recreated account.
        const Hash32 slot = slot_of(rng.next_below(8));
        const U256 value{1 + rng.next_below(100)};
        for_each([&](StateDB& db) {
          db.delete_account(addr);
          db.create_account(addr);
          db.set_storage(addr, slot, value);
        });
        break;
      }
      case 8:
        snapshots_.push_back(take_snapshots());
        break;
      case 10: {
        // Create a fresh account with storage, then revert the create.
        const Address fresh = addr_of(1000 + rng.next_below(8));
        const Hash32 slot = slot_of(rng.next_below(8));
        for_each([&](StateDB& db) {
          const auto before = db.snapshot();
          db.add_balance(fresh, U256{7});
          db.set_storage(fresh, slot, U256{9});
          db.revert_to(before);
        });
        break;
      }
      case 9:
        if (!snapshots_.empty()) {
          const auto snaps = snapshots_.back();
          snapshots_.pop_back();
          for (std::size_t i = 0; i < dbs_.size(); ++i) {
            dbs_[i]->revert_to(snaps[i]);
          }
        }
        break;
      default:
        commit_and_check();
        return true;
    }
    return false;
  }

  void commit_and_check() {
    snapshots_.clear();
    for_each([](StateDB& db) { db.commit(); });
    const Hash32 root = state_root_mpt_full(*dbs_[0]);
    for (std::size_t i = 0; i < dbs_.size(); ++i) {
      ASSERT_EQ(dbs_[i]->state_root(), root) << "db " << i;
      ASSERT_EQ(dbs_[i]->account_count(), dbs_[0]->account_count())
          << "db " << i;
    }
  }

 private:
  template <typename Fn>
  void for_each(Fn fn) {
    for (StateDB* db : dbs_) fn(*db);
  }
  std::vector<StateView::Snapshot> take_snapshots() {
    std::vector<StateView::Snapshot> snaps;
    snaps.reserve(dbs_.size());
    for (StateDB* db : dbs_) snaps.push_back(db->snapshot());
    return snaps;
  }

  std::vector<StateDB*> dbs_;
  std::vector<std::vector<StateView::Snapshot>> snapshots_;
};

/// A StateDB reopened over `backend` must reproduce `live` exactly.
void expect_reopens_to(const StateDB& live,
                       std::shared_ptr<StorageBackend> backend) {
  const StateDB reopened{std::move(backend)};
  ASSERT_EQ(reopened.account_count(), live.account_count());
  ASSERT_EQ(reopened.state_root(), live.state_root());
}

// Regression (found by the differential suite): a self-destruct followed by a
// recreate, with the recreate reverted, must still erase the record at
// commit, or a reopen resurrects the stale account.
TEST(StateBackend, RevertedRecreateAfterDeleteStillFlushesDeletion) {
  auto backend = std::make_shared<MemoryBackend>();
  StateDB db{backend};
  StateDB reference;
  const Address victim = addr_of(7);
  for (StateDB* d : {&db, &reference}) {
    d->add_balance(victim, U256{33});
    d->set_storage(victim, slot_of(1), U256{9});
    d->commit();

    d->delete_account(victim);
    const auto mid = d->snapshot();
    d->create_account(victim);          // recreate after the delete
    d->add_balance(victim, U256{1});
    d->revert_to(mid);                  // back to "deleted"
    d->commit();
    EXPECT_FALSE(d->account_exists(victim));
  }
  EXPECT_EQ(backend->get(victim), std::nullopt);
  EXPECT_EQ(db.state_root(), reference.state_root());
  EXPECT_EQ(db.state_root(), state_root_mpt_full(db));
  expect_reopens_to(reference, backend);

  // The double-delete variant: delete, recreate, delete again, then a full
  // revert must restore the original.
  for (StateDB* d : {&db, &reference}) {
    d->add_balance(victim, U256{5});
    d->commit();
    const auto base = d->snapshot();
    d->delete_account(victim);
    d->create_account(victim);
    d->delete_account(victim);
    d->revert_to(base);
    d->commit();
    EXPECT_EQ(d->balance(victim), U256{5});
  }
  EXPECT_EQ(db.state_root(), reference.state_root());
  expect_reopens_to(reference, backend);
}

class StateBackendDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(StateBackendDifferential, AllConfigurationsAgreeAtEveryCommit) {
  const std::uint64_t seed = GetParam();
  StateDB reference;  // no backend

  const auto memory = std::make_shared<MemoryBackend>();
  StateDB in_memory{memory};

  const std::string log_path =
      fresh_log_path("srbb_diff_" + std::to_string(seed) + ".log");
  StateDB logged{std::make_shared<LogBackend>(log_path)};

  // Every commit is durable: reopening either backend reproduces the state.
  const auto check_reopen = [&] {
    expect_reopens_to(reference, memory);
    expect_reopens_to(reference, std::make_shared<LogBackend>(log_path));
  };
  StateFleet fleet{{&reference, &in_memory, &logged}};
  Rng rng{seed};
  for (int step = 0; step < 300; ++step) {
    if (fleet.step(rng)) check_reopen();
  }
  fleet.commit_and_check();
  check_reopen();
}

INSTANTIATE_TEST_SUITE_P(Seeds, StateBackendDifferential,
                         ::testing::Range(std::uint64_t{0}, std::uint64_t{24}));

// --- speculation over a backed state ----------------------------------------

TEST(StateBackend, OverlaySpeculationOverBackedState) {
  auto backend = std::make_shared<MemoryBackend>();
  StateDB db{backend};
  StateDB reference;
  for (std::uint64_t i = 0; i < 6; ++i) {
    db.add_balance(addr_of(i), U256{50});
    reference.add_balance(addr_of(i), U256{50});
  }
  db.commit();
  reference.commit();

  // Speculate over the backed state; the commit writes the result through.
  OverlayState overlay{db};
  EXPECT_EQ(overlay.balance(addr_of(3)), U256{50});
  overlay.set_balance(addr_of(3), U256{20});
  overlay.add_balance(addr_of(4), U256{30});
  EXPECT_TRUE(overlay.validate(db));
  overlay.apply_to(db);
  db.commit();

  reference.set_balance(addr_of(3), U256{20});
  reference.add_balance(addr_of(4), U256{30});
  reference.commit();
  EXPECT_EQ(db.state_root(), reference.state_root());
  expect_reopens_to(reference, backend);
}

// More accounts written between two roots than LeanTrie::kParallelRehashKeys,
// so the account trie re-hashes its top subtries on the shared pool.
TEST(StateBackend, LargeDirtySetTakesParallelPath) {
  auto backend = std::make_shared<MemoryBackend>();
  StateDB db{backend};
  StateDB reference;
  StateFleet fleet{{&reference, &db}};
  for (std::uint64_t i = 0; i < 2000; ++i) {
    for (StateDB* d : {&db, &reference}) d->add_balance(addr_of(i), U256{i + 1});
  }
  fleet.commit_and_check();
  Rng rng{5};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1500; ++i) {
      const Address a = addr_of(rng.next_below(2500));
      const Hash32 slot = slot_of(rng.next_below(4));
      const U256 value{rng.next_below(3)};  // zero writes erase
      const bool destruct = rng.next_below(16) == 0;
      for (StateDB* d : {&db, &reference}) {
        if (destruct) {
          d->delete_account(a);
        } else {
          d->add_balance(a, U256{1});
          d->set_storage(a, slot, value);
        }
      }
    }
    fleet.commit_and_check();
    expect_reopens_to(reference, backend);
  }
}

// --- log backend: reopen, crash safety, compaction ---------------------------

TEST(LogBackendReopen, StateSurvivesCloseAndReopen) {
  const std::string path = fresh_log_path("srbb_reopen.log");
  StateDB reference;
  Hash32 root;
  {
    StateDB db{std::make_shared<LogBackend>(path)};
    StateFleet fleet{{&reference, &db}};
    Rng rng{42};
    for (int step = 0; step < 200; ++step) fleet.step(rng);
    fleet.commit_and_check();
    root = db.state_root();
  }  // db and backend destroyed; the log file holds the state

  StateDB reopened{std::make_shared<LogBackend>(path)};
  EXPECT_EQ(reopened.state_root(), root);
  EXPECT_EQ(state_root_mpt_full(reopened), root);
  EXPECT_EQ(reopened.account_count(), reference.account_count());
}

TEST(LogBackendRecovery, TornTailIsDroppedOnReopen) {
  const std::string path = fresh_log_path("srbb_torn.log");
  Hash32 root;
  {
    StateDB db{std::make_shared<LogBackend>(path)};
    db.add_balance(addr_of(1), U256{11});
    db.set_storage(addr_of(1), slot_of(1), U256{7});
    db.add_balance(addr_of(2), U256{22});
    db.commit();
    root = db.state_root();
  }
  // A crash mid-append leaves a torn suffix.
  {
    std::ofstream out{path, std::ios::binary | std::ios::app};
    const char garbage[] = {0x00, 0x14, 0x00};  // looks like a frame start
    out.write(garbage, sizeof garbage);
  }
  auto backend = std::make_shared<LogBackend>(path);
  EXPECT_GT(backend->stats().torn_bytes_dropped, 0u);
  StateDB reopened{backend};
  EXPECT_EQ(reopened.state_root(), root);
}

TEST(LogBackendRecovery, CorruptFinalRecordRollsBackToPreviousFlush) {
  const std::string path = fresh_log_path("srbb_corrupt.log");
  Hash32 root_before_last;
  std::uint64_t bytes_before_last = 0;
  {
    StateDB db{std::make_shared<LogBackend>(path)};
    db.add_balance(addr_of(1), U256{11});
    db.commit();
    root_before_last = db.state_root();
    bytes_before_last = static_cast<LogBackend*>(db.backend())->file_bytes();
    db.add_balance(addr_of(2), U256{22});
    db.commit();
  }
  // Flip the last byte (inside the final record's CRC): that record must be
  // dropped, restoring exactly the previous durable state.
  {
    std::fstream file{path, std::ios::binary | std::ios::in | std::ios::out};
    file.seekp(-1, std::ios::end);
    file.put('\x5A');
  }
  auto backend = std::make_shared<LogBackend>(path);
  EXPECT_GT(backend->stats().torn_bytes_dropped, 0u);
  EXPECT_EQ(backend->file_bytes(), bytes_before_last);
  StateDB reopened{backend};
  EXPECT_EQ(reopened.state_root(), root_before_last);
  EXPECT_FALSE(reopened.account_exists(addr_of(2)));
}

TEST(LogBackendCompaction, DropsSupersededRecordsAndPreservesState) {
  const std::string path = fresh_log_path("srbb_compact.log");
  auto backend = std::make_shared<LogBackend>(path);
  StateDB db{backend};
  for (int round = 0; round < 20; ++round) {
    db.add_balance(addr_of(1), U256{1});
    db.add_balance(addr_of(2), U256{2});
    db.commit();
  }
  db.delete_account(addr_of(2));
  db.commit();
  const Hash32 root = db.state_root();
  const std::uint64_t before = backend->file_bytes();
  backend->compact();
  EXPECT_LT(backend->file_bytes(), before);
  EXPECT_EQ(backend->stats().compactions, 1u);
  EXPECT_EQ(db.state_root(), root);
  EXPECT_EQ(db.balance(addr_of(1)), U256{20});
  EXPECT_FALSE(db.account_exists(addr_of(2)));

  // The compacted file reopens to the same state.
  backend.reset();
  StateDB reopened{std::make_shared<LogBackend>(path)};
  EXPECT_EQ(reopened.state_root(), root);
}

}  // namespace
}  // namespace srbb::state
