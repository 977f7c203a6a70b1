#include "state/statedb.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "crypto/keccak.hpp"
#include "crypto/sha256.hpp"
#include "state/trie.hpp"

namespace srbb::state {

namespace {
const Bytes kEmptyCode;

Hash32 keccak_of_code(const Bytes& code) {
  return code.empty() ? Hash32{} : crypto::Keccak256::hash(code);
}

// The flat root's per-account code digest. Most accounts hold no code, and
// hashing an empty buffer for each of them at every root is measurable at
// 10^5 accounts, so the empty digest is computed once.
Hash32 sha256_of_code(const Bytes& code) {
  static const Hash32 empty = crypto::Sha256::hash(BytesView{});
  return code.empty() ? empty : crypto::Sha256::hash(code);
}
}

const Hash32& empty_code_keccak() {
  static const Hash32 hash = crypto::Keccak256::hash(BytesView{});
  return hash;
}

Hash32 StateView::code_keccak(const Address& addr) const {
  const Bytes& c = code(addr);
  return c.empty() ? empty_code_keccak() : crypto::Keccak256::hash(c);
}

StateDB::StateDB(StateConfig config, std::shared_ptr<StorageBackend> backend)
    : config_(config), backend_(std::move(backend)) {
  SRBB_CHECK(backend_ != nullptr);
  // Reopen: the backend's records are the initial world state.
  for (const Address& addr : backend_->keys()) {
    const std::optional<Bytes> record = backend_->get(addr);
    SRBB_CHECK(record.has_value());
    std::optional<Account> account = decode_account_record(*record);
    // Backend records are this process's own flushes; a decode failure means
    // the backend returned bytes we never wrote.
    SRBB_CHECK(account.has_value());
    accounts_.emplace(addr, std::move(*account));
  }
}

// --- read path --------------------------------------------------------------

const Account* StateDB::find(const Address& addr) const {
  const auto it = accounts_.find(addr);
  return it == accounts_.end() ? nullptr : &it->second;
}

std::vector<StateDB::AccountRef> StateDB::sorted_accounts() const {
  std::vector<AccountRef> out;
  out.reserve(accounts_.size());
  for (const auto& [addr, acc] : accounts_) out.emplace_back(addr, &acc);
  std::sort(out.begin(), out.end(),
            [](const AccountRef& a, const AccountRef& b) {
              return a.first < b.first;
            });
  return out;
}

bool StateDB::account_exists(const Address& addr) const {
  return find(addr) != nullptr;
}

U256 StateDB::balance(const Address& addr) const {
  const Account* acc = find(addr);
  return acc ? acc->balance : U256::zero();
}

std::uint64_t StateDB::nonce(const Address& addr) const {
  const Account* acc = find(addr);
  return acc ? acc->nonce : 0;
}

const Bytes& StateDB::code(const Address& addr) const {
  const Account* acc = find(addr);
  return acc ? acc->code : kEmptyCode;
}

Hash32 StateDB::code_hash(const Address& addr) const {
  return sha256_of_code(code(addr));
}

Hash32 StateDB::code_keccak(const Address& addr) const {
  const Account* acc = find(addr);
  if (acc == nullptr || acc->code.empty()) return empty_code_keccak();
  return acc->code_keccak;
}

U256 StateDB::storage(const Address& addr, const Hash32& key) const {
  const Account* acc = find(addr);
  if (acc == nullptr) return U256::zero();
  const auto it = acc->storage.find(key);
  return it == acc->storage.end() ? U256::zero() : it->second;
}

// --- write path -------------------------------------------------------------

void StateDB::mark_mpt_dirty(const Address& addr) const {
  if (mpt_.synced) mpt_.dirty[addr];
}

void StateDB::mark_mpt_slot(const Address& addr, const Hash32& key) const {
  if (mpt_.synced) mpt_.dirty[addr].slots.insert(key);
}

void StateDB::mark_mpt_full(const Address& addr) const {
  if (mpt_.synced) mpt_.dirty[addr].full_storage = true;
}

Account& StateDB::mutable_account(const Address& addr) {
  root_dirty_ = true;  // every write path funnels through here
  mark_mpt_dirty(addr);
  auto it = accounts_.find(addr);
  if (it == accounts_.end()) {
    journal_.push_back(JournalEntry{.op = Op::kCreateAccount, .addr = addr});
    it = accounts_.emplace(addr, Account{}).first;
  }
  return it->second;
}

void StateDB::create_account(const Address& addr) { mutable_account(addr); }

void StateDB::set_balance(const Address& addr, const U256& value) {
  Account& acc = mutable_account(addr);
  journal_.push_back(JournalEntry{
      .op = Op::kBalanceChange, .addr = addr, .prev_value = acc.balance});
  acc.balance = value;
}

void StateDB::add_balance(const Address& addr, const U256& delta) {
  set_balance(addr, balance(addr) + delta);
}

bool StateDB::sub_balance(const Address& addr, const U256& delta) {
  const U256 current = balance(addr);
  if (current < delta) return false;
  set_balance(addr, current - delta);
  return true;
}

void StateDB::set_nonce(const Address& addr, std::uint64_t nonce) {
  Account& acc = mutable_account(addr);
  journal_.push_back(JournalEntry{
      .op = Op::kNonceChange, .addr = addr, .prev_nonce = acc.nonce});
  acc.nonce = nonce;
}

void StateDB::increment_nonce(const Address& addr) {
  set_nonce(addr, nonce(addr) + 1);
}

void StateDB::set_code(const Address& addr, Bytes code) {
  Account& acc = mutable_account(addr);
  JournalEntry entry{.op = Op::kCodeChange, .addr = addr};
  entry.prev_code = acc.code;
  journal_.push_back(std::move(entry));
  acc.code = std::move(code);
  acc.code_keccak = keccak_of_code(acc.code);
}

void StateDB::set_storage(const Address& addr, const Hash32& key,
                          const U256& value) {
  Account& acc = mutable_account(addr);
  mark_mpt_slot(addr, key);
  const auto it = acc.storage.find(key);
  JournalEntry entry{.op = Op::kStorageChange, .addr = addr, .key = key};
  entry.prev_existed = it != acc.storage.end();
  if (entry.prev_existed) entry.prev_value = it->second;
  journal_.push_back(std::move(entry));
  if (value.is_zero()) {
    acc.storage.erase(key);  // zero writes clear the slot, as in the EVM
  } else {
    acc.storage[key] = value;
  }
}

void StateDB::delete_account(const Address& addr) {
  const Account* acc = find(addr);
  if (acc == nullptr) return;
  root_dirty_ = true;
  // The account's storage identity resets: a later recreation must not
  // inherit the old materialized storage trie.
  mark_mpt_full(addr);
  JournalEntry entry{.op = Op::kDeleteAccount, .addr = addr};
  entry.prev_account = std::make_shared<const Account>(*acc);
  journal_.push_back(std::move(entry));
  accounts_.erase(addr);
}

void StateDB::revert_to(Snapshot snapshot) {
  // Reverting to a snapshot that was never taken (or taken after writes that
  // were already reverted) means call-frame bookkeeping is corrupt.
  SRBB_CHECK(snapshot <= journal_.size());
  if (journal_.size() > snapshot) root_dirty_ = true;
  while (journal_.size() > snapshot) {
    JournalEntry& entry = journal_.back();
    // Every undo except account (re)creation targets an account the journal
    // says exists; a miss means the journal and the map disagree. Checked
    // lookups here keep operator[] from papering over corruption by
    // silently creating empty accounts.
    const auto target = [&]() -> Account& {
      const auto it = accounts_.find(entry.addr);
      SRBB_CHECK(it != accounts_.end());
      return it->second;
    };
    switch (entry.op) {
      case Op::kCreateAccount:
        mark_mpt_dirty(entry.addr);
        accounts_.erase(entry.addr);
        break;
      case Op::kBalanceChange:
        mark_mpt_dirty(entry.addr);
        target().balance = entry.prev_value;
        break;
      case Op::kNonceChange:
        mark_mpt_dirty(entry.addr);
        target().nonce = entry.prev_nonce;
        break;
      case Op::kCodeChange: {
        mark_mpt_dirty(entry.addr);
        Account& acc = target();
        acc.code = std::move(entry.prev_code);
        // Reverted deployments are rare; recomputing beats journaling the
        // previous hash on every set_code.
        acc.code_keccak = keccak_of_code(acc.code);
        break;
      }
      case Op::kStorageChange: {
        mark_mpt_slot(entry.addr, entry.key);
        auto& storage = target().storage;
        if (entry.prev_existed) {
          storage[entry.key] = entry.prev_value;
        } else {
          storage.erase(entry.key);
        }
        break;
      }
      case Op::kDeleteAccount:
        // The deletion undo recreates the account, so it must be absent.
        SRBB_PARANOID(!accounts_.contains(entry.addr));
        mark_mpt_full(entry.addr);
        accounts_[entry.addr] = *entry.prev_account;
        break;
    }
    journal_.pop_back();
  }
}

void StateDB::commit() {
  if (backend_ != nullptr) {
    // Write through every account the surviving journal names: reverted
    // writes left the journal, so what remains covers every change since
    // the last commit. Sorted, so the backend's record stream is identical
    // across replicas.
    std::vector<Address> touched;
    touched.reserve(journal_.size());
    for (const JournalEntry& entry : journal_) touched.push_back(entry.addr);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    for (const Address& addr : touched) {
      if (const Account* acc = find(addr)) {
        backend_->put(addr, encode_account_record(*acc));
      } else {
        backend_->erase(addr);
      }
    }
    backend_->flush();
  }
  // Free the journal's storage: clear() would hold a genesis-sized journal
  // (two entries per account) for the rest of the run.
  journal_ = std::vector<JournalEntry>{};
}

// --- commitments ------------------------------------------------------------

Hash32 StateDB::state_root() const {
  if (!root_dirty_) return root_cache_;
  crypto::Sha256 root;
  for (const auto& [addr, account] : sorted_accounts()) {
    const Account& acc = *account;
    root.update(addr.view());
    std::uint8_t nonce_be[8];
    put_be64(nonce_be, acc.nonce);
    root.update(BytesView{nonce_be, 8});
    root.update(acc.balance.be_bytes());
    root.update(sha256_of_code(acc.code).view());

    std::vector<Hash32> keys;
    keys.reserve(acc.storage.size());
    for (const auto& [key, value] : acc.storage) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (const Hash32& key : keys) {
      root.update(key.view());
      root.update(acc.storage.at(key).be_bytes());
    }
  }
  root_cache_ = root.finish();
  root_dirty_ = false;
  return root_cache_;
}

Hash32 StateDB::state_root_mpt() const {
  if (!mpt_.synced) {
    // First call (or first after a copy): build the whole commitment once;
    // later calls only re-sync accounts the write path marked dirty.
    mpt_.trie = IncrementalStateTrie{};
    mpt_.trie.configure(config_.storage_trie_cache,
                        config_.trie_node_cache_limit);
    for (const auto& [addr, acc] : sorted_accounts()) {
      mpt_.trie.update(addr, acc, DirtyInfo{.full_storage = true});
    }
    mpt_.synced = true;
    mpt_.dirty.clear();
    return mpt_.trie.root_hash();
  }

  std::vector<Address> addresses;
  addresses.reserve(mpt_.dirty.size());
  for (const auto& [addr, info] : mpt_.dirty) addresses.push_back(addr);
  std::sort(addresses.begin(), addresses.end());
  for (const Address& addr : addresses) {
    mpt_.trie.update(addr, find(addr), mpt_.dirty.at(addr));
  }
  mpt_.dirty.clear();
  return mpt_.trie.root_hash();
}

Hash32 StateDB::state_root_mpt_full() const {
  MerklePatriciaTrie trie;
  for (const auto& [addr, acc] : sorted_accounts()) {
    trie.put(addr.view(), encode_account_leaf(*acc, storage_trie_root(*acc)));
  }
  return trie.root_hash();
}

}  // namespace srbb::state
