#include "state/statedb.hpp"

#include <algorithm>

#include "common/invariant.hpp"
#include "crypto/keccak.hpp"

namespace srbb::state {

namespace {
const Bytes kEmptyCode;

Hash32 keccak_of_code(const Bytes& code) {
  return code.empty() ? Hash32{} : crypto::Keccak256::hash(code);
}
}  // namespace

const Hash32& empty_code_keccak() {
  static const Hash32 hash = crypto::Keccak256::hash(BytesView{});
  return hash;
}

Hash32 StateView::code_keccak(const Address& addr) const {
  const Bytes& c = code(addr);
  return c.empty() ? empty_code_keccak() : crypto::Keccak256::hash(c);
}

StateDB::StateDB(std::shared_ptr<StorageBackend> backend)
    : backend_(std::move(backend)) {
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
  return acc ? acc->code() : kEmptyCode;
}

Hash32 StateDB::code_keccak(const Address& addr) const {
  const Account* acc = find(addr);
  if (acc == nullptr || acc->code().empty()) return empty_code_keccak();
  return acc->contract->code_keccak;
}

U256 StateDB::storage(const Address& addr, const Hash32& key) const {
  const Account* acc = find(addr);
  if (acc == nullptr) return U256::zero();
  const StorageMap& storage = acc->storage();
  const auto it = storage.find(key);
  return it == storage.end() ? U256::zero() : it->second;
}

// --- write path -------------------------------------------------------------

void StateDB::mark_dirty(const Address& addr) {
  if (commitment_.built) commitment_.dirty[addr];
}

void StateDB::mark_slot(const Address& addr, const Hash32& key) {
  if (commitment_.built) commitment_.dirty[addr].slots.push_back(key);
}

void StateDB::mark_storage_reset(const Address& addr) {
  if (commitment_.built) commitment_.dirty[addr].storage_reset = true;
}

Account& StateDB::mutable_account(const Address& addr) {
  mark_dirty(addr);  // every write path funnels through here
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
  Account::Contract& contract = mutable_account(addr).contract_data();
  JournalEntry entry{.op = Op::kCodeChange, .addr = addr};
  entry.prev_code = contract.code;
  journal_.push_back(std::move(entry));
  contract.code = std::move(code);
  contract.code_keccak = keccak_of_code(contract.code);
}

void StateDB::set_storage(const Address& addr, const Hash32& key,
                          const U256& value) {
  Account& acc = mutable_account(addr);
  mark_slot(addr, key);
  const StorageMap& current = acc.storage();
  const auto it = current.find(key);
  const bool existed = it != current.end();
  JournalEntry entry{.op = Op::kStorageChange, .addr = addr, .key = key};
  entry.prev_existed = existed;
  if (existed) entry.prev_value = it->second;
  journal_.push_back(std::move(entry));
  if (value.is_zero()) {
    // Zero writes clear the slot, as in the EVM.
    if (existed) acc.contract->storage.erase(key);
  } else {
    acc.contract_data().storage[key] = value;
  }
}

void StateDB::delete_account(const Address& addr) {
  const Account* acc = find(addr);
  if (acc == nullptr) return;
  // The account's storage identity resets: a later recreation must not
  // inherit the old storage trie.
  mark_storage_reset(addr);
  JournalEntry entry{.op = Op::kDeleteAccount, .addr = addr};
  entry.prev_account = std::make_shared<const Account>(*acc);
  journal_.push_back(std::move(entry));
  accounts_.erase(addr);
}

void StateDB::revert_to(Snapshot snapshot) {
  // Reverting to a snapshot that was never taken (or taken after writes that
  // were already reverted) means call-frame bookkeeping is corrupt.
  SRBB_CHECK(snapshot <= journal_.size());
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
        mark_dirty(entry.addr);
        accounts_.erase(entry.addr);
        break;
      case Op::kBalanceChange:
        mark_dirty(entry.addr);
        target().balance = entry.prev_value;
        break;
      case Op::kNonceChange:
        mark_dirty(entry.addr);
        target().nonce = entry.prev_nonce;
        break;
      case Op::kCodeChange: {
        mark_dirty(entry.addr);
        Account::Contract& contract = target().contract_data();
        contract.code = std::move(entry.prev_code);
        // Reverted deployments are rare; recomputing beats journaling the
        // previous hash on every set_code.
        contract.code_keccak = keccak_of_code(contract.code);
        break;
      }
      case Op::kStorageChange: {
        mark_slot(entry.addr, entry.key);
        Account& acc = target();
        if (entry.prev_existed) {
          acc.contract_data().storage[entry.key] = entry.prev_value;
        } else if (acc.contract) {
          acc.contract->storage.erase(entry.key);
        }
        break;
      }
      case Op::kDeleteAccount:
        // The deletion undo recreates the account, so it must be absent.
        SRBB_PARANOID(!accounts_.contains(entry.addr));
        mark_storage_reset(entry.addr);
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

// --- commitment -------------------------------------------------------------

Hash32 StateDB::state_root() const {
  if (!commitment_.built) {
    // The first root builds the whole commitment once; later roots re-sync
    // only what the write path marked since.
    commitment_.trie.build(accounts_);
    commitment_.built = true;
  } else {
    std::vector<Address> written;
    written.reserve(commitment_.dirty.size());
    for (const auto& [addr, info] : commitment_.dirty) written.push_back(addr);
    std::sort(written.begin(), written.end());
    for (const Address& addr : written) {
      commitment_.trie.update(accounts_, addr, commitment_.dirty.at(addr));
    }
    commitment_.dirty.clear();
  }
  return commitment_.trie.root_hash(accounts_);
}

}  // namespace srbb::state
