#include "state/state_trie.hpp"

#include <algorithm>
#include <cstring>

#include "common/invariant.hpp"

namespace srbb::state {

namespace {

/// Appends the RLP string item of a big-endian integer, leading zeros
/// stripped (the canonical RLP integer).
void put_uint(Bytes& out, const std::uint8_t* be, std::size_t size) {
  while (size > 0 && *be == 0) {
    ++be;
    --size;
  }
  if (size == 1 && *be < 0x80) {
    out.push_back(*be);
    return;
  }
  out.push_back(static_cast<std::uint8_t>(0x80 + size));
  out.insert(out.end(), be, be + size);
}

void put_hash(Bytes& out, const Hash32& hash) {
  out.push_back(0x80 + 32);
  out.insert(out.end(), hash.data.begin(), hash.data.end());
}

/// Leaves of one account's storage trie: rlp(value) of each slot.
class SlotValues final : public TrieValues {
 public:
  explicit SlotValues(const StorageMap& slots) : slots_(slots) {}
  void value(BytesView key, Bytes& out) const override {
    const auto it = slots_.find(Hash32{key});
    SRBB_CHECK(it != slots_.end());
    std::uint8_t be[32];
    it->second.to_be(be);
    out.clear();
    put_uint(out, be, 32);
  }

 private:
  const StorageMap& slots_;
};

}  // namespace

void encode_account_leaf(const Account& account, const Hash32& storage_root,
                         Bytes& out) {
  // Account::Contract::code_keccak is the zero hash for code-less accounts;
  // the leaf wants keccak("") there, same as hashing the code directly.
  const Hash32& code_hash = account.code().empty()
                                ? empty_code_keccak()
                                : account.contract->code_keccak;
  std::uint8_t nonce[8];
  put_be64(nonce, account.nonce);
  std::uint8_t balance[32];
  account.balance.to_be(balance);
  // The two hashes alone take 66 bytes and every item fits in 33: the
  // payload is always 56..255 bytes, a 0xf8 list with one length byte.
  out.assign({0xf8, 0});
  put_uint(out, nonce, sizeof nonce);
  put_uint(out, balance, sizeof balance);
  put_hash(out, storage_root);
  put_hash(out, code_hash);
  out[1] = static_cast<std::uint8_t>(out.size() - 2);
}

/// Leaves of the account trie, each storage root read from the
/// commitment's storage tries (refreshed before the account trie).
class StateCommitment::AccountValues final : public TrieValues {
 public:
  AccountValues(const AccountMap& accounts, const StorageTries& storage)
      : accounts_(accounts), storage_(storage) {}

  void value(BytesView key, Bytes& out) const override {
    const Address addr{key};
    const auto it = accounts_.find(addr);
    SRBB_CHECK(it != accounts_.end());
    const Account& account = it->second;
    encode_account_leaf(account,
                        account.storage().empty() ? empty_trie_root()
                                                  : storage_.at(addr).root,
                        out);
  }

 private:
  const AccountMap& accounts_;
  const StorageTries& storage_;
};

namespace {

/// Views of the keys of `map` (which must outlive them), sorted.
std::vector<BytesView> sorted_key_views(const auto& map) {
  std::vector<BytesView> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) keys.push_back(key.view());
  std::sort(keys.begin(), keys.end(), [](BytesView a, BytesView b) {
    return std::memcmp(a.data(), b.data(), a.size()) < 0;  // equal sizes
  });
  return keys;
}

}  // namespace

void StateCommitment::build_storage(Storage& storage, const StorageMap& slots) {
  storage.trie.build(sorted_key_views(slots));
  storage.stale = true;
}

void StateCommitment::build(const AccountMap& accounts) {
  storage_.clear();
  for (const auto& [addr, account] : accounts) {
    if (!account.storage().empty()) {
      build_storage(storage_[addr], account.storage());
    }
  }
  accounts_.build(sorted_key_views(accounts));
}

void StateCommitment::update(const AccountMap& accounts, const Address& addr,
                             const DirtyInfo& dirty) {
  const auto it = accounts.find(addr);
  if (it == accounts.end()) {
    accounts_.erase(addr.view());
    storage_.erase(addr);
    return;
  }
  accounts_.put(addr.view());
  const StorageMap& slots = it->second.storage();
  if (slots.empty()) {
    storage_.erase(addr);
    return;
  }
  if (dirty.storage_reset) {
    build_storage(storage_[addr], slots);
    return;
  }
  if (dirty.slots.empty()) return;
  // Between roots every storage change is recorded as a dirty slot, so an
  // account without an entry had no storage at the last root.
  Storage& storage = storage_[addr];
  for (const Hash32& slot : dirty.slots) {
    if (slots.contains(slot)) {
      storage.trie.put(slot.view());
    } else {
      storage.trie.erase(slot.view());
    }
  }
  storage.stale = true;
}

Hash32 StateCommitment::root_hash(const AccountMap& accounts) {
  for (auto& [addr, storage] : storage_) {
    if (!storage.stale) continue;
    storage.root = storage.trie.root_hash(SlotValues{accounts.at(addr).storage()});
    storage.stale = false;
  }
  return accounts_.root_hash(AccountValues{accounts, storage_});
}

}  // namespace srbb::state
