#include "state/backend.hpp"

#include <algorithm>

#include "codec/rlp.hpp"
#include "crypto/keccak.hpp"

namespace srbb::state {

// --- MemoryBackend ----------------------------------------------------------

std::optional<Bytes> MemoryBackend::get(const Address& key) const {
  const auto it = records_.find(key);
  if (it == records_.end()) return std::nullopt;
  return it->second;
}

void MemoryBackend::put(const Address& key, BytesView value) {
  records_[key] = Bytes{value.begin(), value.end()};
}

void MemoryBackend::erase(const Address& key) { records_.erase(key); }

std::vector<Address> MemoryBackend::keys() const {
  std::vector<Address> out;
  out.reserve(records_.size());
  for (const auto& [key, value] : records_) out.push_back(key);
  return out;
}

// --- account record codec ---------------------------------------------------

Bytes encode_account_record(const Account& account) {
  const StorageMap& storage = account.storage();
  std::vector<Hash32> slots;
  slots.reserve(storage.size());
  for (const auto& [slot, value] : storage) slots.push_back(slot);
  std::sort(slots.begin(), slots.end());

  rlp::ListBuilder storage_list;
  for (const Hash32& slot : slots) {
    rlp::ListBuilder entry;
    entry.add_bytes(slot.view());
    entry.add_u256(storage.at(slot));
    storage_list.add_raw(entry.build());
  }

  rlp::ListBuilder record;
  record.add_u64(account.nonce);
  record.add_u256(account.balance);
  record.add_bytes(account.code());
  record.add_raw(storage_list.build());
  return record.build();
}

std::optional<Account> decode_account_record(BytesView record) {
  rlp::ViewDoc doc;
  const Result<rlp::ItemView> parsed = rlp::decode_view(record, doc);
  if (!parsed.is_ok()) return std::nullopt;
  const rlp::ItemView top = parsed.value();
  if (!top.is_list() || top.size() != 4) return std::nullopt;
  const rlp::ItemView nonce_item = top.child(0);
  const rlp::ItemView balance_item = nonce_item.next_sibling();
  const rlp::ItemView code_item = balance_item.next_sibling();
  const rlp::ItemView storage = code_item.next_sibling();

  Account account;
  const Result<std::uint64_t> nonce = nonce_item.as_u64();
  if (!nonce.is_ok()) return std::nullopt;
  account.nonce = nonce.value();
  const Result<U256> balance = balance_item.as_u256();
  if (!balance.is_ok()) return std::nullopt;
  account.balance = balance.value();
  if (code_item.is_list()) return std::nullopt;
  if (!code_item.payload().empty()) {
    Account::Contract& contract = account.contract_data();
    contract.code.assign(code_item.payload().begin(), code_item.payload().end());
    contract.code_keccak = crypto::Keccak256::hash(contract.code);
  }

  if (!storage.is_list()) return std::nullopt;
  Hash32 prev_slot;
  rlp::ItemView entry = storage.child(0);
  for (std::size_t i = 0; i < storage.size(); ++i) {
    if (!entry.is_list() || entry.size() != 2) return std::nullopt;
    const rlp::ItemView slot_item = entry.child(0);
    if (slot_item.is_list() || slot_item.payload().size() != Hash32::size()) {
      return std::nullopt;
    }
    const Hash32 slot{slot_item.payload()};
    // Canonical records are strictly slot-ascending; reject duplicates and
    // reordered slots so record bytes stay a bijection with accounts.
    if (i > 0 && !(prev_slot < slot)) return std::nullopt;
    prev_slot = slot;
    const Result<U256> value = slot_item.next_sibling().as_u256();
    if (!value.is_ok()) return std::nullopt;
    // EVM zero-write semantics: a zero-valued slot never appears in the map.
    if (value.value().is_zero()) return std::nullopt;
    account.contract_data().storage.emplace(slot, value.value());
    entry = entry.next_sibling();
  }
  return account;
}

// --- crc32 ------------------------------------------------------------------

std::uint32_t crc32(BytesView data) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : data) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace srbb::state
