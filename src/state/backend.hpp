// Pluggable persistence for the world state (docs/STATE.md).
//
// A StorageBackend is a flat key→value store holding one record per account
// (key = the 20-byte address, value = the RLP account record produced by
// encode_account_record). It is StateDB's write-through durability log:
// StateDB keeps every account resident, writes each changed account through
// at commit, and reads the backend only when it is reopened over it.
//
// Contract:
//  - Single-threaded: StateDB calls it only from its constructor and from
//    commit().
//  - keys() may return addresses in any order. It must reflect every
//    committed put/erase (reopen walks it).
//  - A backend reopened from its durable medium must serve exactly the
//    records of the last successful flush (crash-safe prefix; see
//    LogBackend in log_backend.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "state/account.hpp"

namespace srbb::state {

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual std::optional<Bytes> get(const Address& key) const = 0;
  virtual void put(const Address& key, BytesView value) = 0;
  virtual void erase(const Address& key) = 0;
  /// Every live key, in unspecified order.
  virtual std::vector<Address> keys() const = 0;
  /// Durability point: after flush() returns, a reopen must see every
  /// preceding put/erase. No-op for volatile backends.
  virtual void flush() {}
  virtual std::string name() const = 0;
};

/// Reference in-memory backend: a sorted map, so keys() is deterministic by
/// construction. The baseline the differential suite holds every other
/// backend against.
class MemoryBackend final : public StorageBackend {
 public:
  std::optional<Bytes> get(const Address& key) const override;
  void put(const Address& key, BytesView value) override;
  void erase(const Address& key) override;
  std::vector<Address> keys() const override;
  std::string name() const override { return "memory"; }

 private:
  std::map<Address, Bytes> records_;
};

// --- account record codec ---------------------------------------------------
//
// rlp([nonce, balance, code, [[slot, value], ...]]) with storage slots in
// ascending slot order — canonical, so record bytes are a pure function of
// the logical account and byte-compare across replicas.

Bytes encode_account_record(const Account& account);
/// Strict decode; nullopt on any malformed or non-canonical record. The
/// returned account has code_keccak recomputed.
std::optional<Account> decode_account_record(BytesView record);

/// CRC-32 (IEEE 802.3, reflected) over `data` — the per-record integrity
/// check of the log-structured backend's frames.
std::uint32_t crc32(BytesView data);

}  // namespace srbb::state
