// Account model: externally owned accounts (balance + nonce) and contract
// accounts (code + storage), matching the Ethereum world-state shape the
// SRBB VM replicates.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/u256.hpp"

namespace srbb::state {

using StorageMap = std::unordered_map<Hash32, U256, Hash32Hasher>;

/// keccak256 of the empty byte string — the code hash of every EOA.
const Hash32& empty_code_keccak();

struct Account {
  /// The fields only an account with code or storage needs. They sit behind
  /// one pointer so an externally owned account, the bulk of the state,
  /// carries 8 bytes for them instead of an empty Bytes, a hash and an
  /// empty map.
  struct Contract {
    Bytes code;
    /// keccak256(code), maintained by StateDB::set_code (and recomputed on
    /// journal revert) so hot-path consumers — the analysis cache keys every
    /// call frame by it — get an O(1) lookup instead of rehashing the code.
    /// Zero for code-less accounts; StateDB::code_keccak substitutes the
    /// canonical empty-code hash on read.
    Hash32 code_keccak;
    StorageMap storage;
  };

  std::uint64_t nonce = 0;
  U256 balance;
  std::unique_ptr<Contract> contract;  // null: no code and no storage

  Account() = default;
  Account(const Account& other)
      : nonce(other.nonce),
        balance(other.balance),
        contract(other.contract ? std::make_unique<Contract>(*other.contract)
                                : nullptr) {}
  Account& operator=(const Account& other) { return *this = Account{other}; }
  Account(Account&&) noexcept = default;
  Account& operator=(Account&&) noexcept = default;

  const Bytes& code() const {
    static const Bytes kNone;
    return contract ? contract->code : kNone;
  }
  const StorageMap& storage() const {
    static const StorageMap kNone;
    return contract ? contract->storage : kNone;
  }
  /// The contract fields, created empty on first write.
  Contract& contract_data() {
    if (!contract) contract = std::make_unique<Contract>();
    return *contract;
  }
};

}  // namespace srbb::state
