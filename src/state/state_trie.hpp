// The world-state commitment (docs/STATE.md): a Merkle Patricia Trie over
// accounts, each leaf rlp([nonce, balance, storage_root, keccak(code)]),
// with a nested storage trie per account that has storage. Both levels are
// LeanTries (trie.hpp): they hold keys only and re-encode leaves from
// StateDB's flat maps, so the commitment copies no account or slot value.
//
// StateDB feeds it the accounts (and storage slots) written since the last
// root; only those keys are re-synced and only the branches above them
// re-hashed, so a root after k account writes costs O(k · depth) node
// hashes instead of an O(n) rebuild.
#pragma once

#include <unordered_map>
#include <vector>

#include "common/bytes.hpp"
#include "state/account.hpp"
#include "state/trie.hpp"

namespace srbb::state {

using AccountMap = std::unordered_map<Address, Account, AddressHasher>;

/// What StateDB knows about an account's storage since the last sync.
struct DirtyInfo {
  /// The storage may have changed in unknown ways (SELFDESTRUCT, or the
  /// revert of one): rebuild the account's storage trie.
  bool storage_reset = false;
  /// Slots that may have changed (repeats allowed).
  std::vector<Hash32> slots;
};

/// Replaces `out` with rlp([nonce, balance, storage_root, keccak(code)]),
/// the account leaf value.
void encode_account_leaf(const Account& account, const Hash32& storage_root,
                         Bytes& out);

class StateCommitment {
 public:
  /// Builds the commitment over every account (the first root).
  void build(const AccountMap& accounts);
  /// Re-syncs one account written since the last root (absent from
  /// `accounts` when it no longer exists).
  void update(const AccountMap& accounts, const Address& addr,
              const DirtyInfo& dirty);
  /// Root over everything synced so far.
  Hash32 root_hash(const AccountMap& accounts);

 private:
  struct Storage {
    LeanTrie trie;
    Hash32 root;
    bool stale = true;
  };
  using StorageTries = std::unordered_map<Address, Storage, AddressHasher>;
  class AccountValues;
  void build_storage(Storage& storage, const StorageMap& slots);

  LeanTrie accounts_;
  /// One entry per account with non-empty storage.
  StorageTries storage_;
};

}  // namespace srbb::state
