// World state with journaled mutation: every write appends an undo record so
// the EVM can snapshot before a call frame and revert on failure, exactly the
// mechanism transaction execution needs for REVERT/out-of-gas semantics.
//
// StateView is the abstract interface the EVM and the transaction executor
// run against; StateDB is the canonical backing store and OverlayState
// (overlay.hpp) is the speculative copy-on-write view the parallel executor
// uses for optimistic execution.
//
// StateDB keeps every account resident in one flat map, so reads take no
// lock. An optional StorageBackend is a write-through durability log
// (docs/STATE.md): commit() writes every account the surviving journal
// names, and a StateDB reopened over the same backend loads those records
// back, reproducing the committed state and its roots exactly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/u256.hpp"
#include "state/account.hpp"
#include "state/backend.hpp"
#include "state/state_trie.hpp"

namespace srbb::state {

/// Abstract world-state view: the exact surface the interpreter and
/// apply_transaction need. Reads never create accounts; writes are journaled
/// so snapshot()/revert_to() give call-frame semantics.
class StateView {
 public:
  using Snapshot = std::size_t;

  virtual ~StateView() = default;

  // --- Reads (never create accounts) ---
  virtual bool account_exists(const Address& addr) const = 0;
  virtual U256 balance(const Address& addr) const = 0;
  virtual std::uint64_t nonce(const Address& addr) const = 0;
  virtual const Bytes& code(const Address& addr) const = 0;
  /// keccak256 of code(addr) — the key the EVM analysis cache is addressed
  /// by. Implementations memoize where they can; the default recomputes.
  virtual Hash32 code_keccak(const Address& addr) const;
  virtual U256 storage(const Address& addr, const Hash32& key) const = 0;

  // --- Writes (journaled) ---
  virtual void create_account(const Address& addr) = 0;
  virtual void set_balance(const Address& addr, const U256& value) = 0;
  virtual void add_balance(const Address& addr, const U256& delta) = 0;
  /// False (no mutation) if the balance is insufficient.
  virtual bool sub_balance(const Address& addr, const U256& delta) = 0;
  virtual void set_nonce(const Address& addr, std::uint64_t nonce) = 0;
  virtual void increment_nonce(const Address& addr) = 0;
  virtual void set_code(const Address& addr, Bytes code) = 0;
  virtual void set_storage(const Address& addr, const Hash32& key,
                           const U256& value) = 0;
  /// Remove the account entirely (SELFDESTRUCT).
  virtual void delete_account(const Address& addr) = 0;

  // --- Journal control ---
  virtual Snapshot snapshot() const = 0;
  virtual void revert_to(Snapshot snapshot) = 0;
};

class StateDB final : public StateView {
 public:
  using Snapshot = StateView::Snapshot;

  /// No backend: the state lives only in memory.
  StateDB() = default;
  /// Write-through to `backend`. Every record already in it is loaded as
  /// the initial world state (reopen).
  explicit StateDB(std::shared_ptr<StorageBackend> backend);

  // Copyable for test/bench fixtures. A copy shares the backend pointer but
  // starts with no commitment (it rebuilds at its first root); do not
  // commit through two copies of a backed state.
  StateDB(const StateDB&) = default;
  StateDB& operator=(const StateDB&) = default;
  StateDB(StateDB&&) = default;
  StateDB& operator=(StateDB&&) = default;

  // --- Reads (never create accounts) ---
  bool account_exists(const Address& addr) const override;
  U256 balance(const Address& addr) const override;
  std::uint64_t nonce(const Address& addr) const override;
  const Bytes& code(const Address& addr) const override;
  /// O(1): returns the hash memoized by set_code (empty-code hash for
  /// code-less accounts). Pure read — safe under concurrent readers.
  Hash32 code_keccak(const Address& addr) const override;
  U256 storage(const Address& addr, const Hash32& key) const override;
  std::size_t account_count() const { return accounts_.size(); }

  // --- Writes (journaled) ---
  void create_account(const Address& addr) override;
  void set_balance(const Address& addr, const U256& value) override;
  void add_balance(const Address& addr, const U256& delta) override;
  /// False (no mutation) if the balance is insufficient.
  bool sub_balance(const Address& addr, const U256& delta) override;
  void set_nonce(const Address& addr, std::uint64_t nonce) override;
  void increment_nonce(const Address& addr) override;
  void set_code(const Address& addr, Bytes code) override;
  void set_storage(const Address& addr, const Hash32& key,
                   const U256& value) override;
  /// Remove the account entirely (SELFDESTRUCT).
  void delete_account(const Address& addr) override;

  // --- Journal control ---
  Snapshot snapshot() const override { return journal_.size(); }
  void revert_to(Snapshot snapshot) override;
  /// Drop undo history (end of block); state stays as-is. With a backend
  /// this is also the durability point: every account the journal names is
  /// written (or erased) in address order, then the backend is flushed.
  void commit();

  /// The world-state commitment: the root of a Merkle Patricia Trie over
  /// accounts, each leaf rlp([nonce, balance, storage_root, keccak(code)])
  /// with a nested storage trie per account that has storage
  /// (state_trie.hpp), byte-compatible with Ethereum's trie shape. The
  /// first call builds the trie; later calls re-sync only the accounts and
  /// slots written since, so a root after k writes costs O(k · depth).
  /// Not safe to call concurrently with reads or writes.
  Hash32 state_root() const;

  /// Every account (tests build reference commitments over it).
  const AccountMap& accounts() const { return accounts_; }
  StorageBackend* backend() const { return backend_.get(); }

 private:
  enum class Op : std::uint8_t {
    kCreateAccount,   // undo: erase account
    kBalanceChange,   // undo: restore prev_value
    kNonceChange,     // undo: restore prev_nonce
    kCodeChange,      // undo: restore prev_code
    kStorageChange,   // undo: restore prev_value / erase if !prev_existed
    kDeleteAccount,   // undo: restore prev_account
  };

  struct JournalEntry {
    Op op;
    Address addr;
    Hash32 key;                 // storage ops
    U256 prev_value;            // balance / storage
    std::uint64_t prev_nonce = 0;
    bool prev_existed = false;  // storage slot existed before write
    Bytes prev_code;
    // Delete undo, boxed: inline, the Account would double the size of
    // every entry, and genesis journals two entries per account. shared_ptr
    // keeps StateDB copyable.
    std::shared_ptr<const Account> prev_account;
  };

  /// The commitment over the flat state. Copies (and copy-assignments)
  /// reset to unbuilt: it is derived data and rebuilds at the next root.
  struct Commitment {
    StateCommitment trie;
    bool built = false;
    std::unordered_map<Address, DirtyInfo, AddressHasher> dirty;
    Commitment() = default;
    Commitment(const Commitment&) {}
    Commitment& operator=(const Commitment&) {
      *this = Commitment{};
      return *this;
    }
    Commitment(Commitment&&) = default;
    Commitment& operator=(Commitment&&) = default;
  };

  Account& mutable_account(const Address& addr);
  const Account* find(const Address& addr) const;
  // Record a write for the next root (no-ops before the first root).
  void mark_dirty(const Address& addr);
  void mark_slot(const Address& addr, const Hash32& key);
  void mark_storage_reset(const Address& addr);

  std::shared_ptr<StorageBackend> backend_;
  AccountMap accounts_;
  std::vector<JournalEntry> journal_;
  mutable Commitment commitment_;
};

}  // namespace srbb::state
