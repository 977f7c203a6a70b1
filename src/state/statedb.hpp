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
#include "state/config.hpp"
#include "state/state_trie.hpp"

namespace srbb::state {

/// keccak256 of the empty byte string — the code hash of every EOA.
const Hash32& empty_code_keccak();

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
  virtual Hash32 code_hash(const Address& addr) const = 0;
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
  /// No backend, with the commitment knobs from `config`
  /// (trie_node_cache_limit, storage_trie_cache) applied.
  explicit StateDB(StateConfig config) : config_(config) {}
  /// Write-through to `backend`. Every record already in it is loaded as
  /// the initial world state (reopen).
  StateDB(StateConfig config, std::shared_ptr<StorageBackend> backend);

  // Copyable for test/bench fixtures. A copy shares the backend pointer but
  // starts with a fresh commitment cache (it rebuilds on demand); do not
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
  Hash32 code_hash(const Address& addr) const override;
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

  /// Deterministic digest of the entire world state. Accounts are hashed in
  /// address order, storage in key order, so two replicas that executed the
  /// same blocks produce identical roots. O(n log n) per recompute; the
  /// result is memoized and reused until the next journaled write, so
  /// back-to-back calls (oracle indexing, convergence tests) are O(1).
  /// Not safe to call concurrently with writes or with itself.
  Hash32 state_root() const;

  /// Ethereum-shaped commitment: a Merkle Patricia Trie over accounts, each
  /// leaf rlp([nonce, balance, storage_trie_root, code_hash]) with a nested
  /// storage trie per contract. Binding like state_root() but additionally
  /// supports trie inclusion proofs. Incremental: the first call builds the
  /// trie, subsequent calls re-sync only accounts dirtied in between
  /// (state_trie.hpp), so a root after k mutations costs O(k·depth) instead
  /// of O(n). Not safe to call concurrently with reads or writes.
  Hash32 state_root_mpt() const;

  /// From-scratch MPT rebuild — the reference the incremental path is
  /// differentially tested against. Always equals state_root_mpt().
  Hash32 state_root_mpt_full() const;

  // --- introspection (tests) ---
  const IncrementalStateTrie& state_trie() const { return mpt_.trie; }
  const StateConfig& config() const { return config_; }
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

  /// Incremental-commitment state. Copies (and copy-assignments) reset to
  /// unsynced — the commitment is a cache over the flat state and rebuilds
  /// on the next state_root_mpt() call.
  struct MptState {
    IncrementalStateTrie trie;
    bool synced = false;
    std::unordered_map<Address, DirtyInfo, AddressHasher> dirty;
    MptState() = default;
    MptState(const MptState&) {}
    MptState& operator=(const MptState&) {
      trie = IncrementalStateTrie{};
      synced = false;
      dirty.clear();
      return *this;
    }
    MptState(MptState&&) = default;
    MptState& operator=(MptState&&) = default;
  };

  using AccountRef = std::pair<Address, const Account*>;

  Account& mutable_account(const Address& addr);
  const Account* find(const Address& addr) const;
  /// Every account, in ascending address order.
  std::vector<AccountRef> sorted_accounts() const;
  void mark_mpt_dirty(const Address& addr) const;
  void mark_mpt_slot(const Address& addr, const Hash32& key) const;
  void mark_mpt_full(const Address& addr) const;

  StateConfig config_;
  std::shared_ptr<StorageBackend> backend_;
  std::unordered_map<Address, Account, AddressHasher> accounts_;
  std::vector<JournalEntry> journal_;
  // state_root() memoization: any journaled write (or revert) invalidates.
  mutable Hash32 root_cache_;
  mutable bool root_dirty_ = true;
  mutable MptState mpt_;
};

}  // namespace srbb::state
