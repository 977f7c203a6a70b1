// The paper's two validation tiers (§II-B):
//
//  - Eager validation runs when a transaction first arrives (from a client in
//    SRBB; from clients *and* peers in modern blockchains). It checks the
//    signature — the expensive part — plus size, balance and a nonce window.
//  - Lazy validation runs just before execution and checks only nonce, gas
//    affordability and balance. It is deliberately weaker and cheaper; a
//    transaction that slips through fails at execution time without touching
//    state (Alg. 1 lines 32-40).
#pragma once

#include <cstdint>
#include <optional>

#include "common/status.hpp"
#include "crypto/signature.hpp"
#include "evm/analysis/cache.hpp"
#include "state/statedb.hpp"
#include "txn/transaction.hpp"

namespace srbb::txn {

struct ValidationConfig {
  std::size_t max_tx_size = 128 * 1024;  // bytes on the wire
  std::uint64_t min_gas_limit = 21'000;
  /// How far ahead of the account nonce a pending tx may be queued.
  std::uint64_t nonce_window = 1024;
  /// Static min-gas gate (check (vi), PR 5): an invoke whose gas budget is
  /// below the callee's statically-proven minimum for any successful path is
  /// doomed work — drop it at eager time instead of shipping it through
  /// consensus. nullptr disables the gate.
  evm::analysis::AnalysisCache* analysis_cache =
      &evm::analysis::AnalysisCache::global();
};

/// Full check: signature (i), size (ii), nonce window (iii), gas
/// affordability (iv), transferred value coverage (v).
Status eager_validate(const Transaction& tx, const state::StateView& db,
                      const crypto::SignatureScheme& scheme,
                      const ValidationConfig& config);

/// Cheap pre-execution check: (iii) nonce is next, (iv) gas covered,
/// (v) value covered. No signature verification.
Status lazy_validate(const Transaction& tx, const state::StateView& db);

/// Worst-case wei the transaction can cost: gas_price * gas_limit + value.
/// nullopt when that exceeds 2^256 - 1; every caller treats such a
/// transaction as unaffordable, so no fee product downstream can wrap.
std::optional<U256> max_cost(const Transaction& tx);

/// 21000 + calldata pricing + creation surcharge; transactions whose gas
/// limit cannot cover this are invalid.
std::uint64_t intrinsic_gas(const Transaction& tx);

}  // namespace srbb::txn
