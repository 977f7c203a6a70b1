#include "txn/validation.hpp"

#include "evm/analysis/interproc.hpp"

namespace srbb::txn {

std::uint64_t intrinsic_gas(const Transaction& tx) {
  std::uint64_t gas = 21'000;
  for (const std::uint8_t b : tx.data) gas += (b == 0) ? 4 : 16;
  if (tx.kind == TxKind::kDeploy) gas += 32'000;
  return gas;
}

std::optional<U256> max_cost(const Transaction& tx) {
  const U256::Wide gas = tx.gas_price.full_mul(U256{tx.gas_limit});
  if (!gas.hi.is_zero()) return std::nullopt;
  const U256 total = gas.lo + tx.value;
  if (total < gas.lo) return std::nullopt;  // the addition carried out
  return total;
}

Status eager_validate(const Transaction& tx, const state::StateView& db,
                      const crypto::SignatureScheme& scheme,
                      const ValidationConfig& config) {
  // (ii) size limit first: cheap and bounds later work.
  if (tx.wire_size() > config.max_tx_size) {
    return Status::error("eager: transaction exceeds size limit");
  }
  if (tx.gas_limit < config.min_gas_limit ||
      tx.gas_limit < intrinsic_gas(tx)) {
    return Status::error("eager: gas limit below intrinsic cost");
  }
  // (i) signature — the expensive check that TVPR avoids repeating n times.
  if (!verify_signature(tx, scheme)) {
    return Status::error("eager: invalid signature");
  }
  const Address sender = tx.sender();
  // (iii) nonce must not be in the past, and not absurdly far in the future.
  const std::uint64_t account_nonce = db.nonce(sender);
  if (tx.nonce < account_nonce) {
    return Status::error("eager: stale nonce");
  }
  if (tx.nonce > account_nonce + config.nonce_window) {
    return Status::error("eager: nonce too far in the future");
  }
  // (iv) + (v) the account can afford worst-case gas plus the value moved.
  const std::optional<U256> cost = max_cost(tx);
  if (!cost || db.balance(sender) < *cost) {
    return Status::error("eager: insufficient balance for gas + value");
  }
  // (vi) static min-gas gate: every successful path through the callee costs
  // at least its statically-analyzed minimum, so a budget below that cannot
  // buy a successful execution — reject before it reaches consensus. The
  // *composed* bound (interproc.hpp) also charges guarded resolved call
  // sites their callee's minimum, so an invoke of a router contract is gated
  // on the whole call tree, not just the router's own frame.
  if (config.analysis_cache != nullptr && tx.kind == TxKind::kInvoke) {
    const Bytes& code = db.code(tx.to);
    if (!code.empty()) {
      const auto composed = evm::analysis::InterprocCache::global().get(
          db, tx.to, *config.analysis_cache);
      const std::uint64_t budget = tx.gas_limit - intrinsic_gas(tx);
      if (composed->min_gas == evm::analysis::AnalysisResult::kNoSuccessfulPath ||
          budget < composed->min_gas) {
        return Status::error("eager: gas limit below callee static minimum");
      }
    }
  }
  return Status::ok();
}

Status lazy_validate(const Transaction& tx, const state::StateView& db) {
  const Address sender = tx.sender();
  const std::uint64_t account_nonce = db.nonce(sender);
  if (tx.nonce != account_nonce) {
    return Status::error("lazy: nonce is not the next sequence number");
  }
  if (tx.gas_limit < intrinsic_gas(tx)) {
    return Status::error("lazy: gas limit below intrinsic cost");
  }
  const std::optional<U256> cost = max_cost(tx);
  if (!cost || db.balance(sender) < *cost) {
    return Status::error("lazy: insufficient balance for gas + value");
  }
  return Status::ok();
}

}  // namespace srbb::txn
