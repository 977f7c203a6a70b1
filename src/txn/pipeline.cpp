#include "txn/pipeline.hpp"

#include <cstdint>
#include <string>

#include "crypto/batch.hpp"
#include "evm/analysis/interproc.hpp"

namespace srbb::txn {

namespace {

// (ii) size limit first: cheap and bounds later work. The cached wire size
// equals tx.wire_size() — the codec round-trip is canonical.
Status structural_check(const CachedTx& cached,
                        const ValidationConfig& config) {
  if (cached.size > config.max_tx_size) {
    return Status::error("eager: transaction exceeds size limit");
  }
  if (cached.tx.gas_limit < config.min_gas_limit ||
      cached.tx.gas_limit < intrinsic_gas(cached.tx)) {
    return Status::error("eager: gas limit below intrinsic cost");
  }
  return Status::ok();
}

// (i) the sender's signature over the cached signing digest — the expensive
// check. The item's message is a view into the CachedTx.
crypto::BatchVerifyItem signature_item(const CachedTx& cached) {
  return {cached.signing_hash.view(), cached.tx.signature,
          cached.tx.sender_pubkey};
}

Status invalid_signature() {
  return Status::error("eager: invalid signature");
}

// (iii)-(vi) against the state. Sequential: state reads are cheap and the
// StateView interface makes no concurrency promises.
Status state_check(const CachedTx& cached, const state::StateView& db,
                   const ValidationConfig& config) {
  const Transaction& tx = cached.tx;
  const Address& sender = cached.sender;
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
  // (vi) static min-gas gate, as in eager_validate: the composed
  // interprocedural bound, so invoke-of-router transactions are gated by
  // their whole call tree, not just the entry frame.
  if (config.analysis_cache != nullptr && tx.kind == TxKind::kInvoke) {
    const Bytes& code = db.code(tx.to);
    if (!code.empty()) {
      const auto composed = evm::analysis::InterprocCache::global().get(
          db, tx.to, *config.analysis_cache);
      const std::uint64_t budget = tx.gas_limit - intrinsic_gas(tx);
      if (composed->min_gas ==
              evm::analysis::AnalysisResult::kNoSuccessfulPath ||
          budget < composed->min_gas) {
        return Status::error("eager: gas limit below callee static minimum");
      }
    }
  }
  return Status::ok();
}

}  // namespace

ValidationPipeline::ValidationPipeline(const crypto::SignatureScheme& scheme,
                                       ValidationConfig config,
                                       PipelineOptions options)
    : scheme_(&scheme), config_(config), pool_(options.pool) {
  if (options.metrics != nullptr) {
    const char* names[] = {"structural", "signature", "state"};
    for (std::size_t c = 0; c < counters_.size(); ++c) {
      const std::string base = std::string("validate.stage.") + names[c];
      counters_[c] = {&options.metrics->counter(base + ".pass"),
                      &options.metrics->counter(base + ".fail")};
    }
  }
}

void ValidationPipeline::count(const CheckCounters& counters,
                               std::size_t passed, std::size_t failed) const {
  if (counters.pass == nullptr) return;
  counters.pass->inc(passed);
  counters.fail->inc(failed);
}

std::vector<Status> ValidationPipeline::validate(
    std::span<const TxPtr> txs, const state::StateView& db) const {
  std::vector<Status> results(txs.size(), Status::ok());
  // Indices still passing, narrowed after each check.
  std::vector<std::uint32_t> live;
  live.reserve(txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    Status status = structural_check(*txs[i], config_);
    if (status.is_ok()) {
      live.push_back(static_cast<std::uint32_t>(i));
    } else {
      results[i] = std::move(status);
    }
  }
  count(counters_[0], live.size(), txs.size() - live.size());

  // The items view the CachedTx digests, which the TxPtr span keeps alive.
  std::vector<crypto::BatchVerifyItem> items;
  items.reserve(live.size());
  for (const std::uint32_t i : live) items.push_back(signature_item(*txs[i]));
  const std::vector<bool> signed_ok =
      crypto::verify_batch(*scheme_, items, pool_);
  std::size_t kept = 0;
  for (std::size_t j = 0; j < live.size(); ++j) {
    if (signed_ok[j]) {
      live[kept++] = live[j];
    } else {
      results[live[j]] = invalid_signature();
    }
  }
  count(counters_[1], kept, live.size() - kept);
  live.resize(kept);

  std::size_t passed = 0;
  for (const std::uint32_t i : live) {
    Status status = state_check(*txs[i], db, config_);
    if (status.is_ok()) {
      ++passed;
    } else {
      results[i] = std::move(status);
    }
  }
  count(counters_[2], passed, live.size() - passed);
  return results;
}

Status ValidationPipeline::validate_one(const CachedTx& tx,
                                        const state::StateView& db) const {
  Status status = structural_check(tx, config_);
  if (!status.is_ok()) return status;
  const crypto::BatchVerifyItem sig = signature_item(tx);
  if (!scheme_->verify(sig.message, sig.signature, sig.public_key)) {
    return invalid_signature();
  }
  return state_check(tx, db, config_);
}

}  // namespace srbb::txn
