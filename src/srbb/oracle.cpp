#include "srbb/oracle.hpp"

#include "common/thread_pool.hpp"
#include "crypto/batch.hpp"

namespace srbb::node {

namespace {

// Shared by the sequential and parallel paths so both produce identical
// per-transaction accounting.
TxOutcome outcome_from(const txn::TxPtr& tx,
                       const Result<txn::Receipt>& receipt,
                       IndexExecResult& result) {
  TxOutcome outcome;
  outcome.hash = tx->hash;
  if (receipt.is_ok()) {
    outcome.valid = true;
    outcome.executed_ok = receipt.value().success;
    outcome.gas_used = receipt.value().gas_used;
    outcome.fee = tx->tx.gas_price * U256{receipt.value().gas_used};
    ++result.total_valid;
  } else {
    // Invalid transaction: no state transition; discard from the block
    // (Alg. 1 line 23).
    ++result.total_invalid;
  }
  return outcome;
}

}  // namespace

ExecutionOracle::ExecutionOracle(const GenesisSpec& genesis,
                                 evm::BlockContext block_template,
                                 const crypto::SignatureScheme& scheme)
    : ExecutionOracle(genesis, block_template, scheme, state::StateConfig{}) {}

ExecutionOracle::ExecutionOracle(const GenesisSpec& genesis,
                                 evm::BlockContext block_template,
                                 const crypto::SignatureScheme& scheme,
                                 state::StateConfig /*state_config*/)
    : genesis_(genesis),
      block_template_(block_template),
      scheme_(&scheme) {
  genesis_.apply(db_);
}

void ExecutionOracle::reset() {
  db_ = state::StateDB{};
  genesis_.apply(db_);
  results_.clear();
  root_stats_ = RootStats{};
}

const IndexExecResult& ExecutionOracle::execute(
    std::uint64_t index, const std::vector<txn::BlockPtr>& blocks) {
  return execute(index, blocks, ExecContext{});
}

const IndexExecResult& ExecutionOracle::execute(
    std::uint64_t index, const std::vector<txn::BlockPtr>& blocks,
    const ExecContext& ctx) {
  if (const auto it = results_.find(index); it != results_.end()) {
    return it->second;
  }
  IndexExecResult result;
  evm::BlockContext block_ctx = block_template_;
  block_ctx.number = index;

  // Check (i), the signature (the EVM's ErrInvalidSig, Alg. 1 l.32-40): a
  // Byzantine proposer can include forged transactions, so every replica
  // checks every transaction of the superblock, here all at once in
  // canonical order (block order, then transaction order) with one batch
  // verify over the cached signing digests.
  std::vector<crypto::BatchVerifyItem> items;
  for (const txn::BlockPtr& block : blocks) {
    for (const txn::TxPtr& tx : block->txs) {
      items.push_back({tx->signing_hash.view(), tx->tx.signature,
                       tx->tx.sender_pubkey});
    }
  }
  const std::vector<bool> signed_ok =
      crypto::verify_batch(*scheme_, items, &shared_pool());

  // The parallel path hands the signed transactions, still in canonical
  // order, to the optimistic executor in one call.
  std::vector<Result<txn::Receipt>> executed;
  if (exec_config_.parallel) {
    std::vector<const txn::Transaction*> signed_txs;
    std::size_t i = 0;
    for (const txn::BlockPtr& block : blocks) {
      for (const txn::TxPtr& tx : block->txs) {
        if (signed_ok[i++]) signed_txs.push_back(&tx->tx);
      }
    }
    if (!parallel_) {
      parallel_ = std::make_unique<txn::ParallelExecutor>(
          exec_config_.workers, exec_config_.max_retries);
    }
    executed = parallel_->execute_block(
        signed_txs, db_, block_ctx, exec_config_, &result.parallel,
        txn::ExecTraceContext{ctx.trace, ctx.at, ctx.node});
  }

  // A transaction whose signature failed never reaches the executor: no
  // state transition, discarded like a lazy-validation failure. The rest
  // execute with no further signature work.
  const Result<txn::Receipt> bad_signature =
      Status::error("exec: invalid signature (ErrInvalidSig)");
  std::size_t next = 0;
  std::size_t next_executed = 0;
  for (const txn::BlockPtr& block : blocks) {
    BlockExecResult block_result;
    block_result.proposer = block->header.proposer;
    for (const txn::TxPtr& tx : block->txs) {
      if (!signed_ok[next++]) {
        block_result.outcomes.push_back(
            outcome_from(tx, bad_signature, result));
      } else if (exec_config_.parallel) {
        block_result.outcomes.push_back(
            outcome_from(tx, executed[next_executed++], result));
      } else {
        block_result.outcomes.push_back(outcome_from(
            tx, txn::apply_transaction(tx->tx, db_, block_ctx, exec_config_),
            result));
      }
    }
    result.blocks.push_back(std::move(block_result));
  }
  db_.commit();
  result.state_root = db_.state_root();
  ++root_stats_.computed;
  SRBB_TRACE(ctx.trace, ctx.at, 0, ctx.node, "commit", "superblock.exec",
             "index", index, "valid", result.total_valid);
  return results_.emplace(index, std::move(result)).first->second;
}

}  // namespace srbb::node
