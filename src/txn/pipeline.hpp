// Eager validation over cached transactions (DESIGN.md §11). One ordered
// check list, cheapest first, with eager_validate's exact error strings:
//
//   structural  (ii) wire-size cap, gas floor / intrinsic cost
//   signature   (i)  sender signature over the cached signing digest
//   state       (iii) nonce window, (iv)+(v) balance, (vi) static min-gas
//
// Two drivers run the list. validate_one checks one transaction straight
// through. validate checks a batch: a structural loop, one
// crypto::verify_batch call over the survivors (for ed25519 one multi-scalar
// multiplication, which is where the per-item cost collapses), then a state
// loop. A transaction stops at its first failing check, so batch results are
// positionally identical to running eager_validate on each transaction
// (test_validation_pipeline checks this differentially).
//
// The pipeline reads only cached per-transaction values (CachedTx size,
// signing hash, sender), so validating never re-encodes or re-hashes a
// transaction.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/status.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "txn/txref.hpp"
#include "txn/validation.hpp"

namespace srbb::txn {

struct PipelineOptions {
  /// Worker pool for the batch signature call; nullptr keeps everything on
  /// the calling thread.
  ThreadPool* pool = nullptr;
  /// When set, per-check pass/fail counters are registered as
  /// "validate.stage.<structural|signature|state>.pass|fail" and batch
  /// validation updates them. Counting happens on the calling thread only.
  obs::MetricsRegistry* metrics = nullptr;
};

class ValidationPipeline {
 public:
  ValidationPipeline(const crypto::SignatureScheme& scheme,
                     ValidationConfig config, PipelineOptions options = {});

  /// Validate a batch; results are positionally identical to running
  /// eager_validate on each transaction. External synchronization required
  /// (one validate() at a time per pipeline); internal parallelism comes
  /// from PipelineOptions::pool.
  std::vector<Status> validate(std::span<const TxPtr> txs,
                               const state::StateView& db) const;

  /// Single-transaction path over the cached fields, with no allocation on
  /// acceptance. This is what per-event callers (validator nodes inside the
  /// sim) use, keeping their per-transaction trace cadence bit-identical.
  Status validate_one(const CachedTx& tx, const state::StateView& db) const;

  const ValidationConfig& config() const { return config_; }

 private:
  struct CheckCounters {
    obs::Counter* pass = nullptr;
    obs::Counter* fail = nullptr;
  };
  void count(const CheckCounters& counters, std::size_t passed,
             std::size_t failed) const;

  const crypto::SignatureScheme* scheme_;
  ValidationConfig config_;
  ThreadPool* pool_;
  // structural, signature, state; null counters without a metrics registry.
  std::array<CheckCounters, 3> counters_{};
};

}  // namespace srbb::txn
