// Batch signature verification. It has two callers on the commit path:
// eager validation of client transactions (txn::ValidationPipeline) and
// check (i) over every transaction of a decided superblock
// (node::ExecutionOracle::execute). There is one way to check a batch:
// the scheme's shared-computation algorithm (for ed25519, one multi-scalar
// multiplication per chunk), with chunks spread across a thread pool when
// one is given and the batch is large enough to pay for the fan-out. With
// one worker or no pool it degenerates to the plain multi-scalar batch.
//
// verify_batch returns results positionally identical to
// batch_verify_sequential, the one-verify-per-item reference the tests
// compare against. Items carry BytesView messages; the caller owns the
// message buffers and must keep them alive across the call.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "crypto/signature.hpp"

namespace srbb::crypto {

/// Items per multi-scalar chunk handed to one pool worker.
inline constexpr std::size_t kVerifyChunkSize = 64;
/// Batches smaller than this stay on the calling thread even with a pool.
inline constexpr std::size_t kVerifyMinParallel = 16;

/// Verify every item with the scheme's batch algorithm: on the calling
/// thread without a pool or below kVerifyMinParallel items, otherwise in
/// kVerifyChunkSize-item chunks across `pool`.
std::vector<bool> verify_batch(const SignatureScheme& scheme,
                               std::span<const BatchVerifyItem> items,
                               ThreadPool* pool = nullptr);

/// One scheme.verify() per item on the calling thread: the test reference.
std::vector<bool> batch_verify_sequential(
    const SignatureScheme& scheme, std::span<const BatchVerifyItem> items);

}  // namespace srbb::crypto
