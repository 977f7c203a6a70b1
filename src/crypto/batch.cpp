#include "crypto/batch.hpp"

#include <algorithm>
#include <cstdint>

namespace srbb::crypto {

std::vector<bool> verify_batch(const SignatureScheme& scheme,
                               std::span<const BatchVerifyItem> items,
                               ThreadPool* pool) {
  if (pool == nullptr || items.size() < kVerifyMinParallel) {
    return scheme.verify_batch(items);
  }
  const std::size_t chunks =
      (items.size() + kVerifyChunkSize - 1) / kVerifyChunkSize;
  // vector<bool> is not safe for concurrent element writes; use bytes.
  std::vector<std::uint8_t> results(items.size(), 0);
  pool->parallel_for(chunks, [&](std::size_t c) {
    const std::size_t lo = c * kVerifyChunkSize;
    const std::size_t hi = std::min(lo + kVerifyChunkSize, items.size());
    const std::vector<bool> chunk =
        scheme.verify_batch(items.subspan(lo, hi - lo));
    for (std::size_t i = lo; i < hi; ++i) results[i] = chunk[i - lo] ? 1 : 0;
  });
  return std::vector<bool>(results.begin(), results.end());
}

std::vector<bool> batch_verify_sequential(
    const SignatureScheme& scheme, std::span<const BatchVerifyItem> items) {
  std::vector<bool> results(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    results[i] = scheme.verify(items[i].message, items[i].signature,
                               items[i].public_key);
  }
  return results;
}

}  // namespace srbb::crypto
