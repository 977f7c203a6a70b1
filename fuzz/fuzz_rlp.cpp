// RLP decoder harness: hostile wire bytes must produce a clean error or a
// canonical item — never a crash, hang, or non-canonical round trip. The
// 512-level nesting cap (codec/rlp.cpp) exists because this harness's
// deep-nesting corpus seed overflowed the recursive decoder's stack.
#include <algorithm>
#include <functional>

#include "codec/rlp.hpp"
#include "harness.hpp"
#include "support/copying_decode.hpp"

using namespace srbb;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const BytesView input{data, size};
  auto item = rlp::decode(input);
  if (!item.is_ok()) return 0;
  // Canonical codec: anything that decodes must re-encode to the identical
  // bytes (the property that makes hashes of decoded-then-forwarded
  // structures consistent across validators).
  std::function<Bytes(const rlp::Item&)> reencode =
      [&](const rlp::Item& node) -> Bytes {
    if (!node.is_list) return rlp::encode_bytes(node.payload);
    std::vector<Bytes> parts;
    parts.reserve(node.items.size());
    for (const rlp::Item& child : node.items) parts.push_back(reencode(child));
    return rlp::encode_list(parts);
  };
  const Bytes canonical = reencode(item.value());
  FUZZ_ASSERT(canonical.size() == input.size());
  FUZZ_ASSERT(std::equal(canonical.begin(), canonical.end(), input.begin()));
  return 0;
}
