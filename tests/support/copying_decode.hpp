// The copying RLP and transaction decoders: owning-tree parsers kept out of
// the program as the reference for the zero-copy path (rlp::decode_view,
// txn::Transaction::decode). fuzz_rlp_view and test_fuzz check the two agree
// byte for byte and error for error; BM_RlpDecodeCopying and
// BM_TxDecodeCopying are the baselines the view decoders are measured
// against (tools/perf_smoke.sh gate 3).
#pragma once

#include <vector>

#include "codec/rlp.hpp"
#include "common/bytes.hpp"
#include "common/status.hpp"
#include "common/u256.hpp"
#include "txn/transaction.hpp"

namespace srbb::rlp {

struct Item {
  bool is_list = false;
  Bytes payload;            // string contents when !is_list
  std::vector<Item> items;  // children when is_list

  /// Integer view of a string item; error when it is a list, has a leading
  /// zero byte, or exceeds the requested width.
  Result<std::uint64_t> as_u64() const;
  Result<U256> as_u256() const;
};

/// Decode a complete RLP document; trailing bytes are an error. Same
/// grammar, canonicality rules, 512-level nesting cap and error strings as
/// decode_view().
Result<Item> decode(BytesView data);

/// Decode one item from the front of `data`, advancing it.
Result<Item> decode_prefix(BytesView& data);

/// Deep copy of a view subtree into an owning Item.
Item materialize(const ItemView& view);

}  // namespace srbb::rlp

namespace srbb::txn {

/// Transaction decode through rlp::decode: the reference for
/// Transaction::decode.
Result<Transaction> decode_tx_copying(BytesView wire);

}  // namespace srbb::txn
