#include "support/copying_decode.hpp"

#include <cstring>

namespace srbb::rlp {

Result<std::uint64_t> Item::as_u64() const {
  auto wide = as_u256();
  if (!wide) return wide.status();
  if (!wide.value().fits_u64()) return Status::error("rlp: integer exceeds 64 bits");
  return wide.value().as_u64();
}

Result<U256> Item::as_u256() const {
  if (is_list) return Status::error("rlp: expected integer, found list");
  if (payload.size() > 32) return Status::error("rlp: integer exceeds 256 bits");
  if (!payload.empty() && payload[0] == 0) {
    return Status::error("rlp: non-canonical integer (leading zero)");
  }
  return U256::from_be(payload);
}

namespace {

// The same cap as the view parser in src/codec/rlp.cpp.
constexpr std::size_t kMaxDepth = 512;

Result<std::size_t> read_long_length(BytesView& data, std::size_t len_of_len) {
  if (data.size() < len_of_len) return Status::error("rlp: truncated length");
  if (len_of_len > 8) return Status::error("rlp: length too large");
  if (data[0] == 0) return Status::error("rlp: non-canonical length (leading zero)");
  std::size_t length = 0;
  for (std::size_t i = 0; i < len_of_len; ++i) {
    length = (length << 8) | data[i];
  }
  if (length <= 55) return Status::error("rlp: non-canonical long form");
  data = data.subspan(len_of_len);
  return length;
}

Result<Item> decode_prefix_at(BytesView& data, std::size_t depth) {
  if (depth > kMaxDepth) return Status::error("rlp: nesting too deep");
  if (data.empty()) return Status::error("rlp: empty input");
  const std::uint8_t prefix = data[0];
  data = data.subspan(1);

  Item out;
  std::size_t length = 0;

  if (prefix < 0x80) {
    // Single byte encodes itself.
    out.payload.push_back(prefix);
    return out;
  }
  if (prefix <= 0xb7) {  // short string
    length = prefix - 0x80;
    if (data.size() < length) return Status::error("rlp: truncated string");
    if (length == 1 && data[0] < 0x80) {
      return Status::error("rlp: non-canonical single byte");
    }
    out.payload.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(length));
    data = data.subspan(length);
    return out;
  }
  if (prefix <= 0xbf) {  // long string
    auto len = read_long_length(data, prefix - 0xb7);
    if (!len) return len.status();
    length = len.value();
    if (data.size() < length) return Status::error("rlp: truncated string");
    out.payload.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(length));
    data = data.subspan(length);
    return out;
  }
  // Lists.
  out.is_list = true;
  if (prefix <= 0xf7) {
    length = prefix - 0xc0;
  } else {
    auto len = read_long_length(data, prefix - 0xf7);
    if (!len) return len.status();
    length = len.value();
  }
  if (data.size() < length) return Status::error("rlp: truncated list");
  BytesView body = data.subspan(0, length);
  data = data.subspan(length);
  while (!body.empty()) {
    auto child = decode_prefix_at(body, depth + 1);
    if (!child) return child.status();
    out.items.push_back(std::move(child).take());
  }
  return out;
}

}  // namespace

Result<Item> decode_prefix(BytesView& data) {
  return decode_prefix_at(data, 0);
}

Result<Item> decode(BytesView data) {
  auto item = decode_prefix(data);
  if (!item) return item.status();
  if (!data.empty()) return Status::error("rlp: trailing bytes");
  return item;
}

Item materialize(const ItemView& view) {
  Item out;
  out.is_list = view.is_list();
  if (!out.is_list) {
    out.payload.assign(view.payload().begin(), view.payload().end());
    return out;
  }
  out.items.reserve(view.size());
  ItemView child = view.child(0);
  for (std::size_t i = 0; i < view.size(); ++i) {
    out.items.push_back(materialize(child));
    child = child.next_sibling();
  }
  return out;
}

}  // namespace srbb::rlp

namespace srbb::txn {

Result<Transaction> decode_tx_copying(BytesView wire) {
  auto doc = rlp::decode(wire);
  if (!doc) return doc.status();
  const rlp::Item& root = doc.value();
  if (!root.is_list || root.items.size() != 9) {
    return Status::error("tx: expected 9-item list");
  }
  Transaction tx;
  auto kind = root.items[0].as_u64();
  if (!kind || kind.value() > 2) return Status::error("tx: bad kind");
  tx.kind = static_cast<TxKind>(kind.value());
  auto nonce = root.items[1].as_u64();
  if (!nonce) return nonce.status();
  tx.nonce = nonce.value();
  auto gas_price = root.items[2].as_u256();
  if (!gas_price) return gas_price.status();
  tx.gas_price = gas_price.value();
  auto gas_limit = root.items[3].as_u64();
  if (!gas_limit) return gas_limit.status();
  tx.gas_limit = gas_limit.value();
  if (root.items[4].is_list || root.items[4].payload.size() != 20) {
    return Status::error("tx: bad to-address");
  }
  tx.to = Address{BytesView{root.items[4].payload}};
  auto value = root.items[5].as_u256();
  if (!value) return value.status();
  tx.value = value.value();
  if (root.items[6].is_list) return Status::error("tx: bad data field");
  tx.data = root.items[6].payload;
  if (root.items[7].is_list || root.items[7].payload.size() != 32) {
    return Status::error("tx: bad public key");
  }
  std::memcpy(tx.sender_pubkey.data(), root.items[7].payload.data(), 32);
  if (root.items[8].is_list || root.items[8].payload.size() != 64) {
    return Status::error("tx: bad signature");
  }
  std::memcpy(tx.signature.data(), root.items[8].payload.data(), 64);
  return tx;
}

}  // namespace srbb::txn
