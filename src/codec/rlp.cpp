#include "codec/rlp.hpp"

namespace srbb::rlp {

namespace {

// Append the length header for a payload of `length` bytes, using `base`
// 0x80 for strings or 0xc0 for lists.
void append_header(Bytes& out, std::size_t length, std::uint8_t base) {
  if (length <= 55) {
    out.push_back(static_cast<std::uint8_t>(base + length));
    return;
  }
  std::uint8_t len_be[8];
  put_be64(len_be, length);
  std::size_t first = 0;
  while (first < 7 && len_be[first] == 0) ++first;
  const std::size_t len_of_len = 8 - first;
  out.push_back(static_cast<std::uint8_t>(base + 55 + len_of_len));
  out.insert(out.end(), len_be + first, len_be + 8);
}

Bytes minimal_be(const U256& value) {
  const Bytes full = value.be_bytes();
  std::size_t first = 0;
  while (first < full.size() && full[first] == 0) ++first;
  return Bytes{full.begin() + static_cast<std::ptrdiff_t>(first), full.end()};
}

}  // namespace

Bytes encode_bytes(BytesView payload) {
  Bytes out;
  if (payload.size() == 1 && payload[0] < 0x80) {
    out.push_back(payload[0]);
    return out;
  }
  append_header(out, payload.size(), 0x80);
  append(out, payload);
  return out;
}

Bytes encode_u64(std::uint64_t value) { return encode_u256(U256{value}); }

Bytes encode_u256(const U256& value) {
  const Bytes payload = minimal_be(value);
  return encode_bytes(payload);
}

Bytes encode_list(const std::vector<Bytes>& encoded_items) {
  std::size_t total = 0;
  for (const auto& item : encoded_items) total += item.size();
  Bytes out;
  out.reserve(total + 9);
  append_header(out, total, 0xc0);
  for (const auto& item : encoded_items) append(out, item);
  return out;
}

ListBuilder& ListBuilder::add_bytes(BytesView payload) {
  items_.push_back(encode_bytes(payload));
  return *this;
}

ListBuilder& ListBuilder::add_u64(std::uint64_t value) {
  items_.push_back(encode_u64(value));
  return *this;
}

ListBuilder& ListBuilder::add_u256(const U256& value) {
  items_.push_back(encode_u256(value));
  return *this;
}

ListBuilder& ListBuilder::add_raw(Bytes encoded) {
  items_.push_back(std::move(encoded));
  return *this;
}

Bytes ListBuilder::build() const { return encode_list(items_); }

namespace {

// Nesting deeper than this is rejected. The recursive decoder consumes stack
// per level, so without a cap a Byzantine peer could crash a validator with a
// few hundred KB of correctly-framed nested lists (stack overflow; reproduced
// by fuzz/corpus/rlp/deep_nesting_100k.bin). 512 levels is far beyond any
// legitimate SRBB structure (blocks nest 3 deep) yet well within stack
// budget on every platform we run on.
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

// Payloads become views into the wire buffer and the tree is appended to the
// flat node arena in DFS pre-order. The copying reference decoder in
// tests/support/copying_decode.cpp mirrors this control flow and its error
// strings (fuzz_rlp_view enforces behavioural equality).
Status view_parse_at(BytesView& data, std::vector<ViewNode>& nodes,
                     std::size_t depth) {
  if (depth > kMaxDepth) return Status::error("rlp: nesting too deep");
  if (data.empty()) return Status::error("rlp: empty input");
  const std::uint8_t prefix = data[0];
  const std::uint8_t* start = data.data();
  data = data.subspan(1);

  const std::uint32_t self = static_cast<std::uint32_t>(nodes.size());
  nodes.emplace_back();  // may reallocate during recursion; index, don't hold
  std::size_t length = 0;

  if (prefix < 0x80) {
    // Single byte encodes itself; the view is that wire byte.
    nodes[self].payload = BytesView{start, 1};
    nodes[self].subtree_end = self + 1;
    return Status::ok();
  }
  if (prefix <= 0xb7) {  // short string
    length = prefix - 0x80;
    if (data.size() < length) return Status::error("rlp: truncated string");
    if (length == 1 && data[0] < 0x80) {
      return Status::error("rlp: non-canonical single byte");
    }
    nodes[self].payload = data.first(length);
    data = data.subspan(length);
    nodes[self].subtree_end = self + 1;
    return Status::ok();
  }
  if (prefix <= 0xbf) {  // long string
    auto len = read_long_length(data, prefix - 0xb7);
    if (!len) return len.status();
    length = len.value();
    if (data.size() < length) return Status::error("rlp: truncated string");
    nodes[self].payload = data.first(length);
    data = data.subspan(length);
    nodes[self].subtree_end = self + 1;
    return Status::ok();
  }
  // Lists.
  nodes[self].is_list = true;
  if (prefix <= 0xf7) {
    length = prefix - 0xc0;
  } else {
    auto len = read_long_length(data, prefix - 0xf7);
    if (!len) return len.status();
    length = len.value();
  }
  if (data.size() < length) return Status::error("rlp: truncated list");
  BytesView body = data.subspan(0, length);
  nodes[self].payload = body;
  data = data.subspan(length);
  std::uint32_t children = 0;
  while (!body.empty()) {
    const Status child = view_parse_at(body, nodes, depth + 1);
    if (!child.is_ok()) return child;
    ++children;
  }
  nodes[self].child_count = children;
  nodes[self].subtree_end = static_cast<std::uint32_t>(nodes.size());
  return Status::ok();
}

}  // namespace

bool ItemView::is_list() const { return doc_->nodes_[index_].is_list; }

BytesView ItemView::payload() const {
  const ViewNode& n = doc_->nodes_[index_];
  return n.is_list ? BytesView{} : n.payload;
}

BytesView ItemView::list_body() const {
  const ViewNode& n = doc_->nodes_[index_];
  return n.is_list ? n.payload : BytesView{};
}

std::size_t ItemView::size() const { return doc_->nodes_[index_].child_count; }

ItemView ItemView::child(std::size_t i) const {
  std::uint32_t idx = index_ + 1;
  for (std::size_t hop = 0; hop < i; ++hop) {
    idx = doc_->nodes_[idx].subtree_end;
  }
  return ItemView{doc_, idx};
}

ItemView ItemView::next_sibling() const {
  return ItemView{doc_, doc_->nodes_[index_].subtree_end};
}

Result<std::uint64_t> ItemView::as_u64() const {
  auto wide = as_u256();
  if (!wide) return wide.status();
  if (!wide.value().fits_u64()) {
    return Status::error("rlp: integer exceeds 64 bits");
  }
  return wide.value().as_u64();
}

Result<U256> ItemView::as_u256() const {
  const ViewNode& n = doc_->nodes_[index_];
  if (n.is_list) return Status::error("rlp: expected integer, found list");
  if (n.payload.size() > 32) {
    return Status::error("rlp: integer exceeds 256 bits");
  }
  if (!n.payload.empty() && n.payload[0] == 0) {
    return Status::error("rlp: non-canonical integer (leading zero)");
  }
  return U256::from_be(n.payload);
}

Result<ItemView> decode_view(BytesView data, ViewDoc& doc) {
  doc.clear();
  const Status parsed = view_parse_at(data, doc.nodes_, 0);
  if (!parsed.is_ok()) return parsed;
  if (!data.empty()) return Status::error("rlp: trailing bytes");
  return doc.root();
}

}  // namespace srbb::rlp
