#include "crypto/keccak.hpp"

#include <cstring>

namespace srbb::crypto {

namespace {

constexpr int kRate = 136;  // 1088-bit rate for Keccak-256

constexpr std::uint64_t kRoundConstants[24] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull};

// Rotation amount n is always in [1, 63] below (zero-offset lanes skip it).
inline std::uint64_t rotl(std::uint64_t x, int n) {
  return (x << n) | (x >> (64 - n));
}

// Keccak-f[1600] with the 25 lanes in locals (lane a<i> is x + 5y) and each
// round written out straight-line, so the compiler keeps the state in
// registers instead of indexing an array through modulo arithmetic. Rho and
// pi are fused: lane (x, y) is rotated by its rho offset into position
// (y, 2x + 3y) of b.
void keccak_f(std::uint64_t s[25]) {
  std::uint64_t a00 = s[0], a01 = s[1], a02 = s[2], a03 = s[3], a04 = s[4];
  std::uint64_t a05 = s[5], a06 = s[6], a07 = s[7], a08 = s[8], a09 = s[9];
  std::uint64_t a10 = s[10], a11 = s[11], a12 = s[12], a13 = s[13], a14 = s[14];
  std::uint64_t a15 = s[15], a16 = s[16], a17 = s[17], a18 = s[18], a19 = s[19];
  std::uint64_t a20 = s[20], a21 = s[21], a22 = s[22], a23 = s[23], a24 = s[24];
  for (const std::uint64_t round_constant : kRoundConstants) {
    // Theta
    const std::uint64_t c0 = a00 ^ a05 ^ a10 ^ a15 ^ a20;
    const std::uint64_t c1 = a01 ^ a06 ^ a11 ^ a16 ^ a21;
    const std::uint64_t c2 = a02 ^ a07 ^ a12 ^ a17 ^ a22;
    const std::uint64_t c3 = a03 ^ a08 ^ a13 ^ a18 ^ a23;
    const std::uint64_t c4 = a04 ^ a09 ^ a14 ^ a19 ^ a24;
    const std::uint64_t d0 = c4 ^ rotl(c1, 1);
    const std::uint64_t d1 = c0 ^ rotl(c2, 1);
    const std::uint64_t d2 = c1 ^ rotl(c3, 1);
    const std::uint64_t d3 = c2 ^ rotl(c4, 1);
    const std::uint64_t d4 = c3 ^ rotl(c0, 1);
    // Rho + Pi
    const std::uint64_t b00 = a00 ^ d0;
    const std::uint64_t b01 = rotl(a06 ^ d1, 44);
    const std::uint64_t b02 = rotl(a12 ^ d2, 43);
    const std::uint64_t b03 = rotl(a18 ^ d3, 21);
    const std::uint64_t b04 = rotl(a24 ^ d4, 14);
    const std::uint64_t b05 = rotl(a03 ^ d3, 28);
    const std::uint64_t b06 = rotl(a09 ^ d4, 20);
    const std::uint64_t b07 = rotl(a10 ^ d0, 3);
    const std::uint64_t b08 = rotl(a16 ^ d1, 45);
    const std::uint64_t b09 = rotl(a22 ^ d2, 61);
    const std::uint64_t b10 = rotl(a01 ^ d1, 1);
    const std::uint64_t b11 = rotl(a07 ^ d2, 6);
    const std::uint64_t b12 = rotl(a13 ^ d3, 25);
    const std::uint64_t b13 = rotl(a19 ^ d4, 8);
    const std::uint64_t b14 = rotl(a20 ^ d0, 18);
    const std::uint64_t b15 = rotl(a04 ^ d4, 27);
    const std::uint64_t b16 = rotl(a05 ^ d0, 36);
    const std::uint64_t b17 = rotl(a11 ^ d1, 10);
    const std::uint64_t b18 = rotl(a17 ^ d2, 15);
    const std::uint64_t b19 = rotl(a23 ^ d3, 56);
    const std::uint64_t b20 = rotl(a02 ^ d2, 62);
    const std::uint64_t b21 = rotl(a08 ^ d3, 55);
    const std::uint64_t b22 = rotl(a14 ^ d4, 39);
    const std::uint64_t b23 = rotl(a15 ^ d0, 41);
    const std::uint64_t b24 = rotl(a21 ^ d1, 2);
    // Chi, then Iota on lane 0
    a00 = b00 ^ (~b01 & b02) ^ round_constant;
    a01 = b01 ^ (~b02 & b03);
    a02 = b02 ^ (~b03 & b04);
    a03 = b03 ^ (~b04 & b00);
    a04 = b04 ^ (~b00 & b01);
    a05 = b05 ^ (~b06 & b07);
    a06 = b06 ^ (~b07 & b08);
    a07 = b07 ^ (~b08 & b09);
    a08 = b08 ^ (~b09 & b05);
    a09 = b09 ^ (~b05 & b06);
    a10 = b10 ^ (~b11 & b12);
    a11 = b11 ^ (~b12 & b13);
    a12 = b12 ^ (~b13 & b14);
    a13 = b13 ^ (~b14 & b10);
    a14 = b14 ^ (~b10 & b11);
    a15 = b15 ^ (~b16 & b17);
    a16 = b16 ^ (~b17 & b18);
    a17 = b17 ^ (~b18 & b19);
    a18 = b18 ^ (~b19 & b15);
    a19 = b19 ^ (~b15 & b16);
    a20 = b20 ^ (~b21 & b22);
    a21 = b21 ^ (~b22 & b23);
    a22 = b22 ^ (~b23 & b24);
    a23 = b23 ^ (~b24 & b20);
    a24 = b24 ^ (~b20 & b21);
  }
  s[0] = a00; s[1] = a01; s[2] = a02; s[3] = a03; s[4] = a04;
  s[5] = a05; s[6] = a06; s[7] = a07; s[8] = a08; s[9] = a09;
  s[10] = a10; s[11] = a11; s[12] = a12; s[13] = a13; s[14] = a14;
  s[15] = a15; s[16] = a16; s[17] = a17; s[18] = a18; s[19] = a19;
  s[20] = a20; s[21] = a21; s[22] = a22; s[23] = a23; s[24] = a24;
}

}  // namespace

void Keccak256::absorb_block() {
  for (int i = 0; i < kRate / 8; ++i) {
    std::uint64_t lane = 0;
    for (int j = 0; j < 8; ++j) {
      lane |= static_cast<std::uint64_t>(buffer_[8 * i + j]) << (8 * j);
    }
    state_[i] ^= lane;
  }
  keccak_f(state_);
}

void Keccak256::update(BytesView data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    const std::size_t take =
        std::min<std::size_t>(kRate - buffered_, data.size() - offset);
    std::memcpy(buffer_ + buffered_, data.data() + offset, take);
    buffered_ += take;
    offset += take;
    if (buffered_ == kRate) {
      absorb_block();
      buffered_ = 0;
    }
  }
}

Hash32 Keccak256::finish() {
  // Original Keccak pad10*1: 0x01 ... 0x80 within the rate block.
  std::memset(buffer_ + buffered_, 0, kRate - buffered_);
  buffer_[buffered_] = 0x01;
  buffer_[kRate - 1] |= 0x80;
  absorb_block();
  buffered_ = 0;

  Hash32 out;
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 8; ++j) {
      out.data[8 * i + j] = static_cast<std::uint8_t>(state_[i] >> (8 * j));
    }
  }
  return out;
}

Hash32 Keccak256::hash(BytesView data) {
  Keccak256 k;
  k.update(data);
  return k.finish();
}

Address address_from_pubkey(BytesView pubkey) {
  const Hash32 h = Keccak256::hash(pubkey);
  Address out;
  std::memcpy(out.data.data(), h.data.data() + 12, 20);
  return out;
}

}  // namespace srbb::crypto
