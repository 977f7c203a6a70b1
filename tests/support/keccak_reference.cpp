#include "support/keccak_reference.hpp"

#include <cstdint>

namespace srbb::crypto {

namespace {

constexpr std::size_t kRate = 136;  // 1088-bit rate for Keccak-256

constexpr std::uint64_t kRoundConstants[24] = {
    0x0000000000000001ull, 0x0000000000008082ull, 0x800000000000808aull,
    0x8000000080008000ull, 0x000000000000808bull, 0x0000000080000001ull,
    0x8000000080008081ull, 0x8000000000008009ull, 0x000000000000008aull,
    0x0000000000000088ull, 0x0000000080008009ull, 0x000000008000000aull,
    0x000000008000808bull, 0x800000000000008bull, 0x8000000000008089ull,
    0x8000000000008003ull, 0x8000000000008002ull, 0x8000000000000080ull,
    0x000000000000800aull, 0x800000008000000aull, 0x8000000080008081ull,
    0x8000000000008080ull, 0x0000000080000001ull, 0x8000000080008008ull};

constexpr int kRotations[25] = {0,  1,  62, 28, 27, 36, 44, 6,  55, 20, 3,  10, 43,
                                25, 39, 41, 45, 15, 21, 8,  18, 2,  61, 56, 14};

// Destination lane for source lane i = x + 5y under pi: (x, y) -> (y, 2x+3y).
constexpr int kPiLane[25] = {0,  10, 20, 5,  15, 16, 1,  11, 21, 6,  7,  17, 2,
                             12, 22, 23, 8,  18, 3,  13, 14, 24, 9,  19, 4};

std::uint64_t rotl(std::uint64_t x, int n) {
  return n == 0 ? x : (x << n) | (x >> (64 - n));
}

void keccak_f(std::uint64_t a[25]) {
  for (int round = 0; round < 24; ++round) {
    // Theta
    std::uint64_t c[5];
    for (int x = 0; x < 5; ++x) {
      c[x] = a[x] ^ a[x + 5] ^ a[x + 10] ^ a[x + 15] ^ a[x + 20];
    }
    for (int x = 0; x < 5; ++x) {
      const std::uint64_t d = c[(x + 4) % 5] ^ rotl(c[(x + 1) % 5], 1);
      for (int y = 0; y < 25; y += 5) a[x + y] ^= d;
    }
    // Rho + Pi
    std::uint64_t b[25];
    for (int i = 0; i < 25; ++i) b[kPiLane[i]] = rotl(a[i], kRotations[i]);
    // Chi
    for (int y = 0; y < 25; y += 5) {
      for (int x = 0; x < 5; ++x) {
        a[y + x] = b[y + x] ^ (~b[y + (x + 1) % 5] & b[y + (x + 2) % 5]);
      }
    }
    // Iota
    a[0] ^= kRoundConstants[round];
  }
}

void absorb(std::uint64_t state[25], const std::uint8_t block[kRate]) {
  for (std::size_t i = 0; i < kRate / 8; ++i) {
    std::uint64_t lane = 0;
    for (std::size_t j = 0; j < 8; ++j) {
      lane |= static_cast<std::uint64_t>(block[8 * i + j]) << (8 * j);
    }
    state[i] ^= lane;
  }
  keccak_f(state);
}

}  // namespace

Hash32 keccak256_reference(BytesView data) {
  std::uint64_t state[25] = {};
  std::size_t offset = 0;
  for (; offset + kRate <= data.size(); offset += kRate) {
    absorb(state, data.data() + offset);
  }
  // Original Keccak pad10*1: 0x01 ... 0x80 within the rate block.
  std::uint8_t last[kRate] = {};
  for (std::size_t i = offset; i < data.size(); ++i) last[i - offset] = data[i];
  last[data.size() - offset] = 0x01;
  last[kRate - 1] |= 0x80;
  absorb(state, last);

  Hash32 out;
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      out.data[8 * i + j] = static_cast<std::uint8_t>(state[i] >> (8 * j));
    }
  }
  return out;
}

}  // namespace srbb::crypto
