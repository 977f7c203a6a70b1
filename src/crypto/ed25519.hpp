// Ed25519 signatures (RFC 8032), implemented from scratch:
//  - field arithmetic mod 2^255-19 in radix-51 with 128-bit products,
//  - unified twisted-Edwards addition in extended coordinates,
//  - 4-bit windowed fixed-base scalar multiplication for signing,
//  - scalar arithmetic mod the group order L via the shared U256 helpers.
//
// This implementation favours clarity and auditability over side-channel
// hardening: scalar multiplication is not constant-time, which is acceptable
// for a simulation/benchmarking system that never holds real funds.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bytes.hpp"

namespace srbb::crypto {

using PrivateSeed = std::array<std::uint8_t, 32>;
using PublicKey = std::array<std::uint8_t, 32>;
using Signature = std::array<std::uint8_t, 64>;

struct Ed25519KeyPair {
  PrivateSeed seed{};
  PublicKey public_key{};
};

/// Expand a 32-byte seed into a keypair (seed is the RFC 8032 private key).
Ed25519KeyPair ed25519_keypair(const PrivateSeed& seed);

/// Deterministic keypair for tests/simulations, derived from a 64-bit id.
Ed25519KeyPair ed25519_keypair_from_id(std::uint64_t id);

Signature ed25519_sign(BytesView message, const Ed25519KeyPair& keypair);

/// RFC 8032 verification with the cofactored equation [8]sB == [8](R + kA),
/// the check ed25519_verify_batch also applies, so both give the same
/// verdict on every signature, including ones whose R or A carries a
/// small-order component.
bool ed25519_verify(BytesView message, const Signature& signature,
                    const PublicKey& public_key);

/// One (message, signature, key) reference for batch verification. All three
/// buffers are caller-owned and must outlive the call.
struct Ed25519BatchItem {
  BytesView message{};
  const Signature* signature = nullptr;
  const PublicKey* public_key = nullptr;
};

/// Shared-computation batch verification: a single multi-scalar
/// multiplication checks the random linear combination of all N signature
/// equations, amortizing the doubling chain across the batch. Coefficients
/// are derived deterministically from a transcript hash (no runtime
/// randomness); a failing combination bisects down to exact per-signature
/// checks, so results are positionally identical to calling ed25519_verify
/// per item. Both sides of every equation are compared cofactored, so a
/// torsion-crafted signature is accepted or rejected exactly as by
/// ed25519_verify; the only remaining gap is the ~2^-128 chance that a
/// forged item cancels in the random linear combination.
std::vector<bool> ed25519_verify_batch(std::span<const Ed25519BatchItem> items);

}  // namespace srbb::crypto
