// Reference Keccak-256: the permutation written as loops over a lane array
// with modulo indexing, exactly as the yellow-paper pseudocode reads. Kept out
// of the program as the oracle the straight-line crypto::Keccak256 is checked
// against (tests/test_keccak.cpp).
#pragma once

#include "common/bytes.hpp"

namespace srbb::crypto {

Hash32 keccak256_reference(BytesView data);

}  // namespace srbb::crypto
