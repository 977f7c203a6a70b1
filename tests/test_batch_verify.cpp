// Adversarial tests for true batch ed25519 verification: the multi-scalar
// combined equation with deterministic bisection must return results
// positionally identical to batch_verify_sequential on every composition —
// single bad items anywhere in the batch, all-bad batches, malleable and
// non-canonical encodings — and verify_batch must agree with it with no
// pool and with 1- and 4-worker pools, on both sides of its chunk size and
// parallel threshold.
#include "crypto/batch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <vector>

#include "common/u256.hpp"
#include "crypto/ed25519.hpp"

namespace srbb::crypto {
namespace {

const SignatureScheme& scheme() { return SignatureScheme::ed25519(); }

struct Batch {
  std::vector<Bytes> messages;  // storage the item views alias
  std::vector<BatchVerifyItem> items;

  void add(std::uint64_t signer, const std::string& text) {
    const Identity identity = scheme().make_identity(signer);
    messages.push_back(Bytes(text.begin(), text.end()));
    BatchVerifyItem item;
    item.message = BytesView{messages.back()};
    item.signature = scheme().sign(identity, BytesView{messages.back()});
    item.public_key = identity.public_key;
    items.push_back(item);
  }
};

std::vector<bool> sequential(const Batch& batch) {
  return batch_verify_sequential(scheme(), batch.items);
}

/// The scheme's own batch algorithm and verify_batch — without a pool and
/// with 1- and 4-worker pools — must agree with the sequential reference
/// bit for bit.
void expect_all_strategies_match(const Batch& batch,
                                 const std::vector<bool>& want) {
  EXPECT_EQ(sequential(batch), want);
  EXPECT_EQ(scheme().verify_batch(batch.items), want);
  EXPECT_EQ(verify_batch(scheme(), batch.items), want) << "no pool";
  ThreadPool one(1);
  EXPECT_EQ(verify_batch(scheme(), batch.items, &one), want) << "1 worker";
  ThreadPool four(4);
  EXPECT_EQ(verify_batch(scheme(), batch.items, &four), want) << "4 workers";
}

Batch good_batch(std::size_t n) {
  Batch batch;
  for (std::size_t i = 0; i < n; ++i) {
    batch.add(i + 1, "message " + std::to_string(i));
  }
  return batch;
}

TEST(BatchVerifyAdversarial, EmptyBatch) {
  Batch batch;
  expect_all_strategies_match(batch, {});
}

TEST(BatchVerifyAdversarial, SingletonGoodAndBad) {
  Batch good = good_batch(1);
  expect_all_strategies_match(good, {true});
  Batch bad = good_batch(1);
  bad.items[0].signature[3] ^= 1;
  expect_all_strategies_match(bad, {false});
}

TEST(BatchVerifyAdversarial, AllGood) {
  expect_all_strategies_match(good_batch(9), std::vector<bool>(9, true));
}

TEST(BatchVerifyAdversarial, OneBadAtEveryPosition) {
  // The bisection must isolate a single corrupted item wherever it sits —
  // first, last, and every interior index (covering both halves at every
  // split depth of an 8-item batch).
  for (std::size_t bad = 0; bad < 8; ++bad) {
    Batch batch = good_batch(8);
    batch.items[bad].signature[17] ^= 0x40;
    std::vector<bool> want(8, true);
    want[bad] = false;
    expect_all_strategies_match(batch, want);
  }
}

TEST(BatchVerifyAdversarial, TwoBadInOppositeHalves) {
  Batch batch = good_batch(8);
  batch.items[1].signature[0] ^= 1;
  batch.items[6].signature[0] ^= 1;
  std::vector<bool> want(8, true);
  want[1] = want[6] = false;
  expect_all_strategies_match(batch, want);
}

TEST(BatchVerifyAdversarial, AllBad) {
  Batch batch = good_batch(7);
  for (auto& item : batch.items) item.signature[9] ^= 1;
  expect_all_strategies_match(batch, std::vector<bool>(7, false));
}

TEST(BatchVerifyAdversarial, WrongKeyAndWrongMessage) {
  Batch batch = good_batch(6);
  // Swap two public keys: both items fail, everything else passes.
  std::swap(batch.items[0].public_key, batch.items[5].public_key);
  // Tamper one message (storage stays alive; the view still aliases it).
  batch.messages[2][0] ^= 0xff;
  std::vector<bool> want(6, true);
  want[0] = want[2] = want[5] = false;
  expect_all_strategies_match(batch, want);
}

TEST(BatchVerifyAdversarial, MalleableScalarRejected) {
  // s' = s + L is the classic malleability vector: it satisfies the curve
  // equation but fails the canonical s < L check, so single verify rejects
  // it and the batch path must too (it never reaches the combined
  // equation — the precheck excludes the item deterministically).
  const U256 kL{0x5812631a5cf5d3edULL, 0x14def9dea2f79cd6ULL, 0,
                0x1000000000000000ULL};
  Batch batch = good_batch(5);
  std::uint8_t* s_le = batch.items[2].signature.data() + 32;
  std::uint8_t be[32];
  for (int i = 0; i < 32; ++i) be[i] = s_le[31 - i];
  const U256 sum = U256::from_be(BytesView{be, 32}) + kL;  // s + L < 2^256
  sum.to_be(be);
  for (int i = 0; i < 32; ++i) s_le[i] = be[31 - i];
  std::vector<bool> want(5, true);
  want[2] = false;
  expect_all_strategies_match(batch, want);
}

TEST(BatchVerifyAdversarial, NonCanonicalPointEncodings) {
  Batch batch = good_batch(4);
  // R bytes that decode to no curve point (all 0xff: y >= p with high bit as
  // sign — decompression fails).
  for (std::size_t i = 0; i < 32; ++i) batch.items[1].signature[i] = 0xff;
  // Public key that is not a curve point either.
  for (std::size_t i = 0; i < 31; ++i) batch.items[3].public_key[i] = 0xff;
  batch.items[3].public_key[31] = 0x7f;
  std::vector<bool> want(4, true);
  want[1] = want[3] = false;
  expect_all_strategies_match(batch, want);
}

TEST(BatchVerifyAdversarial, DeterministicAcrossRuns) {
  Batch batch = good_batch(8);
  batch.items[3].signature[1] ^= 1;
  batch.items[4].public_key[0] ^= 1;
  const std::vector<bool> first = scheme().verify_batch(batch.items);
  for (int run = 0; run < 5; ++run) {
    EXPECT_EQ(scheme().verify_batch(batch.items), first);
  }
  EXPECT_EQ(first, sequential(batch));
}

TEST(BatchVerifyAdversarial, LargeMixedBatch) {
  Batch batch = good_batch(64);
  std::vector<bool> want(64, true);
  for (std::size_t i = 0; i < 64; i += 7) {
    batch.items[i].signature[i % 64] ^= 1;
    want[i] = false;
  }
  expect_all_strategies_match(batch, want);
}

TEST(BatchVerifyAdversarial, SizesAroundChunkAndParallelThreshold) {
  // 15/16/17 straddle kVerifyMinParallel, 64/65 and 129 the chunk size, so
  // single-chunk, two-chunk and three-chunk pooled runs are all covered.
  static_assert(kVerifyMinParallel == 16 && kVerifyChunkSize == 64);
  for (const std::size_t n : {1, 15, 16, 17, 64, 65, 129}) {
    Batch batch = good_batch(n);
    std::vector<bool> want(n, true);
    // Bad items at both ends and every 13th position, so bad items land in
    // every chunk and in chunk tails.
    for (std::size_t i = 0; i < n; i += 13) {
      batch.items[i].signature[7] ^= 1;
      want[i] = false;
    }
    batch.items[n - 1].public_key[2] ^= 1;
    want[n - 1] = false;
    SCOPED_TRACE(n);
    expect_all_strategies_match(batch, want);
  }
}

TEST(BatchVerifyAdversarial, FastSimSchemeBatchesToo) {
  // The sim-speed scheme's default verify_batch (a plain loop) must honour
  // the same contract, so pipeline tests over fast_sim stay meaningful.
  const SignatureScheme& fast = SignatureScheme::fast_sim();
  std::vector<Bytes> messages;
  std::vector<BatchVerifyItem> items;
  for (std::size_t i = 0; i < 6; ++i) {
    const Identity identity = fast.make_identity(i + 1);
    messages.push_back(Bytes{static_cast<std::uint8_t>(i), 0xab});
    BatchVerifyItem item;
    item.message = BytesView{messages.back()};
    item.signature = fast.sign(identity, BytesView{messages.back()});
    item.public_key = identity.public_key;
    items.push_back(item);
  }
  items[4].signature[0] ^= 1;
  std::vector<bool> want(6, true);
  want[4] = false;
  EXPECT_EQ(fast.verify_batch(items), want);
  EXPECT_EQ(batch_verify_sequential(fast, items), want);
}

// --- small-order (torsion) vectors ------------------------------------
// The eight points of order dividing 8, canonically encoded. A signature
// whose R or A is one of them differs from a valid one only by torsion, so
// the cofactored equation [8]sB == [8](R + kA) decides it: with s = 0 every
// pair verifies, whatever the message, while the cofactorless equation
// sB == R + kA would accept only those where R + kA happens to be the
// identity. Single verify, the combined batch equation and the bisection
// leaf must all give the cofactored verdict.
const char* const kSmallOrder[] = {
    "0100000000000000000000000000000000000000000000000000000000000000",  // 1
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",  // 2
    "0000000000000000000000000000000000000000000000000000000000000000",  // 4
    "0000000000000000000000000000000000000000000000000000000000000080",  // 4
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",  // 8
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",  // 8
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",  // 8
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",  // 8
};

std::array<std::uint8_t, 32> small_order(std::size_t i) {
  const Bytes raw = from_hex(kSmallOrder[i]).value();
  std::array<std::uint8_t, 32> out{};
  std::copy(raw.begin(), raw.end(), out.begin());
  return out;
}

/// Appends a signature (R = small_order(r), s = `s`) under the public key
/// small_order(a).
void add_torsion(Batch& batch, std::size_t r, std::size_t a, std::uint8_t s,
                 const std::string& text) {
  batch.messages.push_back(Bytes(text.begin(), text.end()));
  BatchVerifyItem item;
  item.message = BytesView{batch.messages.back()};
  const std::array<std::uint8_t, 32> r_bytes = small_order(r);
  std::copy(r_bytes.begin(), r_bytes.end(), item.signature.begin());
  item.signature[32] = s;  // little-endian scalar, the rest zero
  item.public_key = small_order(a);
  batch.items.push_back(item);
}

TEST(BatchVerifyAdversarial, SmallOrderKeysAndNoncesVerifyOnEveryPath) {
  Batch batch;
  batch.messages.reserve(64);  // item views alias these buffers
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t a = 0; a < 8; ++a) {
      add_torsion(batch, r, a, 0, "torsion " + std::to_string(8 * r + a));
    }
  }
  for (std::size_t i = 0; i < batch.items.size(); ++i) {
    EXPECT_TRUE(ed25519_verify(batch.items[i].message, batch.items[i].signature,
                               batch.items[i].public_key))
        << "R " << i / 8 << " A " << i % 8;
  }
  expect_all_strategies_match(batch, std::vector<bool>(64, true));
}

TEST(BatchVerifyAdversarial, TorsionItemsMixedWithGoodAndBad) {
  // Torsion-only items beside honest and corrupted signatures: the bad items
  // make every combined equation that covers them fail, so the bisection
  // descends to single leaves around the torsion items too, and every level
  // must keep the cofactored verdict.
  Batch batch = good_batch(40);
  batch.messages.reserve(60);
  std::vector<bool> want(40, true);
  for (std::size_t i = 0; i < 40; i += 9) {
    batch.items[i].signature[40] ^= 1;
    want[i] = false;
  }
  for (std::size_t i = 0; i < 8; ++i) {
    add_torsion(batch, i, 7 - i, 0, "torsion " + std::to_string(i));
    want.push_back(true);
  }
  // A nonzero s with a small-order A and the identity as R leaves
  // [8]sB != 0, which no torsion can cancel: rejected everywhere.
  for (std::size_t a = 0; a < 8; ++a) {
    add_torsion(batch, 0, a, 1, "nonzero s " + std::to_string(a));
    want.push_back(false);
  }
  expect_all_strategies_match(batch, want);
  for (std::size_t i = 40; i < batch.items.size(); ++i) {
    EXPECT_EQ(ed25519_verify(batch.items[i].message, batch.items[i].signature,
                             batch.items[i].public_key),
              want[i])
        << "item " << i;
  }
}

}  // namespace
}  // namespace srbb::crypto
