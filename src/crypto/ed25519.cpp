#include "crypto/ed25519.hpp"

#include <cstring>

#include "common/u256.hpp"
#include "crypto/sha512.hpp"

namespace srbb::crypto {

namespace {

// ---------------------------------------------------------------------------
// Field arithmetic mod p = 2^255 - 19, radix-51 (5 limbs of 51 bits).
// Limbs are kept loosely reduced (< 2^52); canonical form is produced only by
// to_bytes(), which routes through U256 for a simple, obviously-correct
// reduction.
// ---------------------------------------------------------------------------

using u64 = std::uint64_t;
using u128 = unsigned __int128;

constexpr u64 kMask51 = (1ull << 51) - 1;

struct Fe {
  u64 v[5] = {0, 0, 0, 0, 0};
};

const U256 kP = (U256::one() << 255) - U256{19};

Fe fe_from_u64(u64 x) {
  Fe f;
  f.v[0] = x & kMask51;
  f.v[1] = x >> 51;
  return f;
}

u64 load_le64(const std::uint8_t* in) {
  u64 out;
  std::memcpy(&out, in, 8);  // little-endian host assumed (x86/ARM)
  return out;
}

Fe fe_from_bytes(const std::uint8_t in[32]) {
  Fe f;
  f.v[0] = load_le64(in) & kMask51;
  f.v[1] = (load_le64(in + 6) >> 3) & kMask51;
  f.v[2] = (load_le64(in + 12) >> 6) & kMask51;
  f.v[3] = (load_le64(in + 19) >> 1) & kMask51;
  f.v[4] = (load_le64(in + 24) >> 12) & kMask51;  // also drops the sign bit
  return f;
}

// Value as an integer (limbs loosely reduced so this fits 256 bits).
U256 fe_to_u256(const Fe& f) {
  U256 acc;
  for (int i = 4; i >= 0; --i) {
    acc = (acc << 51) + U256{f.v[i]};
  }
  return acc % kP;
}

void fe_to_bytes(std::uint8_t out[32], const Fe& f) {
  const U256 canonical = fe_to_u256(f);
  std::uint8_t be[32];
  canonical.to_be(be);
  for (int i = 0; i < 32; ++i) out[i] = be[31 - i];
}

void fe_carry(Fe& f) {
  u64 c;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
  c = f.v[1] >> 51; f.v[1] &= kMask51; f.v[2] += c;
  c = f.v[2] >> 51; f.v[2] &= kMask51; f.v[3] += c;
  c = f.v[3] >> 51; f.v[3] &= kMask51; f.v[4] += c;
  c = f.v[4] >> 51; f.v[4] &= kMask51; f.v[0] += 19 * c;
  c = f.v[0] >> 51; f.v[0] &= kMask51; f.v[1] += c;
}

Fe fe_add(const Fe& a, const Fe& b) {
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + b.v[i];
  fe_carry(r);
  return r;
}

Fe fe_sub(const Fe& a, const Fe& b) {
  // a + 2p - b keeps limbs non-negative for loosely reduced inputs.
  static constexpr u64 kTwoP[5] = {0xFFFFFFFFFFFDAull, 0xFFFFFFFFFFFFEull,
                                   0xFFFFFFFFFFFFEull, 0xFFFFFFFFFFFFEull,
                                   0xFFFFFFFFFFFFEull};
  Fe r;
  for (int i = 0; i < 5; ++i) r.v[i] = a.v[i] + kTwoP[i] - b.v[i];
  fe_carry(r);
  return r;
}

Fe fe_neg(const Fe& a) { return fe_sub(Fe{}, a); }

Fe fe_mul(const Fe& a, const Fe& b) {
  const u128 f0 = a.v[0], f1 = a.v[1], f2 = a.v[2], f3 = a.v[3], f4 = a.v[4];
  const u64 g0 = b.v[0], g1 = b.v[1], g2 = b.v[2], g3 = b.v[3], g4 = b.v[4];
  const u64 g1_19 = 19 * g1, g2_19 = 19 * g2, g3_19 = 19 * g3, g4_19 = 19 * g4;

  u128 r0 = f0 * g0 + f1 * g4_19 + f2 * g3_19 + f3 * g2_19 + f4 * g1_19;
  u128 r1 = f0 * g1 + f1 * g0 + f2 * g4_19 + f3 * g3_19 + f4 * g2_19;
  u128 r2 = f0 * g2 + f1 * g1 + f2 * g0 + f3 * g4_19 + f4 * g3_19;
  u128 r3 = f0 * g3 + f1 * g2 + f2 * g1 + f3 * g0 + f4 * g4_19;
  u128 r4 = f0 * g4 + f1 * g3 + f2 * g2 + f3 * g1 + f4 * g0;

  Fe out;
  u64 c;
  c = static_cast<u64>(r0 >> 51); out.v[0] = static_cast<u64>(r0) & kMask51;
  r1 += c;
  c = static_cast<u64>(r1 >> 51); out.v[1] = static_cast<u64>(r1) & kMask51;
  r2 += c;
  c = static_cast<u64>(r2 >> 51); out.v[2] = static_cast<u64>(r2) & kMask51;
  r3 += c;
  c = static_cast<u64>(r3 >> 51); out.v[3] = static_cast<u64>(r3) & kMask51;
  r4 += c;
  c = static_cast<u64>(r4 >> 51); out.v[4] = static_cast<u64>(r4) & kMask51;
  out.v[0] += 19 * c;
  c = out.v[0] >> 51; out.v[0] &= kMask51; out.v[1] += c;
  return out;
}

Fe fe_sq(const Fe& a) { return fe_mul(a, a); }

// n successive squarings: a^(2^n).
Fe fe_sqn(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = fe_sq(a);
  return a;
}

// Generic square-and-multiply; exponents here are fixed public constants, so
// variable time is fine. Only used for cold one-off constants (sqrt(-1));
// the hot exponentiations below use fixed addition chains.
Fe fe_pow(const Fe& base, const U256& exponent) {
  Fe result = fe_from_u64(1);
  const unsigned nbits = exponent.bit_length();
  for (unsigned i = nbits; i-- > 0;) {
    result = fe_sq(result);
    if (exponent.bit(i)) result = fe_mul(result, base);
  }
  return result;
}

// Shared prefix of the inversion and 2^252-3 addition chains: z^(2^250-1)
// plus the small powers z^2 and z^11 the tails need.
struct FeChain250 {
  Fe t250;  // z^(2^250-1)
  Fe z2;    // z^2
  Fe z11;   // z^11
};

FeChain250 fe_chain250(const Fe& z) {
  FeChain250 out;
  const Fe z2 = fe_sq(z);                       // z^2
  Fe t1 = fe_mul(z, fe_sqn(z2, 2));             // z^9
  const Fe z11 = fe_mul(z2, t1);                // z^11
  t1 = fe_mul(t1, fe_sq(z11));                  // z^31 = z^(2^5-1)
  t1 = fe_mul(fe_sqn(t1, 5), t1);               // z^(2^10-1)
  Fe t2 = fe_mul(fe_sqn(t1, 10), t1);           // z^(2^20-1)
  t2 = fe_mul(fe_sqn(t2, 20), t2);              // z^(2^40-1)
  t1 = fe_mul(fe_sqn(t2, 10), t1);              // z^(2^50-1)
  t2 = fe_mul(fe_sqn(t1, 50), t1);              // z^(2^100-1)
  t2 = fe_mul(fe_sqn(t2, 100), t2);             // z^(2^200-1)
  out.t250 = fe_mul(fe_sqn(t2, 50), t1);        // z^(2^250-1)
  out.z2 = z2;
  out.z11 = z11;
  return out;
}

// z^(p-2) = z^(2^255-21) via the standard 254-squaring addition chain —
// ~11 multiplies instead of the ~127 of generic square-and-multiply.
Fe fe_invert(const Fe& z) {
  const FeChain250 c = fe_chain250(z);
  return fe_mul(fe_sqn(c.t250, 5), c.z11);      // z^(2^255-32+11)
}

// z^((p-5)/8) = z^(2^252-3), the exponent of the combined square-root-ratio
// trick used by point decompression.
Fe fe_pow22523(const Fe& z) {
  const FeChain250 c = fe_chain250(z);
  return fe_mul(fe_sqn(c.t250, 2), z);          // z^(2^252-4+1)
}

bool fe_is_zero(const Fe& a) { return fe_to_u256(a).is_zero(); }

bool fe_equal(const Fe& a, const Fe& b) { return fe_to_u256(a) == fe_to_u256(b); }

bool fe_is_negative(const Fe& a) { return fe_to_u256(a).bit(0); }

// ---------------------------------------------------------------------------
// Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 in extended coordinates (X:Y:Z:T)
// with x = X/Z, y = Y/Z, T = XY/Z.
// ---------------------------------------------------------------------------

struct Point {
  Fe x, y, z, t;
};

struct CurveConstants {
  Fe d;
  Fe d2;
  Fe sqrt_m1;
  Point base;
  // Fixed-base table: table[i][j] = (j+1) * 16^i * B, i in [0,64), j in [0,15).
  Point base_table[64][15];
};

Point point_identity() {
  Point p;
  p.x = Fe{};
  p.y = fe_from_u64(1);
  p.z = fe_from_u64(1);
  p.t = Fe{};
  return p;
}

const CurveConstants& constants();

// Unified addition (add-2008-hwcd for a = -1); complete on this curve, so it
// also serves as doubling. The d2 parameter keeps this callable while the
// constants singleton is still being constructed.
Point point_add_with(const Fe& d2, const Point& p, const Point& q) {
  const Fe a = fe_mul(fe_sub(p.y, p.x), fe_sub(q.y, q.x));
  const Fe b = fe_mul(fe_add(p.y, p.x), fe_add(q.y, q.x));
  const Fe c = fe_mul(fe_mul(p.t, d2), q.t);
  const Fe zz = fe_mul(p.z, q.z);
  const Fe d = fe_add(zz, zz);
  const Fe e = fe_sub(b, a);
  const Fe f = fe_sub(d, c);
  const Fe g = fe_add(d, c);
  const Fe h = fe_add(b, a);
  Point r;
  r.x = fe_mul(e, f);
  r.y = fe_mul(g, h);
  r.t = fe_mul(e, h);
  r.z = fe_mul(f, g);
  return r;
}

Point point_add(const Point& p, const Point& q) {
  return point_add_with(constants().d2, p, q);
}

Point point_double(const Point& p) { return point_add(p, p); }

Point point_neg(const Point& p) {
  return Point{fe_neg(p.x), p.y, p.z, fe_neg(p.t)};
}

// Cofactored equality [8]P == [8]Q: the difference P - Q is doubled three
// times and compared with the identity (X == 0, Y == Z) without normalizing.
// Points that differ only by a small-order (torsion) component compare
// equal, so every verification path below (single, combined and bisection
// leaf) accepts and rejects the same signatures.
bool point_equal_cofactored(const Point& p, const Point& q) {
  Point d = point_add(p, point_neg(q));
  for (int i = 0; i < 3; ++i) d = point_double(d);
  return fe_is_zero(d.x) && fe_equal(d.y, d.z);
}

void point_compress(std::uint8_t out[32], const Point& p) {
  const Fe zinv = fe_invert(p.z);
  const Fe x = fe_mul(p.x, zinv);
  const Fe y = fe_mul(p.y, zinv);
  fe_to_bytes(out, y);
  if (fe_is_negative(x)) out[31] |= 0x80;
}

// Recover x from y: x^2 = (y^2 - 1) / (d y^2 + 1). Returns false for
// non-points. Takes d and sqrt(-1) explicitly so the constants initializer
// can use it.
//
// Uses the combined square-root-of-a-ratio trick (RFC 8032 §5.1.3): the
// candidate x = u v^3 (u v^7)^((p-5)/8) needs one fixed-chain exponentiation
// instead of a field inversion plus a generic (p+3)/8 power. v = d y^2 + 1
// is never zero because -1/d is a non-square mod p.
bool point_decompress_with(const Fe& curve_d, const Fe& sqrt_m1, Point& out,
                           const std::uint8_t in[32]) {
  std::uint8_t ybytes[32];
  std::memcpy(ybytes, in, 32);
  const bool sign = (ybytes[31] & 0x80) != 0;
  ybytes[31] &= 0x7f;
  const Fe y = fe_from_bytes(ybytes);

  const Fe y2 = fe_sq(y);
  const Fe u = fe_sub(y2, fe_from_u64(1));
  const Fe v = fe_add(fe_mul(curve_d, y2), fe_from_u64(1));

  const Fe v3 = fe_mul(fe_sq(v), v);
  const Fe v7 = fe_mul(fe_sq(v3), v);
  Fe x = fe_mul(fe_mul(u, v3), fe_pow22523(fe_mul(u, v7)));

  const Fe vx2 = fe_mul(v, fe_sq(x));
  if (!fe_equal(vx2, u)) {
    if (!fe_equal(vx2, fe_neg(u))) return false;  // u/v is a non-residue
    x = fe_mul(x, sqrt_m1);
  }
  if (fe_is_zero(x) && sign) return false;  // -0 is not encodable
  if (fe_is_negative(x) != sign) x = fe_neg(x);

  out.x = x;
  out.y = y;
  out.z = fe_from_u64(1);
  out.t = fe_mul(x, y);
  return true;
}

bool point_decompress(Point& out, const std::uint8_t in[32]) {
  const CurveConstants& cc = constants();
  return point_decompress_with(cc.d, cc.sqrt_m1, out, in);
}

// Variable-base double-and-add over the 256 scalar bits.
Point scalar_mul(const U256& scalar, const Point& p) {
  Point r = point_identity();
  for (unsigned i = scalar.bit_length(); i-- > 0;) {
    r = point_double(r);
    if (scalar.bit(i)) r = point_add(r, p);
  }
  return r;
}

// Fixed-base multiplication using the precomputed 4-bit window table.
Point scalar_mul_base(const U256& scalar) {
  const CurveConstants& cc = constants();
  Point r = point_identity();
  std::uint8_t le[32];
  {
    std::uint8_t be[32];
    scalar.to_be(be);
    for (int i = 0; i < 32; ++i) le[i] = be[31 - i];
  }
  for (int i = 0; i < 64; ++i) {
    const std::uint8_t byte = le[i / 2];
    const unsigned digit = (i % 2 == 0) ? (byte & 0x0f) : (byte >> 4);
    if (digit != 0) r = point_add(r, cc.base_table[i][digit - 1]);
  }
  return r;
}

const CurveConstants& constants() {
  static CurveConstants cc = [] {
    CurveConstants c;
    // d = -121665/121666 mod p
    const Fe num = fe_neg(fe_from_u64(121665));
    c.d = fe_mul(num, fe_invert(fe_from_u64(121666)));
    c.d2 = fe_add(c.d, c.d);
    // sqrt(-1) = 2^((p-1)/4): 2 is a non-residue since p == 5 (mod 8).
    c.sqrt_m1 = fe_pow(fe_from_u64(2), (kP - U256::one()) / U256{4});

    // Base point: y = 4/5, x recovered with even (sign bit 0) x.
    const Fe y = fe_mul(fe_from_u64(4), fe_invert(fe_from_u64(5)));
    std::uint8_t enc[32];
    fe_to_bytes(enc, y);  // sign bit left 0
    Point base;
    if (!point_decompress_with(c.d, c.sqrt_m1, base, enc)) {
      // Unreachable on a correct field implementation.
      base = point_identity();
    }
    c.base = base;

    Point window_base = base;  // 16^i * B
    for (int i = 0; i < 64; ++i) {
      Point acc = window_base;
      for (int j = 0; j < 15; ++j) {
        c.base_table[i][j] = acc;
        acc = point_add_with(c.d2, acc, window_base);
      }
      window_base = acc;  // 16 * (16^i * B)
    }
    return c;
  }();
  return cc;
}

// ---------------------------------------------------------------------------
// Scalar arithmetic mod the group order L = 2^252 + delta.
// ---------------------------------------------------------------------------

const U256 kDelta =
    U256::from_hex("0x14def9dea2f79cd65812631a5cf5d3ed").value_or(U256{});
const U256 kL = (U256::one() << 252) + kDelta;
const U256 kLow252 = (U256::one() << 252) - U256::one();
// 2^256 = 16 (L - delta), so 2^256 == -16 delta (mod L).
const U256 k16Delta = kDelta << 4;

// Reduction mod L by folding instead of bit-serial division (the generic
// U256 mulmod/addmod), which dominated the per-item scalar work of a batch.
// x < 2^256 splits as q 2^252 + low with q < 16, and 2^252 == -delta, so
// x == low - q delta with q delta < 2^129.
U256 sc_reduce256(const U256& x) {
  const U256 low = x & kLow252;
  const U256 qd = (x >> 252) * kDelta;
  return low >= qd ? low - qd : low + kL - qd;
}

// Both operands < L.
U256 sc_add(const U256& a, const U256& b) {
  const U256 sum = a + b;
  return sum >= kL ? sum - kL : sum;
}

U256 sc_sub(const U256& a, const U256& b) {
  return a >= b ? a - b : a + kL - b;
}

// x = hi 2^256 + lo. Folding 2^256 == -16 delta three times: x == lo - p1
// with p1 = 16 delta hi < 2^385, p1 == p1.lo - p2 with p2 = 16 delta p1.hi
// < 2^258, and p2 == p2.lo - p3 with p3 = 16 delta p2.hi < 2^131.
U256 sc_reduce512(const U256& lo, const U256& hi) {
  const U256::Wide p1 = hi.full_mul(k16Delta);
  const U256::Wide p2 = p1.hi.full_mul(k16Delta);
  const U256 p3 = p2.hi * k16Delta;
  const U256 r = sc_sub(sc_reduce256(lo), sc_reduce256(p1.lo));
  return sc_sub(sc_add(r, sc_reduce256(p2.lo)), sc_reduce256(p3));
}

U256 sc_mul(const U256& a, const U256& b) {
  const U256::Wide wide = a.full_mul(b);
  return sc_reduce512(wide.lo, wide.hi);
}

U256 u256_from_le(const std::uint8_t* in, std::size_t len) {
  std::uint8_t be[32] = {};
  for (std::size_t i = 0; i < len && i < 32; ++i) be[31 - i] = in[i];
  return U256::from_be(BytesView{be, 32});
}

void u256_to_le(std::uint8_t out[32], const U256& v) {
  std::uint8_t be[32];
  v.to_be(be);
  for (int i = 0; i < 32; ++i) out[i] = be[31 - i];
}

// Interpret a 64-byte little-endian hash as an integer mod L.
U256 scalar_from_hash(const Hash64& h) {
  return sc_reduce512(u256_from_le(h.data(), 32),
                      u256_from_le(h.data() + 32, 32));
}

struct ExpandedKey {
  U256 scalar;  // clamped secret scalar (integer, < 2^255)
  std::uint8_t prefix[32];
};

ExpandedKey expand_seed(const PrivateSeed& seed) {
  const Hash64 h = Sha512::hash(BytesView{seed.data(), seed.size()});
  std::uint8_t a[32];
  std::memcpy(a, h.data(), 32);
  a[0] &= 248;
  a[31] &= 127;
  a[31] |= 64;
  ExpandedKey out;
  out.scalar = u256_from_le(a, 32);
  std::memcpy(out.prefix, h.data() + 32, 32);
  return out;
}

// ---------------------------------------------------------------------------
// Batch verification: one multi-scalar multiplication checks the random
// linear combination
//
//   (sum z_i s_i) B  ==  sum z_i R_i  +  sum (z_i k_i) A_i
//
// of the per-signature equations s_i B == R_i + k_i A_i. The shared chain of
// doublings amortizes across all points, so N signatures cost well under N
// independent verifies. Coefficients z_i are 128-bit and derived
// deterministically from a SHA-512 transcript of the whole batch (the repo
// bans runtime randomness); forging a batch whose defects cancel in the
// combination requires grinding the transcript hash. Both sides are
// compared cofactored (multiplied by 8), like the single-signature check, so
// a small-order component in R or A cannot make the combination disagree
// with per-item verification. On combined-equation failure the range is
// bisected deterministically; size-1 leaves use the single-signature
// equation, so rejected batches converge to results positionally identical
// to sequential verification.
// ---------------------------------------------------------------------------

// Interleaved-window (Straus) multi-scalar multiplication sum c_j P_j with
// 4-bit windows over little-endian scalar nibbles. Variable time; all inputs
// here are public.
Point multi_scalar_mul(const std::vector<U256>& scalars,
                       const std::vector<Point>& points) {
  const std::size_t n = points.size();
  const Fe d2 = constants().d2;
  std::vector<std::array<Point, 15>> tables(n);
  std::vector<std::array<std::uint8_t, 32>> le(n);
  unsigned max_bits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (scalars[i].bit_length() > max_bits) max_bits = scalars[i].bit_length();
    u256_to_le(le[i].data(), scalars[i]);
    Point acc = points[i];  // tables[i][j] = (j+1) * P_i
    for (int j = 0; j < 15; ++j) {
      tables[i][j] = acc;
      acc = point_add_with(d2, acc, points[i]);
    }
  }
  Point r = point_identity();
  for (unsigned w = (max_bits + 3) / 4; w-- > 0;) {
    for (int dbl = 0; dbl < 4; ++dbl) r = point_add_with(d2, r, r);
    for (std::size_t i = 0; i < n; ++i) {
      const unsigned digit = (le[i][w / 2] >> (4 * (w & 1))) & 0x0f;
      if (digit != 0) r = point_add_with(d2, r, tables[i][digit - 1]);
    }
  }
  return r;
}

struct BatchEntry {
  bool precheck_ok = false;  // s canonical and both points decompressed
  Point a;                   // public key point
  Point r;                   // signature R point
  U256 s;                    // signature scalar, < L
  U256 k;                    // challenge H(R || A || M) mod L
  U256 z;                    // batch coefficient, 128-bit, nonzero
};

// The single-signature equation [8](s B) == [8](R + k A), shared by
// ed25519_verify and the bisection leaf.
bool signature_equation(const U256& s, const Point& r, const U256& k,
                        const Point& a) {
  return point_equal_cofactored(scalar_mul_base(s),
                                point_add(r, scalar_mul(k, a)));
}

// Combined equation over live[lo, hi) (indices into `entries`).
bool batch_equation_range(const std::vector<BatchEntry>& entries,
                          const std::vector<std::uint32_t>& live,
                          std::size_t lo, std::size_t hi) {
  U256 s_sum;
  std::vector<U256> scalars;
  std::vector<Point> points;
  scalars.reserve(2 * (hi - lo));
  points.reserve(2 * (hi - lo));
  for (std::size_t i = lo; i < hi; ++i) {
    const BatchEntry& e = entries[live[i]];
    s_sum = sc_add(s_sum, sc_mul(e.z, e.s));
    scalars.push_back(e.z);
    points.push_back(e.r);
    scalars.push_back(sc_mul(e.z, e.k));
    points.push_back(e.a);
  }
  return point_equal_cofactored(scalar_mul_base(s_sum),
                                multi_scalar_mul(scalars, points));
}

// Deterministic bisection: a passing combined equation accepts the whole
// range; a failing one splits at the midpoint until size-1 leaves fall back
// to the exact single-signature check.
void batch_resolve_range(const std::vector<BatchEntry>& entries,
                         const std::vector<std::uint32_t>& live,
                         std::size_t lo, std::size_t hi,
                         std::vector<std::uint8_t>& results) {
  if (hi == lo) return;
  if (hi - lo == 1) {
    const BatchEntry& e = entries[live[lo]];
    results[live[lo]] = signature_equation(e.s, e.r, e.k, e.a) ? 1 : 0;
    return;
  }
  if (batch_equation_range(entries, live, lo, hi)) {
    for (std::size_t i = lo; i < hi; ++i) results[live[i]] = 1;
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  batch_resolve_range(entries, live, lo, mid, results);
  batch_resolve_range(entries, live, mid, hi, results);
}

}  // namespace

Ed25519KeyPair ed25519_keypair(const PrivateSeed& seed) {
  Ed25519KeyPair kp;
  kp.seed = seed;
  const ExpandedKey ek = expand_seed(seed);
  const Point a_point = scalar_mul_base(ek.scalar);
  point_compress(kp.public_key.data(), a_point);
  return kp;
}

Ed25519KeyPair ed25519_keypair_from_id(std::uint64_t id) {
  PrivateSeed seed{};
  std::uint8_t tag[16] = {'s', 'r', 'b', 'b', '-', 'k', 'e', 'y'};
  put_be64(tag + 8, id);
  const Hash64 h = Sha512::hash(BytesView{tag, 16});
  std::memcpy(seed.data(), h.data(), 32);
  return ed25519_keypair(seed);
}

Signature ed25519_sign(BytesView message, const Ed25519KeyPair& keypair) {
  const ExpandedKey ek = expand_seed(keypair.seed);

  Sha512 h1;
  h1.update(BytesView{ek.prefix, 32});
  h1.update(message);
  const U256 r = scalar_from_hash(h1.finish());

  const Point r_point = scalar_mul_base(r);
  Signature sig{};
  point_compress(sig.data(), r_point);

  Sha512 h2;
  h2.update(BytesView{sig.data(), 32});
  h2.update(BytesView{keypair.public_key.data(), 32});
  h2.update(message);
  const U256 k = scalar_from_hash(h2.finish());

  const U256 s = sc_add(r, sc_mul(k, sc_reduce256(ek.scalar)));
  u256_to_le(sig.data() + 32, s);
  return sig;
}

bool ed25519_verify(BytesView message, const Signature& signature,
                    const PublicKey& public_key) {
  const U256 s = u256_from_le(signature.data() + 32, 32);
  if (!(s < kL)) return false;  // reject malleable encodings

  Point a_point;
  if (!point_decompress(a_point, public_key.data())) return false;
  Point r_point;
  if (!point_decompress(r_point, signature.data())) return false;

  Sha512 h;
  h.update(BytesView{signature.data(), 32});
  h.update(BytesView{public_key.data(), 32});
  h.update(message);
  const U256 k = scalar_from_hash(h.finish());

  return signature_equation(s, r_point, k, a_point);
}

std::vector<bool> ed25519_verify_batch(std::span<const Ed25519BatchItem> items) {
  const std::size_t n = items.size();
  std::vector<std::uint8_t> results(n, 0);
  std::vector<BatchEntry> entries(n);
  std::vector<std::uint32_t> live;  // indices that passed the prechecks
  live.reserve(n);

  // Transcript binding every (signature, pubkey, message) of the batch; the
  // per-item coefficients are derived from its digest below.
  Sha512 transcript;
  static constexpr char kDomain[] = "srbb-ed25519-batch-v1";
  transcript.update(
      BytesView{reinterpret_cast<const std::uint8_t*>(kDomain), sizeof(kDomain) - 1});

  for (std::size_t i = 0; i < n; ++i) {
    const Ed25519BatchItem& item = items[i];
    transcript.update(BytesView{item.signature->data(), 64});
    transcript.update(BytesView{item.public_key->data(), 32});
    std::uint8_t len8[8];
    put_be64(len8, item.message.size());
    transcript.update(BytesView{len8, 8});
    transcript.update(item.message);

    BatchEntry& e = entries[i];
    e.s = u256_from_le(item.signature->data() + 32, 32);
    if (!(e.s < kL)) continue;  // reject malleable encodings
    if (!point_decompress(e.a, item.public_key->data())) continue;
    if (!point_decompress(e.r, item.signature->data())) continue;

    Sha512 h;
    h.update(BytesView{item.signature->data(), 32});
    h.update(BytesView{item.public_key->data(), 32});
    h.update(item.message);
    e.k = scalar_from_hash(h.finish());
    e.precheck_ok = true;
    live.push_back(static_cast<std::uint32_t>(i));
  }

  if (!live.empty()) {
    const Hash64 seed = transcript.finish();
    for (const std::uint32_t i : live) {
      Sha512 h;
      h.update(BytesView{seed.data(), seed.size()});
      std::uint8_t idx8[8];
      put_be64(idx8, i);
      h.update(BytesView{idx8, 8});
      const Hash64 digest = h.finish();
      U256 z = u256_from_le(digest.data(), 16);  // 128-bit coefficient
      if (z.is_zero()) z = U256::one();
      entries[i].z = z;
    }
    batch_resolve_range(entries, live, 0, live.size(), results);
  }

  return std::vector<bool>(results.begin(), results.end());
}

}  // namespace srbb::crypto
