// Field arithmetic modulo p = 2^255 - 19, radix-2^51 representation
// (5 limbs of ~51 bits in 64-bit words, products via unsigned __int128).
// This is the workhorse under the curve layer; everything else in crypto/
// is byte-oriented.
#pragma once

#include <array>
#include <cstdint>

#include "util/bytes.hpp"

namespace psf::crypto {

struct Fe {
  // Little-endian limbs; each < 2^51 + 2^7 after any operation below.
  std::array<std::uint64_t, 5> v;
};

Fe fe_zero();
Fe fe_one();
Fe fe_from_u64(std::uint64_t x);

/// Load 32 little-endian bytes; the top bit is ignored (as in RFC 8032).
/// A 255-bit value >= p is reduced silently; see fe_bytes_canonical.
Fe fe_from_bytes(const util::Bytes& bytes);

/// True if the 32 bytes, top bit ignored, encode a value < p.
bool fe_bytes_canonical(const util::Bytes& bytes);

/// Canonical 32-byte little-endian encoding (fully reduced).
util::Bytes fe_to_bytes(const Fe& a);

// The arithmetic core (add, sub, neg, mul, sq) is defined inline below so
// the curve layer's formulas compile into straight-line code.
Fe fe_add(const Fe& a, const Fe& b);
Fe fe_sub(const Fe& a, const Fe& b);
Fe fe_mul(const Fe& a, const Fe& b);
Fe fe_sq(const Fe& a);
Fe fe_neg(const Fe& a);

/// a^(p-2) mod p (Fermat inversion through a fixed addition chain: 254
/// squarings, 11 multiplications); a must be nonzero for a true inverse.
Fe fe_invert(const Fe& a);

/// a^((p-5)/8) = a^(2^252 - 3) through a fixed addition chain; the shared
/// exponentiation of square roots and point decompression.
Fe fe_pow22523(const Fe& a);

bool fe_is_zero(const Fe& a);
bool fe_equal(const Fe& a, const Fe& b);

/// Parity of the canonical representation (bit 0); the "sign" in point
/// compression.
bool fe_is_negative(const Fe& a);

/// Square root via the 2^((p+3)/8) candidate method.
/// Returns false if `a` is a non-residue.
bool fe_sqrt(const Fe& a, Fe& out);

/// sqrt(-1) mod p, computed once.
const Fe& fe_sqrt_m1();

namespace detail {

constexpr std::uint64_t kMask51 = (1ULL << 51) - 1;
using u128 = unsigned __int128;

// Limb bound: every Fe an operation here returns has limbs below
// 2^51 + 2^7. That keeps fe_sub's 2p bias (smallest limb 2^52 - 38) above
// any subtrahend and fe_mul's column sums far below 2^128.

// One carry step on every limb at once (no serial chain): limbs below 2^53
// come out below 2^51 + 76.
inline Fe carry(const Fe& in) {
  Fe a;
  a.v[0] = (in.v[0] & kMask51) + (in.v[4] >> 51) * 19;
  for (int i = 1; i < 5; ++i) {
    a.v[i] = (in.v[i] & kMask51) + (in.v[i - 1] >> 51);
  }
  return a;
}

// Carry the five 128-bit column sums of a product into limbs: one chain
// 0 -> 4, the top carry folded back times 19, then one step into limb 1.
inline Fe carry_wide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe out;
  t1 += static_cast<std::uint64_t>(t0 >> 51);
  out.v[0] = static_cast<std::uint64_t>(t0) & kMask51;
  t2 += static_cast<std::uint64_t>(t1 >> 51);
  out.v[1] = static_cast<std::uint64_t>(t1) & kMask51;
  t3 += static_cast<std::uint64_t>(t2 >> 51);
  out.v[2] = static_cast<std::uint64_t>(t2) & kMask51;
  t4 += static_cast<std::uint64_t>(t3 >> 51);
  out.v[3] = static_cast<std::uint64_t>(t3) & kMask51;
  out.v[4] = static_cast<std::uint64_t>(t4) & kMask51;
  out.v[0] += static_cast<std::uint64_t>(t4 >> 51) * 19;
  out.v[1] += out.v[0] >> 51;
  out.v[0] &= kMask51;
  return out;
}

}  // namespace detail

inline Fe fe_add(const Fe& a, const Fe& b) {
  Fe out;
  for (int i = 0; i < 5; ++i) out.v[i] = a.v[i] + b.v[i];
  return detail::carry(out);
}

inline Fe fe_sub(const Fe& a, const Fe& b) {
  // a + 2p - b keeps limbs nonnegative.
  constexpr std::uint64_t two_p[5] = {
      0xfffffffffffdaULL, 0xffffffffffffeULL, 0xffffffffffffeULL,
      0xffffffffffffeULL, 0xffffffffffffeULL};
  Fe out;
  for (int i = 0; i < 5; ++i) out.v[i] = a.v[i] + two_p[i] - b.v[i];
  return detail::carry(out);
}

inline Fe fe_neg(const Fe& a) { return fe_sub(Fe{{0, 0, 0, 0, 0}}, a); }

inline Fe fe_mul(const Fe& a, const Fe& b) {
  using detail::u128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t b0 = b.v[0], b1 = b.v[1], b2 = b.v[2], b3 = b.v[3],
                      b4 = b.v[4];
  const std::uint64_t b1_19 = b1 * 19, b2_19 = b2 * 19, b3_19 = b3 * 19,
                      b4_19 = b4 * 19;

  const u128 t0 = (u128)a0 * b0 + (u128)a1 * b4_19 + (u128)a2 * b3_19 +
                  (u128)a3 * b2_19 + (u128)a4 * b1_19;
  const u128 t1 = (u128)a0 * b1 + (u128)a1 * b0 + (u128)a2 * b4_19 +
                  (u128)a3 * b3_19 + (u128)a4 * b2_19;
  const u128 t2 = (u128)a0 * b2 + (u128)a1 * b1 + (u128)a2 * b0 +
                  (u128)a3 * b4_19 + (u128)a4 * b3_19;
  const u128 t3 = (u128)a0 * b3 + (u128)a1 * b2 + (u128)a2 * b1 +
                  (u128)a3 * b0 + (u128)a4 * b4_19;
  const u128 t4 = (u128)a0 * b4 + (u128)a1 * b3 + (u128)a2 * b2 +
                  (u128)a3 * b1 + (u128)a4 * b0;
  return detail::carry_wide(t0, t1, t2, t3, t4);
}

inline Fe fe_sq(const Fe& a) {
  // The 25 products of fe_mul(a, a) collapse to 15 by symmetry.
  using detail::u128;
  const std::uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3],
                      a4 = a.v[4];
  const std::uint64_t d0 = a0 * 2, d1 = a1 * 2, d2_19 = a2 * 2 * 19,
                      a3_19 = a3 * 19, a4_19 = a4 * 19, d4_19 = a4_19 * 2;

  const u128 t0 = (u128)a0 * a0 + (u128)d4_19 * a1 + (u128)d2_19 * a3;
  const u128 t1 = (u128)d0 * a1 + (u128)d4_19 * a2 + (u128)a3 * a3_19;
  const u128 t2 = (u128)d0 * a2 + (u128)a1 * a1 + (u128)d4_19 * a3;
  const u128 t3 = (u128)d0 * a3 + (u128)d1 * a2 + (u128)a4 * a4_19;
  const u128 t4 = (u128)d0 * a4 + (u128)d1 * a3 + (u128)a2 * a2;
  return detail::carry_wide(t0, t1, t2, t3, t4);
}

}  // namespace psf::crypto
