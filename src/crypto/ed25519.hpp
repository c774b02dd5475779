// Twisted Edwards curve -x^2 + y^2 = 1 + d x^2 y^2 over GF(2^255-19)
// (the Ed25519 curve). Curve constants are derived at startup from first
// principles (d = -121665/121666, base point y = 4/5) so there are no
// hand-copied magic constants to get wrong; the test suite checks group laws
// and that L * B is the identity.
#pragma once

#include "crypto/biguint.hpp"
#include "crypto/fe25519.hpp"
#include "util/bytes.hpp"

namespace psf::crypto {

/// Extended homogeneous coordinates (X : Y : Z : T), x = X/Z, y = Y/Z,
/// T = XY/Z.
struct Point {
  Fe x, y, z, t;
};

/// Neutral element (0, 1).
Point point_identity();

/// The standard base point B.
const Point& point_base();

/// The curve constant d.
const Fe& curve_d();

/// The prime group order L = 2^252 + 27742317777372353535851937790883648493.
const BigUInt& group_order();

/// x mod L for any 512-bit x, by Barrett reduction (a fixed sequence of
/// limb products, not BigUInt::mod's bit-serial division).
BigUInt scalar_reduce(const BigUInt& x);

/// Unified addition (add-2008-hwcd); also correct for p == q.
Point point_add(const Point& p, const Point& q);

/// Dedicated doubling (dbl-2008-hwcd): 4 squarings + 4 multiplications
/// against the unified addition's 9 multiplications.
Point point_double(const Point& p);
Point point_neg(const Point& p);

/// scalar * p via a fixed 4-bit window: a 16-entry table of p's multiples,
/// then 64 windows of 4 doublings and at most one addition; scalar is
/// interpreted mod 2^256.
Point point_mul(const BigUInt& scalar, const Point& p);

/// scalar * B via a fixed-base window table (64 nibble positions x 16
/// precomputed multiples, built once): at most 64 point additions instead
/// of 256 doublings + additions. Signing, key generation, and the s*B half
/// of verification all go through this.
Point point_mul_base(const BigUInt& scalar);

bool point_equal(const Point& p, const Point& q);

/// Projective curve check (Y^2 - X^2) Z^2 == Z^4 + d X^2 Y^2; no inversion.
bool point_on_curve(const Point& p);
bool point_is_identity(const Point& p);

/// 32-byte compressed encoding: y with the sign of x in the top bit.
util::Bytes point_encode(const Point& p);

/// Decompress as RFC 8032 section 5.1.3: rejects a y encoding >= p, a y
/// with no matching x, and x = 0 with the sign bit set. One
/// exponentiation (u v^3 (u v^7)^((p-5)/8)), no inversion.
bool point_decode(const util::Bytes& encoded, Point& out);

}  // namespace psf::crypto
