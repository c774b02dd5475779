#include "crypto/fe25519.hpp"

#include <stdexcept>

namespace psf::crypto {

namespace {
using detail::carry;
using detail::kMask51;

// Reduce to the canonical representative in [0, p) with normalized limbs.
// Helpers here take Fe by const reference and copy: gcc 12.2 at -O2
// (ipa-modref) miscompiled an in-place update of a by-value Fe parameter
// once fe_* were inlined.
Fe reduce_full(const Fe& in) {
  Fe a = carry(in);  // limbs < 2^51 + 76, so a + 19 < 2^256
  // q = 1 iff a >= p, i.e. iff a + 19 carries out of bit 255.
  std::uint64_t q = (a.v[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (a.v[i] + q) >> 51;
  // a - q p = a + 19 q - q 2^255: add, carry serially, drop bit 255.
  a.v[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    a.v[i + 1] += a.v[i] >> 51;
    a.v[i] &= kMask51;
  }
  a.v[4] &= kMask51;
  return a;
}

// a^(2^n): n successive squarings.
Fe fe_sq_n(const Fe& a, int n) {
  Fe r = a;
  for (int i = 0; i < n; ++i) r = fe_sq(r);
  return r;
}

// The common prefix of the ref10 inversion and pow22523 chains: returns
// a^(2^250 - 1) and sets a11 = a^11.
Fe pow_2_250_1(const Fe& a, Fe& a11) {
  const Fe a2 = fe_sq(a);
  const Fe a9 = fe_mul(fe_sq_n(a2, 2), a);
  a11 = fe_mul(a9, a2);
  const Fe e5 = fe_mul(fe_sq(a11), a9);              // 2^5 - 1
  const Fe e10 = fe_mul(fe_sq_n(e5, 5), e5);         // 2^10 - 1
  const Fe e20 = fe_mul(fe_sq_n(e10, 10), e10);      // 2^20 - 1
  const Fe e40 = fe_mul(fe_sq_n(e20, 20), e20);      // 2^40 - 1
  const Fe e50 = fe_mul(fe_sq_n(e40, 10), e10);      // 2^50 - 1
  const Fe e100 = fe_mul(fe_sq_n(e50, 50), e50);     // 2^100 - 1
  const Fe e200 = fe_mul(fe_sq_n(e100, 100), e100);  // 2^200 - 1
  return fe_mul(fe_sq_n(e200, 50), e50);             // 2^250 - 1
}

// Canonical limbs as a stack array, for comparisons.
std::array<std::uint64_t, 5> canonical(const Fe& a) { return reduce_full(a).v; }

}  // namespace

Fe fe_zero() { return Fe{{0, 0, 0, 0, 0}}; }
Fe fe_one() { return Fe{{1, 0, 0, 0, 0}}; }

Fe fe_from_u64(std::uint64_t x) {
  Fe out = fe_zero();
  out.v[0] = x & kMask51;
  out.v[1] = x >> 51;
  return out;
}

Fe fe_from_bytes(const util::Bytes& bytes) {
  if (bytes.size() < 32) throw std::invalid_argument("fe_from_bytes: short");
  auto load64 = [&](std::size_t i) {
    std::uint64_t v = 0;
    for (int j = 7; j >= 0; --j) v = (v << 8) | bytes[i + j];
    return v;
  };
  Fe out;
  out.v[0] = load64(0) & kMask51;
  out.v[1] = (load64(6) >> 3) & kMask51;
  out.v[2] = (load64(12) >> 6) & kMask51;
  out.v[3] = (load64(19) >> 1) & kMask51;
  out.v[4] = (load64(24) >> 12) & kMask51;
  return out;
}

bool fe_bytes_canonical(const util::Bytes& bytes) {
  if (bytes.size() < 32) return false;
  // The 255-bit values >= p are 2^255 - 19 .. 2^255 - 1: bytes 1..30 all
  // 0xff, byte 31 0x7f (top bit ignored), byte 0 >= 0xed.
  if ((bytes[31] & 0x7f) != 0x7f) return true;
  for (std::size_t i = 1; i < 31; ++i) {
    if (bytes[i] != 0xff) return true;
  }
  return bytes[0] < 0xed;
}

util::Bytes fe_to_bytes(const Fe& a) {
  const Fe r = reduce_full(a);
  util::Bytes out(32, 0);
  // Pack 5x51 bits little-endian through a bit accumulator.
  unsigned __int128 acc = 0;
  int acc_bits = 0;
  std::size_t byte = 0;
  for (int limb = 0; limb < 5; ++limb) {
    acc |= static_cast<unsigned __int128>(r.v[limb]) << acc_bits;
    acc_bits += 51;
    while (acc_bits >= 8 && byte < 32) {
      out[byte++] = static_cast<std::uint8_t>(acc);
      acc >>= 8;
      acc_bits -= 8;
    }
  }
  if (byte < 32) out[byte] = static_cast<std::uint8_t>(acc);
  return out;
}

Fe fe_invert(const Fe& a) {
  // p - 2 = 2^255 - 21 = (2^250 - 1) * 2^5 + 11.
  Fe a11;
  const Fe e250 = pow_2_250_1(a, a11);
  return fe_mul(fe_sq_n(e250, 5), a11);
}

Fe fe_pow22523(const Fe& a) {
  // 2^252 - 3 = (2^250 - 1) * 2^2 + 1.
  Fe a11;
  const Fe e250 = pow_2_250_1(a, a11);
  return fe_mul(fe_sq_n(e250, 2), a);
}

bool fe_is_zero(const Fe& a) {
  const auto r = canonical(a);
  return (r[0] | r[1] | r[2] | r[3] | r[4]) == 0;
}

bool fe_equal(const Fe& a, const Fe& b) { return canonical(a) == canonical(b); }

bool fe_is_negative(const Fe& a) { return canonical(a)[0] & 1; }

const Fe& fe_sqrt_m1() {
  // 2^((p-1)/4) with (p-1)/4 = 2^253 - 5 = (2^252 - 3) * 2 + 1; 2 is a
  // non-residue, so its square is 2^((p-1)/2) = -1.
  static const Fe value = [] {
    const Fe two = fe_from_u64(2);
    return fe_mul(fe_sq(fe_pow22523(two)), two);
  }();
  return value;
}

bool fe_sqrt(const Fe& a, Fe& out) {
  // Candidate root: a^((p+3)/8) = a * a^((p-5)/8).
  const Fe x = fe_mul(a, fe_pow22523(a));
  const Fe x2 = fe_sq(x);
  if (fe_equal(x2, a)) {
    out = x;
    return true;
  }
  if (fe_equal(x2, fe_neg(a))) {
    out = fe_mul(x, fe_sqrt_m1());
    return true;
  }
  return false;
}

}  // namespace psf::crypto
