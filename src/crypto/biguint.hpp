// Small fixed-capacity big unsigned integer (up to 512 bits). Only used for
// scalar arithmetic modulo the curve group order; the hot field arithmetic
// lives in fe25519 with a dedicated radix-51 representation.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "util/bytes.hpp"

namespace psf::crypto {

/// 512-bit unsigned integer: 8 little-endian 64-bit limbs.
class BigUInt {
 public:
  static constexpr std::size_t kLimbs = 8;

  BigUInt() { limbs_.fill(0); }
  explicit BigUInt(std::uint64_t v) {
    limbs_.fill(0);
    limbs_[0] = v;
  }

  /// From little-endian bytes (at most 64).
  static BigUInt from_le_bytes(const util::Bytes& bytes);

  /// Lower 32 bytes, little-endian.
  util::Bytes to_le_bytes32() const;

  bool is_zero() const;
  int compare(const BigUInt& other) const;  // -1, 0, 1

  bool operator==(const BigUInt& other) const { return compare(other) == 0; }
  bool operator<(const BigUInt& other) const { return compare(other) < 0; }

  /// a + b; wraps at 2^512 (callers keep values well below that).
  static BigUInt add(const BigUInt& a, const BigUInt& b);

  /// a - b; requires a >= b.
  static BigUInt sub(const BigUInt& a, const BigUInt& b);

  /// Full product of the low 256 bits of a and b (fits in 512 bits).
  static BigUInt mul256(const BigUInt& a, const BigUInt& b);

  /// a mod m via binary long division; m must be nonzero.
  static BigUInt mod(const BigUInt& a, const BigUInt& m);

  /// floor(2^512 / m), the constant mod_barrett needs; m must have 193 to
  /// 256 bits.
  static BigUInt barrett_mu(const BigUInt& m);

  /// a mod m by Barrett reduction (HAC 14.42, base 2^64, k = 4): two
  /// truncated limb products and at most two final subtractions. m must
  /// have 193 to 256 bits and mu = barrett_mu(m).
  static BigUInt mod_barrett(const BigUInt& a, const BigUInt& m,
                             const BigUInt& mu);

  bool bit(std::size_t i) const {
    return (limbs_[i / 64] >> (i % 64)) & 1;
  }
  std::size_t bit_length() const;

  /// Shift left by one bit (wraps at 2^512).
  void shl1();

  std::uint64_t limb(std::size_t i) const { return limbs_[i]; }

  std::string to_hex() const;

 private:
  std::array<std::uint64_t, kLimbs> limbs_;
};

}  // namespace psf::crypto
