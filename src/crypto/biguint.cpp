#include "crypto/biguint.hpp"

#include <stdexcept>

namespace psf::crypto {

namespace {

// The low `nout` limbs of x * y (schoolbook, little-endian limbs).
void mul_low(const std::uint64_t* x, std::size_t nx, const std::uint64_t* y,
             std::size_t ny, std::uint64_t* out, std::size_t nout) {
  for (std::size_t i = 0; i < nout; ++i) out[i] = 0;
  for (std::size_t i = 0; i < nx && i < nout; ++i) {
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < ny && i + j < nout; ++j) {
      const unsigned __int128 cur =
          static_cast<unsigned __int128>(x[i]) * y[j] + out[i + j] + carry;
      out[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    if (i + ny < nout) out[i + ny] = static_cast<std::uint64_t>(carry);
  }
}

// Barrett reduction below runs with k = 4 limbs: m needs 193 to 256 bits.
void check_barrett_modulus(const BigUInt& m) {
  if (m.limb(3) == 0 || m.limb(4) != 0 || m.limb(5) != 0 || m.limb(6) != 0 ||
      m.limb(7) != 0) {
    throw std::invalid_argument(
        "BigUInt: Barrett modulus must have 193..256 bits");
  }
}

}  // namespace

BigUInt BigUInt::from_le_bytes(const util::Bytes& bytes) {
  if (bytes.size() > 64) throw std::invalid_argument("BigUInt: > 64 bytes");
  BigUInt out;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    out.limbs_[i / 8] |= static_cast<std::uint64_t>(bytes[i]) << (8 * (i % 8));
  }
  return out;
}

util::Bytes BigUInt::to_le_bytes32() const {
  util::Bytes out(32);
  for (std::size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<std::uint8_t>(limbs_[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

bool BigUInt::is_zero() const {
  for (std::uint64_t l : limbs_) {
    if (l != 0) return false;
  }
  return true;
}

int BigUInt::compare(const BigUInt& other) const {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) {
      return limbs_[i] < other.limbs_[i] ? -1 : 1;
    }
  }
  return 0;
}

BigUInt BigUInt::add(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    carry += a.limbs_[i];
    carry += b.limbs_[i];
    out.limbs_[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return out;
}

BigUInt BigUInt::sub(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::uint64_t bi = b.limbs_[i] + borrow;
    borrow = (bi < b.limbs_[i]) || (a.limbs_[i] < bi) ? 1 : 0;
    out.limbs_[i] = a.limbs_[i] - bi;
  }
  return out;
}

BigUInt BigUInt::mul256(const BigUInt& a, const BigUInt& b) {
  BigUInt out;
  for (std::size_t i = 0; i < 4; ++i) {
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      unsigned __int128 cur =
          static_cast<unsigned __int128>(a.limbs_[i]) * b.limbs_[j] +
          out.limbs_[i + j] + carry;
      out.limbs_[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    out.limbs_[i + 4] = static_cast<std::uint64_t>(carry);
  }
  return out;
}

std::size_t BigUInt::bit_length() const {
  for (std::size_t i = kLimbs; i-- > 0;) {
    if (limbs_[i] != 0) {
      std::size_t bits = 64 * i;
      std::uint64_t v = limbs_[i];
      while (v != 0) {
        ++bits;
        v >>= 1;
      }
      return bits;
    }
  }
  return 0;
}

void BigUInt::shl1() {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < kLimbs; ++i) {
    const std::uint64_t next_carry = limbs_[i] >> 63;
    limbs_[i] = (limbs_[i] << 1) | carry;
    carry = next_carry;
  }
}

BigUInt BigUInt::mod(const BigUInt& a, const BigUInt& m) {
  if (m.is_zero()) throw std::invalid_argument("BigUInt::mod by zero");
  if (a.compare(m) < 0) return a;
  BigUInt remainder;
  // Binary long division, processing a's bits from most significant down.
  for (std::size_t i = a.bit_length(); i-- > 0;) {
    remainder.shl1();
    if (a.bit(i)) remainder.limbs_[0] |= 1;
    if (remainder.compare(m) >= 0) remainder = sub(remainder, m);
  }
  return remainder;
}

BigUInt BigUInt::barrett_mu(const BigUInt& m) {
  check_barrett_modulus(m);
  // Long division of 2^512: after its top bit the remainder is 1, then 512
  // zero bits follow. The quotient is below 2^320.
  BigUInt remainder(1);
  BigUInt quotient;
  for (int i = 0; i < 512; ++i) {
    remainder.shl1();
    quotient.shl1();
    if (remainder.compare(m) >= 0) {
      remainder = sub(remainder, m);
      quotient.limbs_[0] |= 1;
    }
  }
  return quotient;
}

BigUInt BigUInt::mod_barrett(const BigUInt& a, const BigUInt& m,
                             const BigUInt& mu) {
  check_barrett_modulus(m);
  // q3 = floor(floor(a / 2^192) * mu / 2^320), an estimate of a / m that is
  // low by at most 2.
  std::uint64_t q2[10];
  mul_low(&a.limbs_[3], 5, mu.limbs_.data(), 5, q2, 10);
  // r = (a - q3 * m) mod 2^320, which is below 3m.
  std::uint64_t q3m[5];
  mul_low(&q2[5], 5, m.limbs_.data(), 4, q3m, 5);
  BigUInt r;
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    const std::uint64_t sub_i = q3m[i] + borrow;
    borrow = (sub_i < q3m[i]) || (a.limbs_[i] < sub_i) ? 1 : 0;
    r.limbs_[i] = a.limbs_[i] - sub_i;
  }
  while (r.compare(m) >= 0) r = sub(r, m);
  return r;
}

std::string BigUInt::to_hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out;
  bool leading = true;
  for (std::size_t i = kLimbs; i-- > 0;) {
    for (int shift = 60; shift >= 0; shift -= 4) {
      const int nibble = static_cast<int>((limbs_[i] >> shift) & 0xf);
      if (leading && nibble == 0) continue;
      leading = false;
      out.push_back(digits[nibble]);
    }
  }
  if (out.empty()) out.push_back('0');
  return out;
}

}  // namespace psf::crypto
