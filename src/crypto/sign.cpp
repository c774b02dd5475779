#include "crypto/sign.hpp"

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace psf::crypto {

namespace {

// Expand (key, message, label) into 64 pseudo-random bytes via two HMAC
// invocations with distinct counters.
util::Bytes expand64(const util::Bytes& key, const util::Bytes& message,
                     std::uint8_t label) {
  util::Bytes m1 = message;
  m1.push_back(label);
  m1.push_back(1);
  util::Bytes m2 = message;
  m2.push_back(label);
  m2.push_back(2);
  util::Bytes out = hmac_sha256_bytes(key, m1);
  util::append(out, hmac_sha256_bytes(key, m2));
  return out;
}

// Challenge e = H(R || A || m) reduced mod L.
BigUInt challenge(const util::Bytes& r_enc, const util::Bytes& a_enc,
                  const util::Bytes& message) {
  util::Bytes data;
  util::append(data, r_enc);
  util::append(data, a_enc);
  util::append(data, message);
  const util::Bytes d1 = sha256_bytes(data);
  data.push_back(0x01);
  const util::Bytes d2 = sha256_bytes(data);
  util::Bytes wide = d1;
  util::append(wide, d2);
  return scalar_from_wide_bytes(wide);
}

}  // namespace

BigUInt scalar_from_wide_bytes(const util::Bytes& wide64) {
  return scalar_reduce(BigUInt::from_le_bytes(wide64));
}

std::string PublicKey::fingerprint() const {
  return util::to_hex(sha256_bytes(encoded)).substr(0, 16);
}

KeyPair generate_keypair(util::Rng& rng) {
  const util::Bytes seed = rng.next_bytes(64);
  KeyPair kp;
  kp.private_scalar = scalar_from_wide_bytes(seed);
  if (kp.private_scalar.is_zero()) {
    kp.private_scalar = BigUInt(1);  // vanishingly unlikely; keep valid
  }
  const Point a = point_mul_base(kp.private_scalar);
  kp.public_key.encoded = point_encode(a);
  return kp;
}

Signature sign(const KeyPair& key, const util::Bytes& message) {
  // Deterministic nonce from the private scalar and the message.
  const util::Bytes priv = key.private_scalar.to_le_bytes32();
  const BigUInt k = scalar_from_wide_bytes(expand64(priv, message, 0x4e));
  const Point r = point_mul_base(k);
  const util::Bytes r_enc = point_encode(r);
  const BigUInt e = challenge(r_enc, key.public_key.encoded, message);
  // e * x < L^2, so k + e * x stays far below the reduction's 2^512 limit.
  const BigUInt s = scalar_reduce(
      BigUInt::add(k, BigUInt::mul256(e, key.private_scalar)));
  Signature sig;
  sig.bytes = r_enc;
  util::append(sig.bytes, s.to_le_bytes32());
  return sig;
}

bool verify(const PublicKey& key, const util::Bytes& message,
            const Signature& sig) {
  if (sig.bytes.size() != 64 || key.encoded.size() != 32) return false;
  const util::Bytes r_enc(sig.bytes.begin(), sig.bytes.begin() + 32);
  const util::Bytes s_enc(sig.bytes.begin() + 32, sig.bytes.end());
  Point r;
  Point a;
  if (!point_decode(r_enc, r) || !point_decode(key.encoded, a)) return false;
  const BigUInt s = BigUInt::from_le_bytes(s_enc);
  if (!(s < group_order())) return false;
  const BigUInt e = challenge(r_enc, key.encoded, message);
  // Check s*B == R + e*A.
  const Point lhs = point_mul_base(s);
  const Point rhs = point_add(r, point_mul(e, a));
  return point_equal(lhs, rhs);
}

std::vector<std::uint8_t> verify_batch(const std::vector<VerifyJob>& jobs,
                                       util::ThreadPool* pool) {
  std::vector<std::uint8_t> results(jobs.size(), 0);
  auto run_one = [&jobs, &results](std::size_t i) {
    const VerifyJob& job = jobs[i];
    results[i] = verify(*job.key, *job.message, *job.sig) ? 1 : 0;
  };
  // A pool dispatch costs ~tens of us; one Schnorr verify costs ~100 us, so
  // any batch of two or more still wins from fan-out.
  if (pool == nullptr || pool->size() == 0 || jobs.size() < 2) {
    for (std::size_t i = 0; i < jobs.size(); ++i) run_one(i);
    return results;
  }
  std::vector<std::future<void>> pending;
  pending.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    pending.push_back(pool->submit([run_one, i] { run_one(i); }));
  }
  for (auto& f : pending) f.get();
  return results;
}

}  // namespace psf::crypto
