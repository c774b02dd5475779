// Schnorr signatures over the Ed25519 group with SHA-256 as the hash.
// This is deliberately a *variant* (Ed25519 proper uses SHA-512); the repo
// never needs to interoperate with external verifiers, and SHA-256 keeps the
// hash surface to one primitive. Deterministic nonces are derived HMAC-style
// from the private key and message.
#pragma once

#include <string>
#include <vector>

#include "crypto/biguint.hpp"
#include "crypto/ed25519.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace psf::crypto {

/// Public key: compressed point encoding (32 bytes).
struct PublicKey {
  util::Bytes encoded;

  bool operator==(const PublicKey& other) const = default;
  std::string fingerprint() const;  // first 16 hex chars of sha256(encoded)
};

struct KeyPair {
  BigUInt private_scalar;
  PublicKey public_key;
};

/// Signature: R (32 bytes) || s (32 bytes little-endian).
struct Signature {
  util::Bytes bytes;  // 64 bytes

  bool operator==(const Signature& other) const = default;
};

/// Deterministically generate a keypair from an Rng stream.
KeyPair generate_keypair(util::Rng& rng);

/// Sign `message`. Deterministic: the nonce is derived from the private
/// scalar and the message, so equal inputs produce equal signatures (no RNG
/// on the signing path, no nonce-reuse hazard).
Signature sign(const KeyPair& key, const util::Bytes& message);

/// Verify `sig` over `message` against `key`. Costs ~0.1 ms (two point
/// decodes and two scalar multiplications, one with fixed-base window
/// tables; bench_table1_delegations reports it as verify_us); hot paths that
/// re-check the same credential should go through drbac::verify_cached,
/// which memoizes this result by content hash.
bool verify(const PublicKey& key, const util::Bytes& message,
            const Signature& sig);

/// One work item for verify_batch. All three referents must stay alive and
/// unmodified for the duration of the call (they may be read from worker
/// threads).
struct VerifyJob {
  const PublicKey* key = nullptr;
  const util::Bytes* message = nullptr;
  const Signature* sig = nullptr;
};

/// Verify a batch of independent signatures, optionally fanning the
/// (embarrassingly parallel) checks out across `pool`'s workers. Results
/// are returned in job order regardless of completion order, so callers
/// observe identical output from the serial and parallel paths. Runs
/// serially when `pool` is null or the batch is too small to amortize a
/// dispatch. Each job is a pure function of its inputs; no verification
/// state is shared between jobs.
std::vector<std::uint8_t> verify_batch(const std::vector<VerifyJob>& jobs,
                                       util::ThreadPool* pool = nullptr);

/// Reduce 64 hash-derived bytes to a scalar mod L (exposed for tests).
BigUInt scalar_from_wide_bytes(const util::Bytes& wide64);

}  // namespace psf::crypto
